"""Tests for interval-run checks, test stripping, constant folding, and the
level-decomposition reachability solver."""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from typing import Optional

import pytest

import flatmc.reach as reach_module
from flatmc.machines import (
    ClassMismatch,
    Config,
    ConstTest,
    CounterMachine,
    LassoRun,
    MachineError,
    ParamTest,
    Transition,
    Update,
    bounded_reach_oracle,
    rep_reach_oracle,
    successors,
    validate_lasso,
    validate_run,
)
from flatmc.reach import (
    ReachWitness,
    StrippedMachine,
    _fires,
    _interval_reach,
    _level_search,
    _param_tests,
    _project,
    _segment_exits,
    _strip,
    _test_pattern,
    default_bound,
    enumerate_gammas,
    fold_constants,
    interval_return,
    interval_run,
    parametric_reach,
    plain_rep_lasso,
)
from flatmc.reductions import buchi_to_reach, divergence_context
from tests.gen import all_gammas, random_machine, random_oca
from tests.oracles import gamma_reach_oracle, interval_run_oracle


class TestIntervalRun:
    def test_empty_run(self):
        m = CounterMachine.build([], initial="a")
        assert interval_run(m, "a", "a", 2, 2)
        assert not interval_run(m, "a", "a", 2, 3)

    def test_strictly_inside_path(self):
        m = CounterMachine.build([("a", "+1", "a"), ("a", "+1", "b")], initial="a")
        assert interval_run(m, "a", "b", 0, 3)

    def test_final_step_must_change_value(self):
        # The step into b keeps the value, so the pre-final configuration
        # would sit on the upper boundary; no such run exists.
        m = CounterMachine.build([("a", "+1", "a"), ("a", "0", "b")], initial="a")
        assert not interval_run(m, "a", "b", 0, 3)

    def test_return_via_direct_step(self):
        m = CounterMachine.build(
            [("a", "+1", "a"), ("a", "-1", "a"), ("a", "0", "b")], initial="a")
        assert interval_return(m, "a", "b", 0, 2)

    def test_return_with_no_transitions(self):
        m = CounterMachine.build([], initial="a", extra_states=["b"])
        assert not interval_return(m, "a", "b", 0, 5)

    def test_rejects_parametric_machines(self):
        m = CounterMachine.build([("a", "=x:x", "a")], initial="a", params=["x"])
        with pytest.raises(ClassMismatch):
            interval_run(m, "a", "a", 0, 1)

    def test_agrees_with_enumeration_oracle(self):
        rng = random.Random(1337)
        for _ in range(40):
            m = random_oca(rng, max_states=5)
            states = sorted(m.states)
            for _ in range(30):
                q, q2 = rng.choice(states), rng.choice(states)
                v, v2 = rng.randint(0, 8), rng.randint(0, 8)
                assert interval_run(m, q, q2, v, v2) == \
                    interval_run_oracle(m, q, q2, v, v2, v2)
                assert interval_return(m, q, q2, v, v2) == \
                    interval_run_oracle(m, q, q2, v, v2, v)


def _strip_at(machine: CounterMachine, segment: int, levels: tuple[int, ...],
              gamma: dict) -> StrippedMachine:
    """Strip `machine` for the open interval between levels `segment` and
    `segment + 1` of the increasing values `levels`, each parameter ranging
    over its value under `gamma` alone."""
    box = {x: (v, v) for x, v in gamma.items()}
    return _strip(machine, _test_pattern(machine, box, levels[segment],
                                         levels[segment + 1]))


def _kept(stripped: StrippedMachine) -> list[tuple[int, Transition]]:
    """The (source transition index, transition) pairs a stripped machine
    lists over all its states, in index order."""
    return sorted((entry for q in stripped.states
                   for entry in stripped.outgoing(q)), key=lambda e: e[0])


class TestStripTests:
    def test_updates_only_unchanged(self):
        m = CounterMachine.build([("a", "+1", "b"), ("b", "-1", "a")], initial="a")
        stripped = _strip_at(m, 0, (0, 4), {})
        assert _kept(stripped) == list(enumerate(m.transitions))

    def test_below_test_becomes_zero_update(self):
        m = CounterMachine.build([("q", "<x:x1", "q2")], initial="q", params=["x1"])
        stripped = _strip_at(m, 0, (0, 3, 7), {"x1": 3})
        assert _kept(stripped) == [(0, Transition("q", Update(0), "q2"))]

    def test_equality_test_removed(self):
        m = CounterMachine.build([("q", "=x:x1", "q2")], initial="q", params=["x1"])
        for segment in (0, 1):
            stripped = _strip_at(m, segment, (0, 3, 7), {"x1": 3})
            assert _kept(stripped) == []

    def test_case_table(self):
        m = CounterMachine.build(
            [("q", ">x:x1", "a"), ("q", "<x:x1", "b"),
             ("q", ">x:x2", "c"), ("q", "<x:x2", "d"), ("q", "=0", "e")],
            initial="q", params=["x1", "x2"])
        gamma = {"x1": 2, "x2": 5}
        # Inside (2, 5): >x1 and <x2 hold throughout, the others never.
        stripped = _strip_at(m, 1, (0, 2, 5, 9), gamma)
        assert [i for i, _t in _kept(stripped)] == [0, 3]
        assert all(t.op == Update(0) for _i, t in _kept(stripped))

    def test_outgoing_names_source_transitions(self):
        # Under every pattern, each listed entry is the source transition
        # of its index, with the same endpoints and the source update as
        # its effect, or 0 for a parameter test that holds. Every update and
        # every holding test is listed, and nothing else: no zero test and
        # no test that does not hold.
        rng = random.Random(4242)
        patterns = 0
        for _ in range(120):
            m = random_machine(rng, max_states=4, max_params=2)
            tested = [i for i, t in enumerate(m.transitions)
                      if isinstance(t.op, ParamTest)]
            for pattern in itertools.product((False, True),
                                             repeat=len(tested)):
                holds = dict(zip(tested, pattern))
                stripped = _strip(m, frozenset(
                    i for i, held in holds.items() if held))
                assert stripped.states == m.states
                listed = []
                for q in sorted(m.states):
                    indices = [i for i, _t in stripped.outgoing(q)]
                    assert indices == sorted(indices)
                    for i, t in stripped.outgoing(q):
                        source = m.transitions[i]
                        assert source.source == t.source == q
                        assert t.target == source.target
                        if isinstance(source.op, Update):
                            assert t.op == source.op
                        else:
                            assert holds[i] and t.op == Update(0)
                    listed.extend(indices)
                assert sorted(listed) == [
                    i for i, t in enumerate(m.transitions)
                    if isinstance(t.op, Update) or holds.get(i, False)]
                patterns += 1
        assert patterns >= 200

    def test_stripped_runs_match_direct_interval_search(self):
        # A run through one open interval exists in the stripped machine iff
        # the original machine has a level-avoiding run there under the
        # instantiation identifying parameters with levels. Same-value
        # crossings are compared with at least one interior configuration,
        # since value-preserving steps on a level are not interval business.
        def direct(machine, gamma, start, goal, lo, hi, strict):
            if not strict and start == goal:
                return True
            seen = {start}
            queue = deque([start])
            while queue:
                here = queue.popleft()
                for _i, there in successors(machine, gamma, here):
                    if there == goal and not (strict and here == start):
                        return True
                    if lo < there.value < hi and there not in seen:
                        seen.add(there)
                        queue.append(there)
            return False

        rng = random.Random(555)
        tried = 0
        for _ in range(80):
            m = random_machine(rng, max_states=4, max_params=2)
            if not m.params:
                continue
            values = sorted(rng.sample(range(1, 8), len(m.params)))
            gamma = dict(zip(m.params, values))
            top = values[-1] + rng.randint(1, 4)
            levels = (0, *values, top)
            segment = rng.randrange(len(levels) - 1)
            lo, hi = levels[segment], levels[segment + 1]
            stripped = _strip_at(m, segment, levels, gamma)
            states = sorted(m.states)
            for _ in range(8):
                q, q2 = rng.choice(states), rng.choice(states)
                for v_start, v_goal in ((lo, hi), (hi, lo)):
                    got = _interval_reach(
                        stripped, Config(q, v_start),
                        Config(q2, v_goal), lo, hi)
                    want = direct(m, gamma, Config(q, v_start),
                                  Config(q2, v_goal), lo, hi, strict=False)
                    assert got == want
                for v in (lo, hi):
                    got = Config(q2, v) in _segment_exits(
                        stripped, Config(q, v), lo, hi)
                    want = direct(m, gamma, Config(q, v), Config(q2, v),
                                  lo, hi, strict=True)
                    assert got == want
                tried += 1
        assert tried >= 100


class TestFoldConstants:
    def test_zero_test_machine_unchanged(self):
        m = CounterMachine.build([("q", "=0", "q"), ("q", "+1", "q")], initial="q")
        folded, pinned = fold_constants(m)
        assert folded is m and pinned == {}

    def test_single_constant(self):
        m = CounterMachine.build([("q", "=c:5", "q2")], initial="q")
        folded, pinned = fold_constants(m)
        assert pinned == {"xc5": 5}
        op = folded.transitions[0].op
        assert op.rel == "=" and op.param == "xc5"

    def test_shared_constant(self):
        m = CounterMachine.build([("q", "=c:5", "a"), ("q", ">c:5", "b")],
                                 initial="q")
        folded, pinned = fold_constants(m)
        assert list(pinned.values()) == [5]
        names = {t.op.param for t in folded.transitions}
        assert len(names) == 1

    def test_solver_equivalence_with_pinning(self):
        m = CounterMachine.build(
            [("q", "+1", "q"), ("q", "=c:2", "win")], initial="q")
        w = parametric_reach(m, "win", 4)
        assert w is not None and w.gamma == {}
        assert w.run.configs[-1] == Config("win", 2)


def _folded_reach(machine: CounterMachine, target: str, bound: int,
                  ceiling: Optional[int]) -> Optional[ReachWitness]:
    """`parametric_reach` by way of the folded machine: each constant test
    other than =0 becomes a test against a parameter pinned to its
    constant, and the witness is projected back onto `machine`."""
    folded, pinned = fold_constants(machine)
    found = parametric_reach(folded, target, bound, ceiling=ceiling,
                             ranges={x: (c, c) for x, c in pinned.items()})
    if found is None:
        return None
    same = {i: i for i in range(len(machine.transitions))}
    return ReachWitness({x: found.gamma[x] for x in machine.params},
                        _project(found.run, same, machine))


def _constant_machine(rng: random.Random) -> CounterMachine:
    """A random OCA(P,C) machine with constants up to 6, some of its zero
    tests turned into `<c:0` or `>c:0`."""
    m = random_machine(rng, max_states=4, max_params=2, with_consts=True,
                       max_const=6)
    zero = ConstTest("=", 0)
    return CounterMachine.build(
        [(t.source, rng.choice(("<c:0", ">c:0", "=0")) if t.op == zero
          else t.op, t.target) for t in m.transitions],
        initial=m.initial, params=m.params, extra_states=m.states)


class TestConstantsInPlace:
    """`parametric_reach` reads constant tests as one-value ranges, with no
    folded machine; it answers as the search of the folded machine did."""

    def test_witness_matches_the_folded_machine_and_the_oracle(self):
        rng = random.Random(2009)
        bound = 2
        found = above_cap = zero_sided = 0
        for _ in range(120):
            m = _constant_machine(rng)
            target = rng.choice(sorted(m.states))
            # A ceiling of 5 lies at or below the constants 5 and 6, which
            # then raise the ceiling themselves.
            ceiling = rng.choice((None, 5))
            got = parametric_reach(m, target, bound, ceiling=ceiling)
            assert got == _folded_reach(m, target, bound, ceiling)
            constants = [t.op.const for t in m.transitions
                         if isinstance(t.op, ConstTest)]
            highest = max([bound, *constants])
            top = max(highest + len(m.states) ** 3 if ceiling is None
                      else ceiling, highest + 1)
            expected = any(
                bounded_reach_oracle(m, gamma, target, top) is not None
                for gamma in all_gammas(m.params, bound))
            assert (got is not None) == expected
            found += got is not None
            above_cap += ceiling is not None and highest >= ceiling
            zero_sided += any(isinstance(t.op, ConstTest) and t.op.const == 0
                              and t.op.rel != "=" for t in m.transitions)
        assert found >= 30 and above_cap >= 10 and zero_sided >= 10

    def test_constants_build_no_machine(self, monkeypatch):
        m = CounterMachine.build(
            [("q", "+1", "q"), ("q", "<c:2", "a"), ("a", ">c:0", "b"),
             ("b", "+1", "b"), ("b", "=c:3", "c"), ("c", "=x:x", "t")],
            initial="q", params=["x"])
        built = []
        original = CounterMachine.__post_init__

        def counted(machine):
            built.append(machine)
            original(machine)

        monkeypatch.setattr(CounterMachine, "__post_init__", counted)
        w = parametric_reach(m, "t", 4)
        assert built == []
        assert w.gamma == {"x": 3}
        assert w.run.configs[-1] == Config("t", 3)


class TestDefaultBound:
    def test_formula(self):
        m = CounterMachine.build([], initial="q")
        assert default_bound(m) == 16

    def test_with_params(self):
        m = CounterMachine.build([("a", "=x:x", "b")], initial="a", params=["x"])
        assert default_bound(m) == 8 * 3 * 8

    def test_monotone_in_states(self):
        small = CounterMachine.build([("a", "+1", "b")], initial="a")
        big = CounterMachine.build([("a", "+1", "b"), ("b", "+1", "c")],
                                   initial="a")
        assert default_bound(big) >= default_bound(small)


class TestEnumerationOrder:
    def test_smallest_maximum_first(self):
        order = list(enumerate_gammas(["x", "y"], {"x": (0, 2), "y": (0, 2)}))
        assert order[0] == {"x": 0, "y": 0}
        maxes = [max(g.values()) for g in order]
        assert maxes == sorted(maxes)

    def test_equals_full_sort(self):
        # The documented order, computed by sorting the whole product.
        def sorted_product(names, ranges):
            spaces = [range(ranges[x][0], ranges[x][1] + 1) for x in names]
            tuples = sorted(
                itertools.product(*spaces),
                key=lambda vs: (max(vs, default=0), tuple(sorted(vs)), vs))
            return [dict(zip(names, vs)) for vs in tuples]

        rng = random.Random(4242)
        cases = [([], {}), (["x"], {"x": (0, 3)}),
                 (["x", "y"], {"x": (0, 2), "y": (0, 4)}),
                 (["x", "c"], {"x": (0, 4), "c": (3, 3)}),
                 (["x", "y"], {"x": (0, 3), "y": (0, -1)})]
        for _ in range(40):
            names = [f"x{i}" for i in range(rng.randint(1, 4))]
            ranges = {}
            for x in names:
                if rng.random() < 0.3:
                    pin = rng.randint(0, 5)
                    ranges[x] = (pin, pin)
                else:
                    ranges[x] = (0, rng.randint(0, 4))
            cases.append((names, ranges))
        for names, ranges in cases:
            assert list(enumerate_gammas(names, ranges)) == \
                sorted_product(names, ranges)

    def test_first_item_without_enumerating_everything(self):
        # (2561)^3 instantiations: sorting them up front would not finish.
        ranges = {x: (0, 2560) for x in ("x", "y", "z")}
        start = time.perf_counter()
        gammas = enumerate_gammas(["x", "y", "z"], ranges)
        first = [next(gammas) for _ in range(8)]
        assert time.perf_counter() - start < 1.0
        assert first[0] == {"x": 0, "y": 0, "z": 0}
        assert first[1] == {"x": 0, "y": 0, "z": 1}
        assert all(max(g.values()) == 1 for g in first[1:])


class TestParametricReach:
    def test_climb_to_smallest_gamma(self):
        m = CounterMachine.build([("q", "+1", "q"), ("q", "=x:x", "q2")],
                                 initial="q", params=["x"])
        w = parametric_reach(m, "q2", 3)
        assert w is not None
        assert w.gamma == {"x": 0}
        assert len(w.run) == 1

    def test_unsatisfiable(self):
        m = CounterMachine.build([("q", ">x:x", "q2")], initial="q", params=["x"])
        assert parametric_reach(m, "q2", 4) is None

    def test_target_is_initial(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q", params=[])
        w = parametric_reach(m, "q", 4)
        assert w is not None and len(w.run) == 0

    def test_run_stops_at_the_first_target_configuration(self):
        # The target is one level step away; no detour through value 1.
        m = CounterMachine.build([("a", "+1", "a"), ("a", "0", "t")],
                                 initial="a")
        w = parametric_reach(m, "t", 0)
        assert w.run.configs == (Config("a", 0), Config("t", 0))
        assert w.run.steps == (1,)

    def test_folds_constant_tests_itself(self):
        # >c:2 becomes a parameter inside the solver only: gamma names the
        # machine's own parameters, and the run is one of the machine as
        # written.
        m = CounterMachine.build([("q", "+1", "q"), ("q", ">c:2", "p"),
                                  ("p", "=x:x", "t")],
                                 initial="q", params=["x"])
        w = parametric_reach(m, "t", 4)
        assert w is not None and w.gamma == {"x": 3}
        assert validate_run(m, w.gamma, w.run) is None

    def test_expands_succinct_updates(self):
        # The run is found on the expansion and reported in the machine's
        # own transitions; -3 needs the counter at 3 first.
        m = CounterMachine.build([("q", "+1", "q"), ("q", "-3", "q2")],
                                 initial="q")
        w = parametric_reach(m, "q2", 4)
        assert w.run.steps == (0, 0, 0, 1)
        assert w.run.configs[-1] == Config("q2", 0)
        assert validate_run(m, {}, w.run) is None

    def test_default_ceiling_covers_coprime_updates(self):
        # t needs the counter at 53 * 47 = 2491 first: above the default
        # bound 432 plus 53 |Q|^3 = 1431, so the headroom must come from
        # the sizes of the updates, not only from the largest one.
        m = CounterMachine.build([("s", "+53", "s"), ("s", "-47", "r"),
                                  ("r", "-47", "r"), ("r", "=0", "t")],
                                 initial="s")
        assert bounded_reach_oracle(m, {}, "t", 3000) is not None
        w = parametric_reach(m, "t", default_bound(m))
        assert w is not None and validate_run(m, {}, w.run) is None
        assert max(c.value for c in w.run.configs) == 2491

    @pytest.mark.parametrize("limits", [{"ranges": {"x": (0, -1)}},
                                        {"ceiling": -1}])
    def test_negative_limit_rejected(self, limits):
        m = CounterMachine.build([("a", "+1", "a"), ("a", ">x:x", "b")],
                                 initial="a", params=["x"])
        assert parametric_reach(m, "b", 3) is not None
        with pytest.raises(MachineError):
            parametric_reach(m, "b", 3, **limits)

    @pytest.mark.parametrize("ranges", [{"y": (0, 2)}, {"x": (2, 1)},
                                        {"x": (-1, 2)}],
                             ids=["unknown", "reversed", "negative"])
    def test_bad_range_rejected(self, ranges):
        m = CounterMachine.build([("a", "+1", "a"), ("a", ">x:x", "b")],
                                 initial="a", params=["x"])
        assert parametric_reach(m, "b", 3, ranges={"x": (1, 2)}) is not None
        with pytest.raises(MachineError):
            parametric_reach(m, "b", 3, ranges=ranges)

    def test_needs_distinct_levels(self):
        # q2 requires the counter strictly between the two parameters.
        m = CounterMachine.build(
            [("q", "+1", "q"), ("q", ">x:a", "p1"), ("p1", "<x:b", "q2")],
            initial="q", params=["a", "b"])
        w = parametric_reach(m, "q2", 3)
        assert w is not None
        assert w.gamma["a"] < w.gamma["b"]

    def test_witnesses_validate_and_hit_target(self):
        rng = random.Random(808)
        hits = 0
        for _ in range(60):
            m = random_machine(rng, max_states=4, max_params=2)
            target = rng.choice(sorted(m.states))
            w = parametric_reach(m, target, 3)
            if w is None:
                continue
            hits += 1
            assert w.run.configs[0] == Config(m.initial, 0)
            assert w.run.configs[-1].state == target
            assert validate_run(m, w.gamma, w.run) is None
        assert hits >= 20

    def test_matches_gamma_enumeration_oracle(self):
        rng = random.Random(909)
        bound = 3
        for _ in range(60):
            m = random_machine(rng, max_states=4, max_params=2)
            target = rng.choice(sorted(m.states))
            cap = bound + len(m.states) ** 3
            expected = gamma_reach_oracle(m, target, cap,
                                          all_gammas(m.params, bound))
            assert (parametric_reach(m, target, bound) is not None) == expected

    def test_parameter_renaming_invariance(self):
        rng = random.Random(111)
        for _ in range(30):
            m = random_machine(rng, max_states=4, max_params=2)
            if not m.params:
                continue
            target = rng.choice(sorted(m.states))
            renamed = {x: f"z{i}" for i, x in enumerate(reversed(m.params))}
            triples = []
            for t in m.transitions:
                op = t.op
                if hasattr(op, "param"):
                    op = type(op)(op.rel, renamed[op.param])
                triples.append((t.source, op, t.target))
            m2 = CounterMachine.build(
                triples, initial=m.initial,
                params=[renamed[x] for x in m.params], labels=m.labels,
                extra_states=m.states)
            a = parametric_reach(m, target, 3)
            b = parametric_reach(m2, target, 3)
            assert (a is None) == (b is None)

    def test_values_stay_below_search_ceiling(self):
        rng = random.Random(222)
        for _ in range(30):
            m = random_machine(rng, max_states=3, max_params=1)
            target = rng.choice(sorted(m.states))
            w = parametric_reach(m, target, 2)
            if w is None:
                continue
            ceiling = 2 + len(m.states) ** 3
            assert all(c.value <= ceiling for c in w.run.configs)


def _random_test_free(rng: random.Random) -> StrippedMachine:
    states = [f"s{i}" for i in range(rng.randint(1, 5))]
    triples = [(rng.choice(states), rng.choice(["+1", "+1", "-1", "-1", "0"]),
                rng.choice(states))
               for _ in range(rng.randint(1, 3 * len(states)))]
    machine = CounterMachine.build(triples, initial=states[0],
                                   extra_states=states)
    return _strip(machine, frozenset())


class _Forgetful(dict):
    """A memo that stores nothing, so every lookup is computed afresh."""

    def __setitem__(self, key, value):
        pass


class TestSharedIntervalWork:
    def test_segment_exits_stop_at_the_first_target_exit(self):
        # Every value inside the interval has a target configuration; the
        # level search ends at the first one, so no other exit is searched.
        m = CounterMachine.build([("a", "+1", "a"), ("a", "0", "t")],
                                 initial="a")
        exits = _segment_exits(m, Config("a", 0), 0, 50, target="t")
        assert list(exits) == [Config("t", 1)]
        assert exits[Config("t", 1)].steps == (0, 1)
        assert list(_segment_exits(m, Config("a", 0), 0, 50)) == \
            [Config("a", 50)]

    def test_segment_exits_are_shift_invariant(self):
        # A decrement at lo leaves the interval whether or not it is enabled,
        # so exits from (q, lo) and (q, hi) are those of (0, hi - lo) shifted.
        rng = random.Random(7070)
        compared = 0
        for _ in range(150):
            strip = _random_test_free(rng)
            lo = rng.randint(1, 9)
            width = rng.randint(1, 6)
            hi = lo + width
            for q in sorted(strip.states):
                for side in (0, width):
                    got = _segment_exits(strip, Config(q, lo + side), lo, hi)
                    base = _segment_exits(strip, Config(q, side), 0, width)
                    shifted = [
                        (Config(c.state, c.value + lo),
                         tuple(Config(d.state, d.value + lo)
                               for d in run.configs), run.steps)
                        for c, run in base.items()]
                    assert [(c, run.configs, run.steps)
                            for c, run in got.items()] == shifted
                    compared += len(got)
        assert compared >= 300

    def test_shared_memo_matches_memo_free_search(self):
        # Each instantiation's level search returns the same run whether the
        # memo carries interval work over from earlier instantiations or
        # nothing is shared, and parametric_reach reports the first of these
        # runs. The Buchi reductions of the same machines are searched too:
        # their many equality tests make one interval width recur with
        # different patterns, start states and sides. The search of the
        # whole box of ranges, which parametric_reach runs first with the
        # same memo, is compared the same way. Each search also has a level
        # at the bound, the largest end of any range, as in parametric_reach.
        rng = random.Random(3131)
        bound, ceiling = 5, 12
        peak = (bound,)
        compared = hits = boxes = 0
        for _ in range(60):
            m = random_machine(rng, max_states=4, max_params=1)
            accept = rng.choice(sorted(m.states))
            reduction = buchi_to_reach(m, accept)
            for machine, target in ((m, accept),
                                    (reduction.machine, reduction.target)):
                memo: dict = {}
                if machine.params:
                    box = {x: (0, bound) for x in machine.params}
                    assert (_level_search(machine, box, target, ceiling,
                                          memo, peak)
                            == _level_search(machine, box, target, ceiling,
                                             _Forgetful(), peak))
                    boxes += 1
                first = None
                for gamma in all_gammas(machine.params, bound):
                    point = {x: (v, v) for x, v in gamma.items()}
                    shared = _level_search(machine, point, target, ceiling,
                                           memo, peak)
                    fresh = _level_search(machine, point, target, ceiling,
                                          _Forgetful(), peak)
                    assert shared == fresh
                    compared += 1
                    if fresh is not None and first is None:
                        first = (gamma, fresh.configs, fresh.steps)
                got = parametric_reach(machine, target, bound, ceiling=ceiling)
                if first is None:
                    assert got is None
                    continue
                hits += 1
                assert (got.gamma, got.run.configs, got.run.steps) == first
        assert compared >= 1000 and hits >= 20
        assert boxes >= 60


class TestSkippedIntervalSearches:
    def test_a_start_with_no_inward_step_has_no_exit(self):
        # From the lower end only a +1 step reaches an interior value or
        # the upper end, and from the upper end only a -1 step: a start
        # without one has no exit at any width, with or without a target,
        # so the level search records none without searching.
        rng = random.Random(5252)
        skipped = searched = 0
        for _ in range(200):
            strip = _random_test_free(rng)
            states = sorted(strip.states)
            for q, from_lo, width, target in itertools.product(
                    states, (True, False), range(1, 7), (None, *states)):
                inward = [t for _i, t in strip.outgoing(q)
                          if (t.op.delta > 0 if from_lo else t.op.delta < 0)]
                exits = _segment_exits(
                    strip, Config(q, 0 if from_lo else width), 0, width,
                    target)
                if inward:
                    searched += 1
                else:
                    assert exits == {}, (q, from_lo, width, target)
                    skipped += 1
        assert skipped >= 12000 and searched >= 12000

    def test_the_memo_holds_what_a_search_finds(self):
        # After the level searches of the box and of every instantiation,
        # each interval the memo records, skipped or searched, holds the
        # exits that `_segment_exits` finds from its start.
        rng = random.Random(5353)
        states = [f"s{i}" for i in range(4)]
        ops = ["+1", "+1", "-1", "-1", "0", "=0", "=x:x", "<x:x", ">x:x",
               "=c:2"]
        bound, ceiling = 2, 9
        skipped = searched = 0
        for _ in range(150):
            m = CounterMachine.build(
                [(rng.choice(states), rng.choice(ops), rng.choice(states))
                 for _ in range(9)], initial="s0", params=["x"],
                extra_states=states)
            target = rng.choice(states)
            memo: dict = {}
            boxes = [{"x": (0, bound), 2: (2, 2)},
                     *({"x": (v, v), 2: (2, 2)} for v in range(bound + 1))]
            for box in boxes:
                _level_search(m, box, target, ceiling, memo, (bound,))
            for strip, exits in memo.values():
                for (q, from_lo, width), found in exits.items():
                    start = Config(q, 0 if from_lo else width)
                    want = _segment_exits(strip, start, 0, width, target)
                    assert found == [(end, run.configs[1:], run.steps)
                                     for end, run in want.items()]
                    inward = [t for _i, t in strip.outgoing(q)
                              if (t.op.delta > 0 if from_lo
                                  else t.op.delta < 0)]
                    skipped += not inward
                    searched += bool(inward)
        assert skipped >= 250 and searched >= 150


def _box_search(machine: CounterMachine, target: str, box: dict,
                ceiling: int):
    """The level search of `parametric_reach` on one box of ranges, with no
    further level."""
    return _level_search(machine, box, target, ceiling, {}, ())


def _chain(*ops: str, params=("x",)) -> CounterMachine:
    """The machine q0 -ops[0]-> q1 -ops[1]-> ... with target t last."""
    states = [f"q{i}" for i in range(len(ops))] + ["t"]
    return CounterMachine.build(
        [(states[i], op, states[i + 1]) for i, op in enumerate(ops)],
        initial="q0", params=params)


class TestBoxSearch:
    def test_absent_box_has_no_run_under_any_instantiation(self):
        # The box search over-approximates: whenever it finds no run, the
        # brute-force search finds none under any instantiation in the box,
        # at the same ceiling. The Buchi reductions test the stored value y
        # for equality many times over.
        rng = random.Random(4242)
        absent = present = 0
        for _ in range(120):
            m = random_machine(rng, max_states=4, max_params=2)
            accept = rng.choice(sorted(m.states))
            reduction = buchi_to_reach(m, accept)
            for machine, target in ((m, accept),
                                    (reduction.machine, reduction.target)):
                if not machine.params:
                    continue
                box = {}
                for x in machine.params:
                    lo = rng.randint(0, 4)
                    box[x] = (lo, lo + rng.randint(0, 3))
                ceiling = max(hi for _lo, hi in box.values()) + rng.randint(1, 6)
                if _box_search(machine, target, box, ceiling) is not None:
                    present += 1
                    continue
                absent += 1
                for values in itertools.product(
                        *(range(lo, hi + 1) for lo, hi in box.values())):
                    gamma = dict(zip(box, values))
                    assert bounded_reach_oracle(machine, gamma, target,
                                                ceiling) is None
        assert absent >= 100 and present >= 50

    def test_equality_fires_strictly_inside_the_range(self):
        # The =x test is met at value 2 only, inside (1, 3) but at neither end.
        m = _chain("+1", "+1", "=x:x")
        assert _box_search(m, "t", {"x": (1, 3)}, 6) is not None
        for v in (1, 3):
            assert _box_search(m, "t", {"x": (v, v)}, 6) is None
        assert _box_search(m, "t", {"x": (2, 2)}, 6) is not None
        assert parametric_reach(m, "t", 3).gamma == {"x": 2}

    def test_less_than_needed_one_below_the_upper_end(self):
        # <x is met at value 3, so only x = 4 lets it fire; in the box
        # (3, 4) the value 3 is a level, where the test fires on a level step.
        m = _chain("+1", "+1", "+1", "<x:x")
        assert _box_search(m, "t", {"x": (0, 4)}, 8) is not None
        assert _box_search(m, "t", {"x": (3, 4)}, 8) is not None
        assert _box_search(m, "t", {"x": (0, 3)}, 8) is None
        assert parametric_reach(m, "t", 4).gamma == {"x": 4}
        assert parametric_reach(m, "t", 3) is None

    def test_greater_than_needed_one_above_the_lower_end(self):
        # >x is met at value 2, so only x <= 1 lets it fire; in the box
        # (1, 2) the value 2 is a level, where the test fires on a level step.
        m = _chain("+1", "+1", ">x:x")
        assert _box_search(m, "t", {"x": (1, 5)}, 8) is not None
        assert _box_search(m, "t", {"x": (1, 2)}, 8) is not None
        assert _box_search(m, "t", {"x": (2, 5)}, 8) is None
        assert parametric_reach(_chain("+1", ">x:x"), "t", 5).gamma == {"x": 0}

    def test_one_parameter_at_two_values(self, monkeypatch):
        # x must equal both 1 and 2: the relaxed machine lets each test fire
        # on its own, so the box is reachable, yet every instantiation is
        # absent, and the answer is found absent by enumerating all of them.
        m = _chain("+1", "=x:x", "+1", "=x:x")
        assert _box_search(m, "t", {"x": (0, 4)}, 8) is not None
        boxes = _count_level_searches(monkeypatch)
        assert parametric_reach(m, "t", 4, ceiling=8) is None
        assert boxes == [{"x": (0, 4)}] + [{"x": (v, v)} for v in range(5)]

    def test_absent_box_makes_one_search(self, monkeypatch):
        # t is reachable in the control graph, but >x0 never fires at 0.
        m = _chain("=0", ">x:x0", "<x:x1", params=("x0", "x1"))
        boxes = _count_level_searches(monkeypatch)
        assert parametric_reach(m, "t", 12) is None
        assert boxes == [{"x0": (0, 12), "x1": (0, 12)}]


class TestSliceRefinement:
    def test_same_answer_as_plain_enumeration(self, monkeypatch):
        # With two or more wide ranges, a slice fixes the first parameter
        # and relaxes the others. Skipping the points of a dead slice changes
        # neither the verdict nor the first witness: each is what trying
        # every point in order, with a fresh memo each, gives. Every range
        # here is wide, and the Buchi reductions add a y to every machine
        # with a parameter.
        rng = random.Random(5151)
        searches = []
        search = reach_module._level_search

        def recorded(machine, box, *rest):
            run = search(machine, box, *rest)
            searches.append((dict(box), run))
            return run

        monkeypatch.setattr(reach_module, "_level_search", recorded)
        compared = hits = dead = skipped = 0
        for _ in range(1500):
            m = random_machine(rng, max_states=4, max_params=2, density=1.5)
            accept = rng.choice(sorted(m.states))
            reduction = buchi_to_reach(m, accept)
            for machine, target in ((m, accept),
                                    (reduction.machine, reduction.target)):
                ranges = {}
                for x in machine.params:
                    lo = rng.randint(0, 3)
                    ranges[x] = (lo, lo + rng.choice((2, 3, 4)))
                if len(ranges) < 2:
                    continue
                peak = (max(hi for _lo, hi in ranges.values()),)
                ceiling = peak[0] + rng.randint(1, 6)
                expected, tried = None, 0
                for gamma in enumerate_gammas(machine.params, ranges):
                    tried += 1
                    point = {x: (v, v) for x, v in gamma.items()}
                    run = search(machine, point, target, ceiling, {}, peak)
                    if run is not None:
                        expected = (gamma, run.configs, run.steps)
                        break
                searches.clear()
                got = parametric_reach(machine, target, 0, ranges=ranges,
                                       ceiling=ceiling)
                compared += 1
                if expected is None:
                    assert got is None
                else:
                    hits += 1
                    assert (got.gamma, got.run.configs, got.run.steps) == expected
                # The box fixes no parameter, a slice the first, a point all.
                fixed = [[x for x, (lo, hi) in box.items() if lo == hi]
                         for box, _run in searches]
                assert all(len(xs) in (0, len(ranges)) or xs == [machine.params[0]]
                           for xs in fixed)
                dead += sum(len(xs) == 1 and run is None
                            for xs, (_box, run) in zip(fixed, searches))
                if searches and searches[0][1] is not None:
                    skipped += tried - fixed.count(list(ranges))
        assert compared >= 1200 and hits >= 300
        assert dead >= 20 and skipped >= 150

    def test_dead_slices_decide_in_one_search_per_value(self, monkeypatch):
        # >x0 and <x0 each fire somewhere in the box, and =x1 lets the
        # counter go up and down, so the box reaches d; every instantiation
        # is absent. Each slice of x0 is dead, so after the box and the
        # first point, one search per value of x0 decides the answer.
        m = CounterMachine.build(
            [("a", "+1", "a"), ("a", "-1", "a"), ("a", ">x:x0", "b"),
             ("b", "<x:x0", "d"), ("a", "=x:x1", "c"), ("c", "+1", "c"),
             ("c", "-1", "a")],
            initial="a", params=("x0", "x1"))
        bound = 64
        boxes = _count_level_searches(monkeypatch)
        assert parametric_reach(m, "d", bound) is None
        assert len(boxes) <= bound + 3


def _parity() -> CounterMachine:
    """q0 +1 q1, q1 +1 q0, q0 =x t: t is reachable exactly for even x."""
    return CounterMachine.build(
        [("q0", "+1", "q1"), ("q1", "+1", "q0"), ("q0", "=x:x", "t")],
        initial="q0", params=("x",))


class TestExtraLevels:
    def test_an_extra_level_changes_no_verdict(self):
        # The level search is exact for any levels that include 0, the
        # ceiling and the ends of every range, so one more level anywhere
        # in between finds a run exactly when the search without it does.
        # One memo serves all the searches of a machine and target, as it
        # serves all those of one parametric_reach call.
        rng = random.Random(5151)
        cases = []
        for _ in range(80):
            m = random_machine(rng, max_states=4, max_params=2)
            accept = rng.choice(sorted(m.states))
            reduction = buchi_to_reach(m, accept)
            cases += [(m, accept), (reduction.machine, reduction.target)]
        compared = present = points = 0
        for machine, target in cases:
            memo: dict = {}
            box = {}
            for x in machine.params:
                lo = rng.randint(0, 4)
                box[x] = (lo, lo + rng.choice([0, 0, 1, 2, 3]))
            ceiling = max([hi for _lo, hi in box.values()], default=0)
            ceiling += rng.randint(1, 6)
            base = _level_search(machine, box, target, ceiling, {}, ())
            gamma = ({x: lo for x, (lo, hi) in box.items()}
                     if all(lo == hi for lo, hi in box.values()) else None)
            for level in range(1, ceiling):
                got = _level_search(machine, box, target, ceiling,
                                    memo, (level,))
                assert (got is None) == (base is None)
                compared += 1
                if got is None:
                    continue
                present += 1
                assert got.configs[-1].state == target
                if gamma is not None:
                    assert validate_run(machine, gamma, got) is None
                    points += 1
        assert compared >= 500 and present >= 150 and points >= 50

    def test_parity_survives_every_extra_level(self):
        m = _parity()
        ceiling = 10
        memo: dict = {}
        for x in range(7):
            for levels in [(), *((v,) for v in range(1, ceiling))]:
                run = _level_search(m, {"x": (x, x)}, "t", ceiling,
                                    memo, levels)
                assert (run is not None) == (x % 2 == 0)
                if run is not None:
                    assert validate_run(m, {"x": x}, run) is None
        for levels in [(), *((v,) for v in range(1, ceiling))]:
            assert _level_search(m, {"x": (1, 1)}, "t", ceiling,
                                 memo, levels) is None
            assert _level_search(m, {"x": (1, 2)}, "t", ceiling,
                                 memo, levels) is not None

    def test_top_interval_is_searched_at_one_width(self, monkeypatch):
        # >x0 and <x0 never fire on one value, but the box lets each fire
        # somewhere, so the box and all four instantiations are searched.
        # Every search has a level at the bound 3, so the interval from
        # there to the ceiling is searched at the one width 37; without it,
        # an instantiation x0 = v searches (v, 40) at width 40 - v. Only
        # that interval is wider than the bound.
        m = CounterMachine.build(
            [("a", "+1", "a"), ("a", "-1", "a"), ("a", ">x:x0", "b"),
             ("b", "<x:x0", "d")], initial="a", params=("x0",))
        bound, ceiling = 3, 40
        widths: dict = {}
        exits = reach_module._segment_exits

        def spied(machine, start, lo, hi, target=None):
            if hi - lo > bound:
                key = (id(machine), start.state, start.value == lo)
                widths.setdefault(key, set()).add(hi - lo)
            return exits(machine, start, lo, hi, target)

        monkeypatch.setattr(reach_module, "_segment_exits", spied)
        boxes = _count_level_searches(monkeypatch)
        assert parametric_reach(m, "d", bound, ceiling=ceiling) is None
        assert len(boxes) == 1 + (bound + 1)
        assert widths
        assert all(w == {ceiling - bound} for w in widths.values())

    def test_no_extra_level_without_parameters(self, monkeypatch):
        m = CounterMachine.build([("a", "+1", "a"), ("a", "=0", "b")],
                                 initial="a")
        calls = []
        search = reach_module._level_search

        def counted(machine, box, target, top, memo, levels):
            calls.append(levels)
            return search(machine, box, target, top, memo, levels)

        monkeypatch.setattr(reach_module, "_level_search", counted)
        assert parametric_reach(m, "b", 3) is not None
        assert calls == [()]


def _control_reach(machine: CounterMachine) -> set[str]:
    """The states some path of the control graph reaches from the initial
    state, tests and counter ignored."""
    seen = {machine.initial}
    todo = [machine.initial]
    while todo:
        here = todo.pop()
        for t in machine.transitions:
            if t.source == here and t.target not in seen:
                seen.add(t.target)
                todo.append(t.target)
    return seen


class TestControlGraph:
    def test_unreachable_target_needs_no_search(self, monkeypatch):
        # t is entered only from u, which no transition enters. Nothing is
        # searched, and nothing is expanded either: the update of a billion
        # would be refused by the expansion limit.
        m = CounterMachine.build(
            [("q", "+1", "q"), ("q", "=x:x", "q"), ("u", "=x:x", "t"),
             ("u", "+1000000000", "t")], initial="q", params=["x"])
        boxes = _count_level_searches(monkeypatch)
        assert parametric_reach(m, "t", 12) is None
        assert boxes == []

    def test_verdicts_match_the_oracle(self):
        # Whether the target is reached in the control graph or not, the
        # verdict is the brute-force search's under some instantiation, at
        # the ceiling the solver explores.
        rng = random.Random(3030)
        bound = 2
        unreachable = present = 0
        for _ in range(200):
            m = random_machine(rng, max_states=5, max_params=2, density=1.5,
                               with_consts=True)
            target = rng.choice(sorted(m.states))
            ceiling = rng.choice((None, 6))
            got = parametric_reach(m, target, bound, ceiling=ceiling)
            constants = [t.op.const for t in m.transitions
                         if isinstance(t.op, ConstTest)]
            highest = max([bound, *constants])
            top = max(highest + len(m.states) ** 3 if ceiling is None
                      else ceiling, highest + 1)
            expected = any(
                bounded_reach_oracle(m, gamma, target, top) is not None
                for gamma in all_gammas(m.params, bound))
            assert (got is not None) == expected, (m, target)
            unreachable += target not in _control_reach(m)
            present += got is not None
        assert unreachable >= 60 and present >= 80


class TestUnitIntervals:
    def test_exits_are_those_of_the_all_false_pattern(self):
        # An interval of width 1 has no interior value, so its exits, and
        # their order, do not depend on which tests hold: from either end,
        # with or without a target. At width 2 the interior value lets a
        # holding test matter, so there they do.
        rng = random.Random(4040)
        compared = to_target = differ_at_two = 0
        for _ in range(150):
            m = random_machine(rng, max_states=4, max_params=2, density=2.5,
                               with_consts=True)
            none = _strip(m, frozenset())
            for _ in range(3):
                strip = _strip(m, frozenset(
                    i for i, _key, _rel in _param_tests(m)
                    if rng.random() < 0.5))
                for q, side, target in itertools.product(
                        sorted(m.states), (0, 1), (None, *sorted(m.states))):
                    got = _segment_exits(strip, Config(q, side), 0, 1, target)
                    want = _segment_exits(none, Config(q, side), 0, 1, target)
                    assert list(got.items()) == list(want.items())
                    compared += 1
                    to_target += any(c.state == target for c in got)
                    differ_at_two += (
                        list(_segment_exits(strip, Config(q, 2 * side), 0, 2,
                                            target).items())
                        != list(_segment_exits(none, Config(q, 2 * side), 0,
                                               2, target).items()))
        assert compared >= 8000 and to_target >= 300 and differ_at_two >= 150


def _fires_somewhere(rel: str, span: tuple[int, int], value: int) -> bool:
    """Whether a test of relation `rel` fires at `value` for some value in
    the inclusive range `span`, tried one value at a time."""
    return any(value < v if rel == "<" else value > v if rel == ">"
               else value == v for v in range(span[0], span[1] + 1))


class TestIntervalPattern:
    def test_pattern_is_the_relaxed_verdict_inside_each_interval(self):
        # On random boxes, whose range ends are all levels, and random extra
        # levels: inside an interval of width >= 2 each test reads, at every
        # interior value, as it fires for some value of its range, and at
        # width 1, with no interior value, no test holds. The relaxed
        # predicate of the level search reads the same at every value.
        rng = random.Random(2718)
        interiors = holding = units = 0
        for _ in range(300):
            box = {f"x{i}": tuple(sorted(rng.choices(range(12), k=2)))
                   for i in range(rng.randint(0, 3))}
            box.update((c, (c, c)) for c in rng.sample(range(1, 12),
                                                       rng.randint(0, 2)))
            tests = tuple((rng.choice(sorted(box, key=str)),
                           rng.choice("<=>"))
                          for _ in range(rng.randint(1, 6) if box else 0))
            # Test i is transition i: a parameter or a constant test.
            machine = CounterMachine.build(
                [("q", f"{rel}{'x' if isinstance(x, str) else 'c'}:{x}", "q")
                 for x, rel in tests],
                initial="q", params=[x for x in box if isinstance(x, str)])
            levels = sorted({0, rng.randint(12, 16),
                             *rng.sample(range(16), rng.randint(0, 3)),
                             *itertools.chain(*box.values())})
            for low, high in zip(levels, levels[1:]):
                pattern = _test_pattern(machine, box, low, high)
                if high - low == 1:
                    assert pattern == frozenset()
                    units += 1
                for value in range(low + 1, high):
                    assert pattern == frozenset(
                        i for i, (x, rel) in enumerate(tests)
                        if _fires_somewhere(rel, box[x], value)), (
                            box, tests, low, high)
                    interiors += 1
                    holding += len(pattern)
            for value in range(levels[-1] + 1):
                for x, rel in tests:
                    assert (_fires(rel, box[x], value)
                            == _fires_somewhere(rel, box[x], value))
        assert interiors >= 2000 and holding >= 2000 and units >= 300


def _count_level_searches(monkeypatch) -> list:
    """Record the box of every level search from now on."""
    boxes = []
    search = reach_module._level_search

    def counted(machine, box, *rest):
        boxes.append(dict(box))
        return search(machine, box, *rest)

    monkeypatch.setattr(reach_module, "_level_search", counted)
    return boxes


class TestPlainRepReach:
    def test_zero_loop(self):
        m = CounterMachine.build([("good", "0", "good")], initial="good")
        assert plain_rep_lasso(divergence_context(m), "good",
                               "good") is not None

    def test_decrement_only(self):
        m = CounterMachine.build([("t", "-1", "t")], initial="t")
        assert plain_rep_lasso(divergence_context(m), "t", "t") is None

    def test_round_trip_loop(self):
        m = CounterMachine.build(
            [("t", "+1", "t"), ("t", "0", "good"), ("good", "0", "t")],
            initial="t")
        assert plain_rep_lasso(divergence_context(m), "t",
                               "good") is not None

    def test_search_with_no_end_stops(self, monkeypatch):
        # `a` climbs forever and never reaches `g`; the search must not
        # follow it. A call budget turns a regression into a failure.
        m = CounterMachine.build([("a", "+1", "a")], initial="a",
                                 extra_states=["g"])
        calls = []
        successors = reach_module.successors

        def budgeted(*args):
            calls.append(None)
            assert len(calls) < 1000, "the search does not stop"
            return successors(*args)

        monkeypatch.setattr(reach_module, "successors", budgeted)
        assert plain_rep_lasso(divergence_context(m), "a", "g") is None

    def test_agrees_with_core_oracle(self):
        # A lasso exactly when the brute-force oracle, which searches the
        # configuration graph on its own, finds one below a counter cap of
        # need + 4|Q| + 1: some lasso stays that low whenever one exists.
        # A found lasso validates from the start and loops at `good` from a
        # value of at least `need`.
        rng = random.Random(606)
        found = 0
        for _ in range(200):
            states = [f"s{i}" for i in range(rng.randint(1, 4))]
            triples = [(rng.choice(states), rng.choice(["+1", "-1", "0"]),
                        rng.choice(states))
                       for _ in range(rng.randint(1, 6))]
            m = CounterMachine.build(triples, initial=states[0],
                                     extra_states=states)
            start = rng.choice(states)
            good = rng.choice(states)
            rebased = CounterMachine.build(triples, initial=start,
                                           extra_states=states)
            context = divergence_context(m)
            need = context.need(good)
            cap = (need or 0) + 4 * len(states) + 1
            expected = rep_reach_oracle(rebased, {}, [good], cap)
            got = plain_rep_lasso(context, start, good)
            assert (got is None) == (expected is None)
            if got is not None:
                assert validate_lasso(rebased, {}, got) is None
                anchor = got.configs[got.loop_start]
                assert anchor.state == good and anchor.value >= need
                found += 1
        assert found >= 50

    def test_pruned_searches_find_the_lasso_of_the_unpruned_ones(
            self, monkeypatch):
        # On the test-free machines stripped from random ones, for every
        # (start, good) pair: the same lasso as the search before credit
        # pruning, or None with no configuration searched. Each search
        # expands only configurations from which its end is reachable: the
        # prefix's, `good` with at least `need`, and the loop's, `good`
        # with at least the anchor's value. In the first machine g needs 1
        # and is first reached with 2; the loop search must not enter
        # (d, 1), which reaches g with 1 but not with 2, before it takes
        # the loop through h.
        expanded = []

        def spied(machine, gamma, here):
            expanded.append(here)
            return successors(machine, gamma, here)

        monkeypatch.setattr(reach_module, "successors", spied)
        rng = random.Random(3141)
        machines = [CounterMachine.build(
            [("s", "+1", "t"), ("t", "+1", "g"), ("g", "-1", "d"),
             ("d", "0", "g"), ("g", "-1", "h"), ("h", "+1", "g")],
            initial="s")]
        machines.extend(random_oca(rng, max_states=5, density=4.0)
                        for _ in range(200))
        lassos = raised = pumping = overshoot = 0
        for m in machines:
            context = divergence_context(m)
            free = context.machine
            for good, start in itertools.product(sorted(free.states),
                                                 repeat=2):
                want = _reference_rep_lasso(context, start, good)
                expanded.clear()
                got = plain_rep_lasso(context, start, good)
                assert got == want, (m, start, good)
                if got is None:
                    assert expanded == []
                    continue
                anchor = got.configs[got.loop_start]
                split = expanded.index(anchor)
                need = context.need(good)
                for configs, value in ((expanded[:split], need),
                                       (expanded[split:], anchor.value)):
                    covers = _coverers(free, good, value)
                    assert all(map(covers, configs)), (m, start, good)
                lassos += 1
                raised += need > 0
                pumping += got.loop_delta > 0
                overshoot += anchor.value > need
        assert lassos >= 800 and raised >= 60 and pumping >= 450
        assert overshoot >= 250


def _reference_rep_lasso(context, start: str,
                         good: str) -> Optional[LassoRun]:
    """`plain_rep_lasso` as it searched before its credit pruning: a first
    path from (start, 0) to `good` with a value of at least `need`, then
    one back to `good` with at least the anchor's value, each entering
    only the states from which `good` is reachable in the control graph,
    at any value."""
    machine = context.machine
    need = context.need(good)
    if need is None:
        return None
    reaches = _reaching(machine, good)

    def first_path(origin: Config, value: int) -> Optional[list]:
        parents = {origin: None}
        queue = deque([origin])
        while queue:
            here = queue.popleft()
            for step, there in successors(machine, {}, here):
                if there.state not in reaches:
                    continue
                if there.state == good and there.value >= value:
                    path = [(step, there)]
                    while parents[here] is not None:
                        prev, edge = parents[here]
                        path.append((edge, here))
                        here = prev
                    return path[::-1]
                if there not in parents:
                    parents[there] = (here, step)
                    queue.append(there)
        return None

    origin = Config(start, 0)
    prefix = ([] if start == good and need == 0
              else first_path(origin, need))
    if prefix is None:
        return None
    anchor = prefix[-1][1] if prefix else origin
    loop = first_path(anchor, anchor.value)
    if loop is None:
        return None
    path = prefix + loop
    return LassoRun((origin, *(c for _s, c in path)),
                    tuple(s for s, _c in path), len(prefix))


def _reaching(machine, good: str) -> set[str]:
    """The states from which `good` is reachable in the control graph of a
    stripped machine."""
    back: dict[str, set] = {q: set() for q in machine.states}
    for q in machine.states:
        for _i, t in machine.outgoing(q):
            back[t.target].add(q)
    reaching, work = {good}, [good]
    while work:
        for p in back[work.pop()] - reaching:
            reaching.add(p)
            work.append(p)
    return reaching


def _coverers(machine, good: str, value: int):
    """A predicate on configurations of a test-free unary machine: whether
    some run from there reaches `good` with a value of at least `value`.
    Above value + |Q| that holds iff `good` is reachable in the control
    graph, since a path of fewer than |Q| steps loses less than |Q|. At or
    below it, some such run stays at or below value + 2|Q|: up to its first
    value of at least value + |Q| - 1, and then along such a path. So a
    backward fixpoint over the configurations up to there decides it."""
    n = len(machine.states)
    top = value + 2 * n
    won = {Config(good, v) for v in range(value, top + 1)}
    grown = True
    while grown:
        grown = False
        for q, v in itertools.product(sorted(machine.states), range(top + 1)):
            here = Config(q, v)
            if here not in won and any(
                    there in won for _i, there in successors(machine, {}, here)):
                won.add(here)
                grown = True
    reaching = _reaching(machine, good)
    return lambda c: (c in won if c.value <= value + n
                      else c.state in reaching)
