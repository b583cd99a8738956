"""Tests for the reduction chain: repeated reachability to reachability, flat
sentences to a tableau product, succinct updates to unary gadgets, and the
end-to-end model-checking pipeline."""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from collections import deque
from dataclasses import replace

import pytest

from flatmc.formulas import (
    FormulaError,
    LassoWord,
    Next,
    Prop,
    Until,
    evaluate,
    is_flat,
    is_sentence,
    nnf,
    parse,
)
from flatmc.machines import (
    ClassMismatch,
    Config,
    ConstTest,
    CounterMachine,
    MachineError,
    ParamTest,
    Update,
    rep_reach_oracle,
    successors,
    validate_lasso,
)
from flatmc import reductions
from flatmc.cli import main
from flatmc.jsonio import machine_to_data
from flatmc.reach import (
    enumerate_gammas,
    expand_updates,
    parametric_reach,
    plain_rep_lasso,
)
from flatmc.reductions import (
    bit_at,
    bits,
    buchi_to_reach,
    buchi_witness_to_lasso,
    divergence_context,
    flat_mc_to_buchi,
    model_check,
    relativize,
    repeated_reach,
    succinct_to_unary,
)
from tests.gen import all_gammas, random_formula, random_lasso, random_machine
from tests.oracles import mc_oracle


def rep_reach_exists(machine, accepting, gamma_bound=3, cap=None):
    """Reference verdict: some accepting state repeats under some bounded
    instantiation, by the core oracle."""
    from flatmc.machines import rep_reach_oracle
    cap = cap if cap is not None else 3 + 2 * len(machine.states)
    return any(
        rep_reach_oracle(machine, gamma, accepting, cap) is not None
        for gamma in all_gammas(machine.params, gamma_bound))


def reachable(machine, state):
    """The states the control graph of `machine` leads to from `state`,
    `state` itself included."""
    seen = {state}
    work = [state]
    while work:
        here = work.pop()
        for t in machine.transitions:
            if t.source == here and t.target not in seen:
                seen.add(t.target)
                work.append(t.target)
    return seen


def constants_of(machine):
    """The constants of the tests of `machine` other than =0, in increasing
    order."""
    return sorted({t.op.const for t in machine.transitions
                   if isinstance(t.op, ConstTest)
                   and t.op != ConstTest("=", 0)})


class TestBuchiToReach:
    def test_reachable_self_loop(self):
        m = CounterMachine.build(
            [("q", "+1", "q"), ("q", "0", "qf"), ("qf", "0", "q")], initial="q")
        red = buchi_to_reach(m, "qf")
        w = parametric_reach(red.machine, red.target, 3 + len(m.states))
        assert w is not None
        gamma, lasso = buchi_witness_to_lasso(red, w)
        assert validate_lasso(m, gamma, lasso) is None
        assert lasso.configs[lasso.loop_start].state == "qf"

    def test_unreachable_accept_state(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q",
                                 extra_states=["qf"])
        red = buchi_to_reach(m, "qf")
        assert parametric_reach(red.machine, red.target, 4) is None

    def test_dummy_parameter_chain(self):
        # No parameters: no parameter is added, and a state that loops
        # through the accept state steps straight into the target; the
        # climbing loop still translates back.
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        red = buchi_to_reach(m, "q")
        assert red.machine.params == (red.y,)
        assert (Update(0), red.target) in {
            (t.op, t.target) for t in red.machine.transitions
            if t.source == "q"}
        w = parametric_reach(red.machine, red.target, 3 + len(m.states))
        assert w is not None
        gamma, lasso = buchi_witness_to_lasso(red, w)
        assert gamma == {}
        assert validate_lasso(m, gamma, lasso) is None
        assert lasso.loop_delta > 0

    def test_accepts_constants_and_agrees_with_the_oracle(self):
        # Constant tests stay in place, in the copy and, after the
        # parameters, in the divergence chain as >c in increasing order; the
        # verdict equals the oracle's on the machine as written.
        rng = random.Random(1618)
        present = chained = climbing = 0
        for _ in range(300):
            m = random_machine(rng, max_states=4, max_params=2,
                               with_consts=True, max_const=4)
            accept = rng.choice(sorted(m.states))
            cap = 3 + len(m.states) ** 3
            red = buchi_to_reach(m, accept)
            constants = constants_of(m)
            guards = ([ParamTest(">", x) for x in m.params]
                      + [ConstTest(">", c) for c in constants])
            ts = red.machine.transitions
            chain = ts[len(ts) - len(guards):]
            assert [t.op for t in chain] == guards
            assert not chain or chain[-1].target == red.target
            assert red.machine.params == (*m.params, red.y)
            chained += bool(constants)
            witness = parametric_reach(
                red.machine, red.target, 3 + len(m.states),
                ranges={x: (0, 2) for x in m.params}, ceiling=cap)
            expected = rep_reach_exists(m, [accept], gamma_bound=2, cap=cap)
            assert (witness is not None) == expected, (m, accept)
            if witness is not None:
                present += 1
                last = red.machine.transitions[witness.run.steps[-1]]
                climbing += (bool(constants)
                             and last.op != ParamTest("=", red.y))
                gamma, lasso = buchi_witness_to_lasso(red, witness)
                assert validate_lasso(m, gamma, lasso) is None
                assert lasso.configs[lasso.loop_start].state == accept
        assert present >= 60 and chained >= 200 and climbing >= 4

    def test_equivalence_random(self):
        # The copy holds SCC(accept) alone, the states the accept state
        # reaches and is reached from, and exists only if the accept state
        # lies on a control cycle; on the machines where that is fewer than
        # all states the verdict still equals the oracle's.
        rng = random.Random(4711)
        smaller = off_cycle = 0
        for _ in range(40):
            m = random_machine(rng, max_states=4, max_params=2)
            accept = rng.choice(sorted(m.states))
            cap = 3 + len(m.states) ** 3
            red = buchi_to_reach(m, accept)
            scc = reachable(m, accept) & {
                q for q in m.states if accept in reachable(m, q)}
            cyclic = any(t.source == accept
                         and accept in reachable(m, t.target)
                         for t in m.transitions)
            # The source, the copy and a store if the accept state lies on a
            # cycle, a chain state per parameter and the target.
            assert len(red.machine.states) == (
                len(m.states) + (len(scc) + 1 if cyclic else 0)
                + len(m.params) + 1)
            assert red.accepting == ((accept,) if cyclic else ())
            off_cycle += not cyclic
            smaller += len(scc) < len(m.states)
            bound = 3 + len(m.states)
            witness = parametric_reach(
                red.machine, red.target, bound,
                ranges={x: (0, 3) for x in m.params}, ceiling=cap)
            expected = rep_reach_exists(m, [accept], cap=cap)
            assert (witness is not None) == expected, (m, accept)
            if witness is not None:
                gamma, lasso = buchi_witness_to_lasso(red, witness)
                assert validate_lasso(m, gamma, lasso) is None
                assert all(gamma[x] <= 3 for x in m.params)
        assert smaller >= 20 and off_cycle >= 10


def per_state_witnesses(machine, accepting, bound, ceiling):
    """Reference for repeated_reach: reduce and solve every accepting state
    on its own, and keep the witness each finds first. The reduction of a
    state on no control cycle has no way to its target."""
    found = {}
    for accept in sorted(accepting):
        red = buchi_to_reach(machine, accept)
        witness = parametric_reach(red.machine, red.target, bound,
                                   ranges={red.y: (0, ceiling)},
                                   ceiling=ceiling)
        if witness is not None:
            found[accept] = witness
    return found


class TestRepeatedReach:
    def test_first_instantiation_under_which_some_state_repeats(self):
        # One search decides every accepting state: its verdict is that of
        # the per-state reductions, and its instantiation is the first, in
        # enumerate_gammas order, of their first ones, under which the
        # reported state's own reduction reaches its target.
        rng = random.Random(2718)
        present = several = 0
        for _ in range(300):
            m = random_machine(rng, max_states=4, max_params=2)
            accepting = rng.sample(sorted(m.states), min(3, len(m.states)))
            ceiling = 3 + len(m.states) ** 2
            found = repeated_reach(m, accepting, 2, ceiling=ceiling)
            expected = per_state_witnesses(m, accepting, 2, ceiling)
            assert (found is not None) == bool(expected), (m, accepting)
            if found is None:
                continue
            present += 1
            several += len(expected) > 1
            firsts = [w.gamma for w in expected.values()]
            ranges = {**{x: (0, 2) for x in m.params}, "y": (0, ceiling)}
            first = next(g for g in enumerate_gammas((*m.params, "y"), ranges)
                         if g in firsts)
            assert found.certificate.gamma == first, (m, accepting)
            assert found.gamma == {x: first[x] for x in m.params}
            red = buchi_to_reach(m, found.accept_state)
            assert parametric_reach(
                red.machine, red.target, 2, ceiling=ceiling,
                ranges={x: (v, v) for x, v in first.items()}) is not None
            assert validate_lasso(m, found.gamma, found.lasso) is None
            lasso = found.lasso
            assert lasso.configs[lasso.loop_start].state == found.accept_state
        assert present >= 120 and several >= 25

    def test_agrees_with_the_oracle_on_constant_machines(self, monkeypatch):
        # Constant tests are read in place on the whole path: the verdict
        # equals the oracle's on the machine as written, both when a value
        # is revisited and when the counter diverges through a chain whose
        # last tests are >c, and the certificate names no pinned parameter.
        built = []
        original = reductions.buchi_to_reach

        def spy(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(reductions, "buchi_to_reach", spy)
        rng = random.Random(3141)
        present = diverging = chained = 0
        for _ in range(300):
            m = random_machine(rng, max_states=4, max_params=2,
                               with_consts=True, max_const=4)
            accepting = rng.sample(sorted(m.states), min(2, len(m.states)))
            cap = 3 + len(m.states) ** 3
            built.clear()
            found = repeated_reach(m, accepting, 2, ceiling=cap)
            expected = rep_reach_exists(m, accepting, gamma_bound=2, cap=cap)
            assert (found is not None) == expected, (m, accepting)
            if found is None:
                continue
            present += 1
            (red,) = built
            last = red.machine.transitions[found.certificate.run.steps[-1]]
            if last.op != ParamTest("=", red.y):
                diverging += 1
                chained += bool(constants_of(m))
            assert set(found.certificate.gamma) == {*m.params, red.y}
            assert validate_lasso(m, found.gamma, found.lasso) is None
            lasso = found.lasso
            assert lasso.configs[lasso.loop_start].state == found.accept_state
        assert present >= 90 and diverging >= 20 and chained >= 8

    def test_default_ceiling_counts_reduced_states(self, monkeypatch):
        # The default ceiling is headroom over the 2|Q| + 2 + |X| + |C|
        # states of a reduction with a full copy of the machine, whatever
        # the size of the copies the reduction builds: |C| constants stand
        # in the divergence chain as the parameters do.
        seen = []
        original = reductions.parametric_reach

        def spy(machine, target, bound, **kwargs):
            seen.append((bound, kwargs))
            return original(machine, target, bound, **kwargs)

        monkeypatch.setattr(reductions, "parametric_reach", spy)
        rng = random.Random(99)
        checked = 0
        for _ in range(10):
            m = random_machine(rng, max_states=3, max_params=1,
                               with_consts=True)
            constants = constants_of(m)
            states = (2 * len(m.states) + 2 + len(m.params)
                      + len(constants))
            seen.clear()
            repeated_reach(m, sorted(m.states), 2)
            for bound, kwargs in seen:
                # Only the stored value y has a range; no constant does.
                assert list(kwargs["ranges"]) == ["y"]
                assert kwargs["ceiling"] == \
                    max([bound, *constants]) + states ** 3
                checked += constants != []
        assert checked

    def test_store_bound_limits_the_stored_value(self):
        # The only lassos store the value 2 with x0 = 1 (see the CLI test
        # of the same machine): found with y up to the ceiling, not with y
        # bounded like the parameters.
        m = CounterMachine.build(
            [("s0", "<x:x0", "s5"), ("s5", "0", "s1"), ("s3", "+1", "s2"),
             ("s4", "=x:x0", "s0"), ("s4", "=0", "s3"), ("s5", "+1", "s3"),
             ("s2", "-1", "s3"), ("s2", "-1", "s3"), ("s0", "+1", "s0"),
             ("s2", "=x:x0", "s5"), ("s5", "+1", "s4"), ("s1", "=x:x0", "s2")],
            initial="s0", params=["x0"])
        found = repeated_reach(m, ["s1", "s2"], 1, ceiling=256)
        assert found is not None and found.gamma["x0"] <= 1
        assert found.certificate.gamma["y"] > 1
        assert repeated_reach(m, ["s1", "s2"], 1, ceiling=256,
                              store_bound=1) is None

    @pytest.mark.parametrize("limits", [{"store_bound": -1},
                                        {"ceiling": -1}])
    def test_negative_limit_rejected(self, limits):
        m = CounterMachine.build([("a", "-1", "a"), ("a", "=x:x", "b"),
                                  ("b", "+1", "b")],
                                 initial="a", params=["x"])
        assert repeated_reach(m, ["b"], 2) is not None
        with pytest.raises(MachineError):
            repeated_reach(m, ["b"], 2, **limits)

    def test_bad_input_rejected_before_the_cycle_filter(self):
        # Neither accepting state lies on a cycle, so no search would run.
        plain = CounterMachine.build([("q", "0", "r")], initial="q")
        with pytest.raises(MachineError):
            repeated_reach(plain, ["r"], -1)
        with pytest.raises(MachineError):
            repeated_reach(plain, ["r", "nowhere"], 3)
        assert repeated_reach(plain, ["r"], 3) is None

    def test_no_reduction_without_a_candidate(self, monkeypatch):
        # Neither accepting state lies on a cycle: the answer is absent
        # before the reduction is built.
        calls = []
        original = reductions.buchi_to_reach

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(reductions, "buchi_to_reach", counted)
        m = CounterMachine.build([("a", "+1", "b"), ("b", "-1", "c"),
                                  ("c", "0", "c")], initial="a")
        assert repeated_reach(m, ["a", "b"], 3) is None
        assert calls == []
        assert repeated_reach(m, ["c"], 3) is not None
        assert len(calls) == 1

    def test_loop_entries_and_need_computed_once(self, monkeypatch):
        # Both accepting states lie on cycles that only climb, so the answer
        # comes through the divergence chain. The reduction finds each
        # state's loop entries once, from its credit record; the witness
        # translation reads the records back and runs no `need` of its own.
        entries, needs = [], []
        context_type = reductions.DivergenceContext
        loop_entries, need = context_type.loop_entries, context_type.need

        def counted_entries(self, f):
            entries.append(f)
            return loop_entries(self, f)

        def counted_need(self, f):
            needs.append(f)
            return need(self, f)

        monkeypatch.setattr(context_type, "loop_entries", counted_entries)
        monkeypatch.setattr(context_type, "need", counted_need)
        m = CounterMachine.build([("a", "+1", "a"), ("a", "0", "b"),
                                  ("b", "+1", "b")], initial="a")
        found = repeated_reach(m, ["a", "b"], 2)
        assert found is not None and found.lasso.loop_delta > 0
        assert sorted(entries) == sorted(needs) == ["a", "b"]

    def test_one_error_text_for_an_unknown_accepting_state(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        text = "accepting state 'nowhere' not in machine"
        with pytest.raises(MachineError, match=text):
            repeated_reach(m, ["q", "nowhere"], 2)
        with pytest.raises(MachineError, match=text):
            buchi_to_reach(m, "q", "nowhere")

    def test_divergence_machine_keeps_updates_and_greater_tests(self):
        m = CounterMachine.build(
            [("a", "+1", "b"), ("b", ">x:x", "a"), ("b", "<x:x", "a"),
             ("b", "=x:x", "a"), ("a", "=0", "b"), ("a", "-1", "a")],
            initial="a", params=["x"])
        context = divergence_context(m)
        kept = sorted((entry for q in context.machine.states
                       for entry in context.machine.outgoing(q)),
                      key=lambda e: e[0])
        assert [(i, t.op) for i, t in kept] == \
            [(0, Update(1)), (1, Update(0)), (5, Update(-1))]


def closes_from(machine, state, value, cap):
    """Configuration search: whether some non-empty run of a test-free
    machine leads from (state, value) back to `state` with a value at least
    `value`, with every value <= cap."""
    seen = set()
    queue = deque([Config(state, value)])
    while queue:
        here = queue.popleft()
        for _step, there in successors(machine, {}, here):
            if there.state == state and there.value >= value:
                return True
            if there.value <= cap and there not in seen:
                seen.add(there)
                queue.append(there)
    return False


def divergence_machine(machine):
    """The test-free machine `divergence_context` analyses, built without
    stripping: updates are kept, greater-than tests become 0-updates, and
    every other test is dropped."""
    return CounterMachine.build(
        [(t.source, t.op if isinstance(t.op, Update) else Update(0), t.target)
         for t in machine.transitions
         if isinstance(t.op, Update)
         or isinstance(t.op, ParamTest) and t.op.rel == ">"],
        initial=machine.initial, extra_states=machine.states)


def stripped_scc(context, state):
    """The SCC of `state` in the divergence machine itself, which may be
    smaller than its SCC in the source: the states it reaches there that
    reach it back."""
    free = context.machine

    def ahead(start):
        seen, work = {start}, [start]
        while work:
            for _i, t in free.outgoing(work.pop()):
                if t.target not in seen:
                    seen.add(t.target)
                    work.append(t.target)
        return seen

    return {q for q in ahead(state) if state in ahead(q)}


class TestControlComponents:
    """The one SCC pass of repeated reachability, against mutual
    reachability on the control graph."""

    def test_matches_mutual_reachability(self):
        rng = random.Random(1972)
        self_loops = acyclic = shared = 0
        for _ in range(100):
            m = random_machine(rng, max_states=6, max_params=1,
                               density=rng.choice([1.0, 2.0, 3.0]))
            component = reductions._control_components(m)
            assert set(component) == set(m.states)
            for q in sorted(m.states):
                scc = {r for r in reachable(m, q) if q in reachable(m, r)}
                looped = any(t.source == t.target == q for t in m.transitions)
                if len(scc) > 1 or looped:
                    assert component[q] == scc, (m, q)
                else:
                    assert component[q] == frozenset(), (m, q)
                self_loops += looped and len(scc) == 1
                acyclic += not component[q]
                shared += len(scc) > 1
        assert self_loops >= 40 and acyclic >= 100 and shared >= 40

    @pytest.mark.parametrize("shape", ["chain", "cycle"])
    def test_long_graphs_are_linear(self, shape):
        n = 50_000
        if shape == "chain":
            m = CounterMachine.build(
                [(f"q{i}", "+1", f"q{i + 1}") for i in range(n)],
                initial="q0")
        else:
            m, _origin = expand_updates(CounterMachine.build(
                [("q", f"+{n}", "q")], initial="q"))
        started = time.perf_counter()
        component = reductions._control_components(m)
        assert time.perf_counter() - started < 1.0
        assert len(component) == len(m.states)
        if shape == "chain":
            assert not any(component.values())
        else:
            assert component["q"] == m.states

    def test_one_pass_per_repeated_reach_call(self, monkeypatch):
        calls = []
        original = reductions._control_components

        def counted(machine):
            calls.append(machine)
            return original(machine)

        monkeypatch.setattr(reductions, "_control_components", counted)
        m = CounterMachine.build([("q", "+1", "q"), ("q", "=x:x", "r"),
                                  ("r", "-1", "q")],
                                 initial="q", params=["x"])
        assert repeated_reach(m, ["r"], 3) is not None
        assert len(calls) == 1


class TestDivergenceContext:
    """The control-graph analysis against configuration search on the
    test-free machines that `divergence_context` strips from random ones."""

    def test_loop_entries_match_the_lasso_oracle(self):
        rng = random.Random(1618)
        entries_seen = 0
        for _ in range(40):
            m = random_machine(rng, max_states=4, max_params=1, density=3.0)
            context = divergence_context(m)
            free = divergence_machine(m)
            cap = 8 * len(free.states) ** 3
            for f in sorted(free.states):
                entries = context.loop_entries(f)
                entries_seen += len(entries)
                for q in sorted(free.states):
                    lasso = rep_reach_oracle(replace(free, initial=q), {},
                                             [f], cap)
                    assert (q in entries) == (lasso is not None), (m, f, q)
        assert entries_seen >= 50

    def test_need_is_least_and_within_the_scc_bound(self):
        # A closed walk through f that dips by 2 before it climbs back.
        dip = CounterMachine.build([("f", "-1", "a"), ("a", "-1", "b"),
                                    ("b", "+1", "c"), ("c", "+1", "f")],
                                   initial="f")
        assert divergence_context(dip).need("f") == 2
        rng = random.Random(2024)
        finite = raised = tighter = 0
        for _ in range(60):
            m = random_machine(rng, max_states=6, max_params=1, density=3.0)
            context = divergence_context(m)
            free = context.machine
            cap = 8 * len(free.states) ** 3
            for f in sorted(free.states):
                need = context.need(f)
                if need is None:
                    assert not closes_from(free, f, 4 * len(free.states), cap)
                    continue
                finite += 1
                raised += need > 0
                scc = stripped_scc(context, f)
                assert scc <= context.component[f]
                tighter += len(scc) < len(context.component[f])
                assert need <= len(scc) - 1
                assert closes_from(free, f, need, cap)
                assert need == 0 or not closes_from(free, f, need - 1, cap)
        assert finite >= 50 and raised >= 10 and tighter >= 10

    def test_loop_found_exactly_from_the_loop_entries(self):
        rng = random.Random(2024)
        lassos = 0
        for _ in range(40):
            m = random_machine(rng, max_states=5, max_params=1, density=3.0)
            context = divergence_context(m)
            free = context.machine
            for f in sorted(free.states):
                entries = context.loop_entries(f)
                for q in sorted(free.states):
                    lasso = plain_rep_lasso(context, q, f)
                    assert (lasso is not None) == (q in entries), (m, f, q)
                    if lasso is None:
                        continue
                    lassos += 1
                    configs = lasso.configs
                    assert configs[0] == Config(q, 0)
                    for here, step, there in zip(configs, lasso.steps,
                                                 configs[1:]):
                        assert (step, there) in successors(free, {}, here)
                    anchor = configs[lasso.loop_start]
                    assert anchor.state == configs[-1].state == f
                    assert anchor.value <= configs[-1].value
                    assert lasso.loop_start < len(lasso.steps)
        assert lassos >= 100

    def test_analysis_is_fast(self):
        rng = random.Random(577)
        for _ in range(20):
            m = random_machine(rng, max_states=5, max_params=1)
            started = time.perf_counter()
            context = divergence_context(m)
            for f in context.machine.states:
                context.loop_entries(f)
            assert time.perf_counter() - started < 1.0


# Seed-1 query 929 of the `mc_registers` benchmark list, paired there with
# `F @r. G([<r] | [=r])`.
QUERY_929 = CounterMachine.build(
    [("s1", "0", "s2"), ("s2", "-1", "s3"), ("s3", "0", "s0"),
     ("s3", "-1", "s1"), ("s0", "+1", "s3")],
    initial="s0", labels={"s0": ["p"], "s1": ["p"], "s2": ["p"], "s3": ["q"]})

# The sentences of the `mc_registers` benchmark that freeze a register, and
# one that freezes and tests a register at the same position.
REGISTER_PATTERNS = (
    "F @r. G([<r] | [=r])",
    "F @r. G(p -> [>r] | [=r])",
    "!G @r.(p -> F(q & [=r]))",
    "@r. G F [=r]",
    "F @r. X [>r]",
    "F @r. ([=r] & X [<r])",
)


# Sentences that freeze two registers, most of which test both at one
# position.
TWO_REGISTER_PATTERNS = (
    "F @r. X F @s. ([>r] & p)",
    "@r. X @s. G F ([=r] | [=s])",
    "F @r. X F @s. G ([>r] | [<s])",
    "F @r. F @s. G F ([=r] & [=s])",
    "F @r. X @s. G F ([=r] & X [=s])",
    "@r. X F @s. F ([=r] & [<s])",
)


def labelled_machine(rng):
    """A random machine of 3 or 4 states with unary updates and zero tests,
    each state labelled with some of p and q."""
    n = rng.choice((3, 4))
    states = [f"s{i}" for i in range(n)]
    transitions = [(rng.choice(states), rng.choice(("+1", "-1", "0", "=0")),
                    rng.choice(states)) for _ in range(n + 2)]
    labels = {q: [p for p in ("p", "q") if rng.random() < 0.5]
              for q in states}
    return CounterMachine.build(transitions, initial="s0", labels=labels,
                                extra_states=states)


def chains_of(product):
    """Each maximal chain of parameter tests in a product, as (first state,
    tests in order, last state). A chain state has one way out, its test."""
    tested = {t.source for t in product.transitions
              if isinstance(t.op, ParamTest)}
    into = {t.target for t in product.transitions
            if isinstance(t.op, ParamTest)}
    chains = []
    for head in sorted(tested - into):
        at, tests = head, []
        while at in tested:
            (_i, t), = product.outgoing(at)
            tests.append(t.op)
            at = t.target
        chains.append((head, tuple(tests), at))
    return chains


class TestFlatMcToBuchi:
    def test_requires_flat_sentence(self):
        m = CounterMachine.build([("q", "0", "q")], initial="q")
        with pytest.raises(FormulaError):
            flat_mc_to_buchi(m, parse("G @r.(req -> F(serve & [=r]))"))
        with pytest.raises(FormulaError):
            flat_mc_to_buchi(m, parse("F [=r]"))

    def test_requires_plain_oca(self):
        # Parameters and constant tests are rejected; large updates are
        # copied into the product as they stand.
        for m in (CounterMachine.build([("q", "=x:x", "q")], initial="q",
                                       params=["x"]),
                  CounterMachine.build([("q", "=c:2", "q")], initial="q")):
            with pytest.raises(ClassMismatch):
                flat_mc_to_buchi(m, parse("true"))
        m = CounterMachine.build([("q", "+3", "q")], initial="q")
        product = flat_mc_to_buchi(m, parse("true")).instance.machine
        assert Update(3) in {t.op for t in product.transitions}

    def test_formula_errors_come_first_on_every_call(self):
        # The sentence is checked before the machine, and a cached tableau
        # keeps no error: each call reports the formula again.
        m = CounterMachine.build([("q", "=x:x", "q")], initial="q",
                                 params=["x"])
        for text, reason in (("G @r.(req -> F(serve & [=r]))", "not flat"),
                             ("F [=r]", "not a sentence")):
            for _ in range(2):
                with pytest.raises(FormulaError, match=reason):
                    flat_mc_to_buchi(m, parse(text))
                with pytest.raises(FormulaError, match=reason):
                    model_check(m, parse(text), 3)
        with pytest.raises(ClassMismatch):
            flat_mc_to_buchi(m, parse("F p"))

    def test_one_tableau_serves_every_machine(self, monkeypatch):
        # The sentence's half of the product is built once: a second check
        # of the sentence, on another machine, saturates no requirement set
        # it saturated before, and its product is the one a fresh tableau
        # gives.
        calls = []
        saturate = reductions._saturate

        def counted(requirements, labels):
            calls.append((requirements, labels))
            return saturate(requirements, labels)

        monkeypatch.setattr(reductions, "_saturate", counted)
        reductions._tableau.cache_clear()  # whatever other tests checked
        rng = random.Random(61)
        phi = parse("F @r. G(p -> [>r] | [=r]) & G F q")
        machines = [labelled_machine(rng) for _ in range(2)]
        first = [flat_mc_to_buchi(m, phi) for m in machines]
        again = [flat_mc_to_buchi(m, parse("F @r. G(p -> [>r] | [=r]) "
                                           "& G F q"))
                 for m in machines]
        assert len(calls) == len(set(calls)) > 0
        seen = len(calls)
        assert model_check(machines[0], phi, 2) == \
            model_check(machines[0], phi, 2)
        assert len(calls) == seen
        assert first == again

    def test_labels_the_sentence_does_not_read_add_no_signatures(self):
        # The shared table is keyed by the sentence's own propositions, so
        # it stays as large however many other labels the machines carry.
        phi = parse("G F p & F @r. X [>r]")
        sizes = set()
        for i in range(30):
            m = CounterMachine.build([("a", "+1", "b"), ("b", "0", "a")],
                                     initial="a",
                                     labels={"a": ["p", f"z{i}"],
                                             "b": [f"y{i}"]})
            assert model_check(m, phi, 2) is not None
            sizes.add(len(reductions._tableau(phi).signatures))
        assert len(sizes) == 1

    def test_true_product_accepts_any_infinite_run(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        mc = flat_mc_to_buchi(m, parse("true"))
        assert rep_reach_exists(mc.instance.machine, mc.instance.accepting)

    def test_registers_become_parameters(self):
        m = CounterMachine.build([("q", "0", "q")], initial="q")
        mc = flat_mc_to_buchi(m, parse("F @r. G [=r]"))
        assert len(mc.instance.machine.params) == 1

    def test_oracle_equivalence_handcrafted(self):
        pairs = [
            ("G p", [("a", "0", "a")], {"a": ["p"]}, "a"),
            ("G p", [("a", "0", "b"), ("b", "0", "a")], {"a": ["p"]}, "a"),
            ("G F p", [("a", "0", "b"), ("b", "0", "a")], {"a": ["p"]}, "a"),
            ("F G p", [("a", "0", "b"), ("b", "0", "a")], {"a": ["p"]}, "a"),
            ("F G p", [("a", "0", "b"), ("b", "0", "b")], {"b": ["p"]}, "a"),
            ("p U q", [("a", "0", "b"), ("b", "0", "b")],
             {"a": ["p"], "b": ["q"]}, "a"),
            ("X X p", [("a", "+1", "a")], {"a": ["p"]}, "a"),
            ("F @r. G [=r]", [("a", "0", "a")], {}, "a"),
            ("F @r. X [=r]", [("a", "+1", "a")], {}, "a"),
            ("F @r. X [>r]", [("a", "+1", "b"), ("b", "-1", "a")], {}, "a"),
            ("F @r. G([<r] | [=r])", [("a", "+1", "a"), ("a", "-1", "a")],
             {}, "a"),
            ("X @r. [=r]", [("a", "0", "a")], {}, "a"),
        ]
        for text, transitions, labels, initial in pairs:
            phi = parse(text)
            machine = CounterMachine.build(transitions, initial=initial,
                                           labels=labels)
            got = model_check(machine, phi, 3) is not None
            expected = mc_oracle(machine, phi, max_positions=10)
            assert got == expected, text

    def test_no_chain_that_can_never_fire(self):
        # Every test of a chain compares one counter value with its
        # register's parameter: two relations on one register never both
        # hold, and a second equal test adds nothing.
        mc = flat_mc_to_buchi(QUERY_929, parse("F @r. G([<r] | [=r])"))
        chains = chains_of(mc.instance.machine)
        assert chains
        for _head, tests, _core in chains:
            assert len(set(tests)) == len(tests), tests
            assert len({t.param for t in tests}) == len(tests), tests

    def test_test_sets_of_a_position_share_its_core(self):
        # The `<r` and `=r` chains of one position end in one core, and the
        # accepting states are cores, never inside a chain.
        mc = flat_mc_to_buchi(QUERY_929, parse("F @r. G([<r] | [=r])"))
        product = mc.instance.machine
        ends: dict = {}
        for _head, tests, core in chains_of(product):
            ends.setdefault(core, set()).add(tests)
        assert {(ParamTest("<", "r_1"),), (ParamTest("=", "r_1"),)} in \
            ends.values()
        for f in mc.instance.accepting:
            assert not any(isinstance(t.op, ParamTest)
                           for _i, t in product.outgoing(f))


class TestSuccinctToUnary:
    def test_bits_of_six(self):
        assert bits(6) == 3
        assert [bit_at(6, i) for i in (1, 2, 3)] == [0, 1, 1]

    def test_unary_machine_unchanged(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q",
                                 labels={"q": ["p"]})
        phi = nnf(parse("G p"))
        red = succinct_to_unary(m, phi)
        assert red.machine is m and red.formula is phi

    def test_gadget_state_count(self):
        m = CounterMachine.build([("q", "+6", "q2")], initial="q")
        red = succinct_to_unary(m, nnf(parse("true")))
        assert len(red.machine.states) == 2 + 2 * bits(6) + 2

    def test_counting_sequence_is_emitted_by_a_real_run(self):
        m = CounterMachine.build([("q", "+6", "q2")], initial="q")
        red = succinct_to_unary(m, nnf(parse("true")))
        run = drive_gadget(red, 0)
        from flatmc.machines import validate_run
        assert validate_run(red.machine, {}, run) is None
        assert run.configs[-1] == Config("q2", 6)
        tokens = label_tokens(red, run)
        assert tokens == ["#6", "100", "#6", "010", "#6", "110",
                          "#6", "001", "#6", "101", "#6", "011", "#6"]

    def test_negative_update_counts_down(self):
        m = CounterMachine.build([("q", "-3", "q2")], initial="q")
        red = succinct_to_unary(m, nnf(parse("true")))
        run = drive_gadget(red, 0, start_value=5)
        assert run.configs[-1] == Config("q2", 2)

    def test_counter_formula_satisfied_and_mutations_falsify(self):
        rng = random.Random(1234)
        m = CounterMachine.build([("q", "+5", "q2")], initial="q")
        red = succinct_to_unary(m, nnf(parse("true")))
        counter = red.formula.right
        word = embedded_word(red, drive_gadget(red, 0))
        assert evaluate(word, 0, {}, counter)
        for _ in range(20):
            assert not evaluate(mutate_bit(rng, word), 0, {}, counter)

    def test_relativize_identity_without_inserted_props(self):
        rng = random.Random(77)
        for _ in range(30):
            phi = nnf(random_formula(rng, depth=3))
            assert relativize(phi, ()) is phi

    def test_relativize_table_entries(self):
        p = Prop("p")
        assert relativize(p, ("l",)) == p
        translated = relativize(Next(p), ("l",))
        assert isinstance(translated, Next)
        assert isinstance(translated.body, Until)

    def test_relativize_no_op_words_equivalence(self):
        # With an inserted proposition that never occurs, the translation
        # must not change the verdict on any word.
        rng = random.Random(75)
        for _ in range(60):
            phi = nnf(random_formula(rng, depth=3))
            translated = relativize(phi, ("lam",))
            word = random_lasso(rng)
            assert evaluate(word, 0, {}, phi) == \
                evaluate(word, 0, {}, translated)

    def test_equivalence_with_source_small_updates(self):
        # Desk-scale check of the unary expansion: source and expansion agree
        # under lasso enumeration. One full gadget cycle needs
        # z * (bits(z) + 1) + 4 positions, which caps the feasible z.
        rng = random.Random(909)
        checked = 0
        for z, samples in ((2, 10), (3, 6)):
            for _ in range(samples):
                phi = nnf(random_formula(rng, depth=2, regs=()))
                if not is_flat(phi) or not is_sentence(phi):
                    continue
                extra = rng.choice(["0", "+1", "-1"])
                m = CounterMachine.build(
                    [("a", f"+{z}", "b"), ("b", extra, "a")], initial="a",
                    labels={"a": [p for p in ("p", "q") if rng.random() < 0.5],
                            "b": [p for p in ("p", "q") if rng.random() < 0.5]})
                red = succinct_to_unary(m, phi)
                left = mc_oracle(m, phi, max_positions=8)
                right = mc_oracle(red.machine, red.formula,
                                  max_positions=z * (bits(z) + 1) + 5)
                assert left == right, (z, phi)
                checked += 1
        assert checked >= 10


def drive_gadget(red, transition_index, start_value=0):
    """The canonical counting traversal of one gadget: blocks spell 1..|z| in
    least-significant-bit-first binary."""
    from flatmc.machines import Run
    machine = red.machine
    gadget = red.gadgets[transition_index]
    source = red.source.transitions[transition_index]
    z = source.op.delta
    n = bits(z)

    def step_to(configs, steps, state, value):
        here = configs[-1]
        for i, t in machine.outgoing(here.state):
            if t.target == state:
                from flatmc.machines import op_value
                got = op_value(t.op, here.value)
                if got == value:
                    configs.append(Config(state, got))
                    steps.append(i)
                    return
        raise AssertionError(f"no gadget step to {state} at {value}")

    configs = [Config(source.source, start_value)]
    steps: list[int] = []
    value = start_value
    step_to(configs, steps, gadget.entry, value)
    for k in range(1, abs(z) + 1):
        for i in range(1, n + 1):
            state = gadget.ones[i - 1] if (k >> (i - 1)) & 1 else gadget.zeros[i - 1]
            if i == n:
                pass
            step_to(configs, steps, state, value)
        value += gadget.sign
        step_to(configs, steps, gadget.exit, value)
    step_to(configs, steps, source.target, value)
    return Run(tuple(configs), tuple(steps))


def label_tokens(red, run):
    """Render a gadget run's labels as tokens: delimiters as #z, bit
    blocks as juxtaposed digits."""
    machine = red.machine
    tokens = []
    bits_buffer = []
    for conf in run.configs:
        labels = machine.labels[conf.state]
        if red.bit_zero in labels or red.bit_one in labels:
            bits_buffer.append("1" if red.bit_one in labels else "0")
            continue
        if bits_buffer:
            tokens.append("".join(bits_buffer))
            bits_buffer = []
        for z, sep in red.seps.items():
            if sep in labels:
                tokens.append(f"#{z}" if z > 0 else f"#-{-z}")
    if bits_buffer:
        tokens.append("".join(bits_buffer))
    return tokens


def embedded_word(red, run):
    """Embed a finite gadget run into a lasso word (stuttering at the end) so
    the counting formula can be evaluated on it."""
    entries = [(red.machine.labels[c.state], 0) for c in run.configs]
    return LassoWord(tuple(entries), (entries[-1],))


def mutate_bit(rng, word):
    """Flip one bit position of an embedded counting word."""
    positions = [i for i, (props, _v) in enumerate(word.prefix)
                 if "0" in props or "1" in props]
    at = rng.choice(positions)
    props, value = word.prefix[at]
    flipped = frozenset({"1"} if "0" in props else {"0"})
    prefix = word.prefix[:at] + ((flipped, value),) + word.prefix[at + 1:]
    return LassoWord(prefix, word.loop)


def mc_against_the_oracle(tmp_path, patterns, rng, rounds=240):
    """Run `flatmc mc` on `rounds` labelled machines, each with the next of
    `patterns`: whenever a short lasso satisfies the sentence, `mc` answers
    present, and every witness it writes passes `flatmc check` with its
    formula. Returns the present answers per pattern, the answers the oracle
    confirms, and the products with a chain of two or more tests."""
    machine_file = tmp_path / "m.json"
    witness_file = tmp_path / "w.json"
    present = dict.fromkeys(patterns, 0)
    confirmed = chained = 0
    for i in range(rounds):
        text = patterns[i % len(patterns)]
        m = labelled_machine(rng)
        product = flat_mc_to_buchi(m, parse(text)).instance.machine
        chained += any(len(tests) >= 2
                       for _head, tests, _core in chains_of(product))
        machine_file.write_text(json.dumps(machine_to_data(m)))
        witness_file.unlink(missing_ok=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["mc", str(machine_file), "--formula", text,
                         "--bound", "3", "--witness", str(witness_file)])
        assert code in (0, 1), out.getvalue()
        if mc_oracle(m, parse(text), max_positions=8):
            assert code == 0, (text, m)
            confirmed += 1
        if code == 0:
            present[text] += 1
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["check", str(witness_file),
                             str(machine_file), text]) == 0
            assert out.getvalue().strip() == "valid"
    return present, confirmed, chained


class TestModelCheck:
    def test_always_p_on_climbing_machine(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q",
                                 labels={"q": ["p"]})
        witness = model_check(m, parse("G p"), 3)
        assert witness is not None
        assert witness.lasso.loop_delta > 0
        assert evaluate(witness.word, 0, {}, parse("G p"))

    def test_finitely_many_values_diverging(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        assert model_check(m, parse("F @r. G([<r] | [=r])"), 3) is None

    def test_freeze_forever_on_stutter(self):
        m = CounterMachine.build([("q", "0", "q")], initial="q")
        witness = model_check(m, parse("F @r. G [=r]"), 3)
        assert witness is not None
        assert evaluate(witness.word, 0, {}, parse("F @r. G [=r]"))

    def test_rejects_non_flat(self):
        m = CounterMachine.build([("q", "0", "q")], initial="q")
        with pytest.raises(FormulaError):
            model_check(m, parse("G @r.(req -> F(serve & [=r]))"), 3)

    def test_succinct_pipeline(self):
        m = CounterMachine.build([("q", "+2", "q")], initial="q",
                                 labels={"q": ["p"]})
        witness = model_check(m, parse("G p"), 3)
        assert witness is not None
        assert validate_lasso(m, {}, witness.lasso) is None
        assert witness.lasso.loop_delta > 0

    @staticmethod
    def nexts(n: int):
        phi = Prop("p")
        for _ in range(n):
            phi = Next(phi)
        return phi

    def test_a_formula_too_deep_to_walk_is_a_formula_error(self):
        # `parse` caps the depth of text, not of a formula built in code;
        # a witness is never returned without its re-check.
        m = CounterMachine.build([("q", "+1", "q")], initial="q",
                                 labels={"q": ["p"]})
        with pytest.raises(FormulaError, match="nests too deeply"):
            model_check(m, self.nexts(5000), 3)
        witness = model_check(m, self.nexts(200), 3)
        assert witness is not None
        assert evaluate(witness.word, 0, {}, self.nexts(200))

    def test_deep_sentences_built_apart_answer_alike(self):
        # The second sentence finds the first's tableau by equality, which
        # compares the two towers without recursion.
        m = CounterMachine.build([("q", "+1", "q")], initial="q",
                                 labels={"q": ["p"]})
        first, second = self.nexts(450), self.nexts(450)
        assert first is not second
        assert model_check(m, first, 3) is not None
        assert model_check(m, second, 3) is not None

    def test_a_second_check_saturates_nothing(self, monkeypatch):
        calls = []
        saturate = reductions._saturate

        def counted(requirements, labels):
            calls.append(requirements)
            return saturate(requirements, labels)

        monkeypatch.setattr(reductions, "_saturate", counted)
        m = CounterMachine.build(
            [("a", "+1", "b"), ("b", "-1", "a"), ("a", "=0", "a")],
            initial="a", labels={"a": ["p"], "b": ["q"]})
        text = "F @r. G([<r] | [=r]) & G F q"
        witness = model_check(m, parse(text), 3)
        calls.clear()
        assert model_check(m, parse(text), 3) == witness
        assert calls == []

    def test_register_patterns_agree_with_the_oracle(self, tmp_path):
        present, confirmed, _chained = mc_against_the_oracle(
            tmp_path, REGISTER_PATTERNS, random.Random(1729))
        assert all(present.values()), present
        assert sum(present.values()) >= 75 and confirmed >= 55

    def test_two_register_patterns_agree_with_the_oracle(self, tmp_path):
        # Most of these products fire two register tests at one position,
        # through a chain of two or more tests.
        present, confirmed, chained = mc_against_the_oracle(
            tmp_path, TWO_REGISTER_PATTERNS, random.Random(4242))
        assert all(present.values()), present
        assert chained >= 180 and confirmed >= 70

    def test_witnesses_are_self_certifying(self):
        m = CounterMachine.build(
            [("a", "+1", "b"), ("b", "-1", "a"), ("a", "=0", "a")],
            initial="a", labels={"a": ["p"], "b": ["q"]})
        for text in ("G(p | q)", "G F p", "F @r. G([<r] | [=r])",
                     "@r. G F [=r]"):
            witness = model_check(m, parse(text), 3)
            assert witness is not None, text
            assert validate_lasso(m, {}, witness.lasso) is None
            assert evaluate(witness.word, 0, {}, parse(text))
