"""Tests for the machine model, semantics, and brute-force oracles."""

from __future__ import annotations

import pathlib
import random
import re

import pytest

import flatmc
from flatmc.formulas import nnf, parse
from flatmc.jsonio import machine_from_data, machine_to_data
from flatmc.machines import (
    Config,
    ConstTest,
    CounterMachine,
    MachineClass,
    MachineError,
    ParamTest,
    Run,
    Transition,
    Update,
    bounded_reach_oracle,
    classify,
    fresh_name,
    machine_size,
    parse_op,
    format_op,
    rep_reach_oracle,
    successors,
    validate_lasso,
    validate_run,
)
from flatmc.reach import (
    _constants,
    _param_tests,
    expand_updates,
    fold_constants,
)
from flatmc.reductions import (
    buchi_to_reach,
    flat_mc_to_buchi,
    succinct_to_unary,
)
from tests.gen import random_machine

# Flat sentences, with and without registers, for the tableau product and
# the unary reduction.
MC_FORMULAS = ("G F p", "p U q", "F @r. G(p -> [>r] | [=r])",
               "@r. G F [=r]", "G(p -> F q)")


def _class_of(machine: CounterMachine) -> MachineClass:
    """The class of `machine`, read off its transitions."""
    unary = all(abs(t.op.delta) <= 1 for t in machine.transitions
                if isinstance(t.op, Update))
    zero_only = all(t.op == ConstTest("=", 0) for t in machine.transitions
                    if isinstance(t.op, ConstTest))
    if not zero_only:
        return MachineClass.OCA_PC if unary else MachineClass.OCA_SPC
    if machine.params:
        return MachineClass.OCA_P if unary else MachineClass.OCA_SP
    return MachineClass.OCA if unary else MachineClass.OCA_S


def _tests_of(machine: CounterMachine) -> tuple:
    """The (transition index, key, relation) of each parameter test and
    each constant test other than =0, in transition order, read off the
    transitions."""
    tests = []
    for i, t in enumerate(machine.transitions):
        if isinstance(t.op, ParamTest):
            tests.append((i, t.op.param, t.op.rel))
        elif isinstance(t.op, ConstTest) and t.op != ConstTest("=", 0):
            tests.append((i, t.op.const, t.op.rel))
    return tuple(tests)


# Independent per-kind guard evaluators, used to re-check successors
# literal by literal.

def _update_ok(op, value, result):
    return result == value + op.delta and result >= 0


def _param_ok(op, value, result, gamma):
    cmp = {"<": value < gamma[op.param],
           "=": value == gamma[op.param],
           ">": value > gamma[op.param]}[op.rel]
    return cmp and result == value


def _const_ok(op, value, result):
    cmp = {"<": value < op.const,
           "=": value == op.const,
           ">": value > op.const}[op.rel]
    return cmp and result == value


class TestOpFormat:
    def test_round_trip(self):
        for text in ["+3", "-1", "0", "=0", "=c:5", "<c:2", ">c:0",
                     "=x:a", "<x:b_1", ">x:Z9"]:
            assert format_op(parse_op(text)) == text

    def test_plus_zero_normalizes(self):
        assert format_op(parse_op("+0")) == "0"
        assert parse_op("=c:0") == ConstTest("=", 0)
        assert format_op(ConstTest("=", 0)) == "=0"

    def test_rejects_garbage(self):
        for text in ["", "x", "+", "=x:", "=c:x", "<y:a", "++1", "=x:a b"]:
            with pytest.raises(MachineError):
                parse_op(text)

    def test_a_text_read_again_gets_the_same_op(self):
        for text in ["+3", "-1", "0", "=0", "=c:5", "<x:b_1"]:
            # Built apart, so only an equal text is shared, not the object.
            again = "".join(list(text))
            assert parse_op(text) is parse_op(again)
        assert parse_op("+01") == parse_op("+1")

    def test_a_bad_text_fails_alike_on_every_call(self):
        for text in ["+a", ">c:a", ">x:a-b", "*2"]:
            errors = []
            for _ in range(3):
                with pytest.raises(MachineError) as raised:
                    parse_op(text)
                errors.append(raised.value)
            # Raised anew each time, with the same message.
            assert len({id(err) for err in errors}) == 3
            assert len({str(err) for err in errors}) == 1


class TestConstruction:
    def test_rejects_undeclared_param(self):
        with pytest.raises(MachineError):
            CounterMachine.build([("a", "=x:x", "b")], initial="a")

    def test_rejects_bad_names(self):
        with pytest.raises(MachineError):
            CounterMachine.build([("a b", "+1", "c")], initial="a b")

    def test_labels_default_empty(self):
        m = CounterMachine.build([("a", "+1", "b")], initial="a")
        assert m.labels["a"] == frozenset()
        assert m.labels["b"] == frozenset()

    def test_rejects_unlisted_endpoint_by_index(self):
        transitions = (Transition("a", Update(1), "a"),
                       Transition("a", Update(1), "b"))
        with pytest.raises(MachineError) as err:
            CounterMachine(states=frozenset({"a"}), initial="a", params=(),
                           transitions=transitions, labels={})
        assert str(err.value) == "transition 1 has an endpoint not in states"

    def test_fresh_name_takes_base_then_the_first_free_suffix(self):
        taken = {"a", "c_0"}
        assert fresh_name("b", taken) == "b"
        assert fresh_name("a", taken) == "a_0"
        assert fresh_name("a", taken) == "a_1"
        assert fresh_name("c", taken) == "c"
        assert fresh_name("c", taken) == "c_1"
        assert taken == {"a", "a_0", "a_1", "b", "c", "c_0", "c_1"}


class TestSuccessors:
    def test_decrement_blocked_at_zero(self):
        m = CounterMachine.build([("q", "-1", "q")], initial="q")
        assert successors(m, {}, Config("q", 0)) == []

    def test_equality_test_at_zero(self):
        m = CounterMachine.build([("q", "=x:x", "q2")], initial="q", params=["x"])
        assert successors(m, {"x": 0}, Config("q", 0)) == [(0, Config("q2", 0))]

    def test_two_enabled_guards(self):
        # Hand enumeration: at value 2 with gamma(x)=2, the increment yields
        # (q,3) and the equality test yields (q2,2).
        m = CounterMachine.build([("q", "+1", "q"), ("q", "=x:x", "q2")],
                                 initial="q", params=["x"])
        assert successors(m, {"x": 2}, Config("q", 2)) == [
            (0, Config("q", 3)), (1, Config("q2", 2))]

    def test_unknown_parameter(self):
        m = CounterMachine.build([("q", "=x:x", "q2")], initial="q", params=["x"])
        with pytest.raises(MachineError):
            successors(m, {}, Config("q", 0))

    def test_unknown_state(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        with pytest.raises(MachineError):
            successors(m, {}, Config("nope", 0))

    def test_matches_independent_guard_evaluators(self):
        rng = random.Random(101)
        for _ in range(50):
            m = random_machine(rng, with_consts=True)
            gamma = {x: rng.randint(0, 4) for x in m.params}
            for q in sorted(m.states):
                for v in range(6):
                    for step, conf in successors(m, gamma, Config(q, v)):
                        t = m.transitions[step]
                        assert t.source == q and t.target == conf.state
                        op = t.op
                        if isinstance(op, Update):
                            assert _update_ok(op, v, conf.value)
                        elif isinstance(op, ParamTest):
                            assert _param_ok(op, v, conf.value, gamma)
                        else:
                            assert _const_ok(op, v, conf.value)


class TestValidateRun:
    def test_single_configuration_run(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        assert validate_run(m, {}, Run((Config("q", 0),), ())) is None

    def test_negative_counter_diagnosed(self):
        m = CounterMachine.build([("q", "-1", "q")], initial="q")
        run = Run((Config("q", 0), Config("q", -1)), (0,))
        defect = validate_run(m, {}, run)
        assert defect is not None
        assert defect.position == 0
        assert "negative" in defect.reason

    def test_failed_test_diagnosed(self):
        m = CounterMachine.build([("q", ">x:x", "q2")], initial="q", params=["x"])
        run = Run((Config("q", 0), Config("q2", 0)), (0,))
        defect = validate_run(m, {"x": 0}, run)
        assert defect is not None and defect.position == 0

    def test_random_walks_validate(self):
        rng = random.Random(202)
        for _ in range(60):
            m = random_machine(rng, with_consts=True)
            gamma = {x: rng.randint(0, 3) for x in m.params}
            configs = [Config(m.initial, 0)]
            steps = []
            for _ in range(rng.randint(0, 12)):
                succ = successors(m, gamma, configs[-1])
                if not succ:
                    break
                step, conf = rng.choice(succ)
                steps.append(step)
                configs.append(conf)
            assert validate_run(m, gamma, Run(tuple(configs), tuple(steps))) is None


CLASS_FLAGS = {
    MachineClass.OCA: frozenset(),
    MachineClass.OCA_S: frozenset("S"),
    MachineClass.OCA_P: frozenset("P"),
    MachineClass.OCA_PC: frozenset("PC"),
    MachineClass.OCA_SP: frozenset("SP"),
    MachineClass.OCA_SPC: frozenset("SPC"),
}


class TestClassify:
    def test_plain_oca(self):
        m = CounterMachine.build(
            [("a", "+1", "b"), ("b", "-1", "a"), ("a", "=0", "a")], initial="a")
        assert classify(m) is MachineClass.OCA

    def test_param_test_gives_ocap(self):
        m = CounterMachine.build([("a", "=x:x", "b")], initial="a", params=["x"])
        assert classify(m) is MachineClass.OCA_P

    def test_everything(self):
        m = CounterMachine.build(
            [("a", "+5", "a"), ("a", "=c:3", "b"), ("a", "=x:x", "b")],
            initial="a", params=["x"])
        assert classify(m) is MachineClass.OCA_SPC

    def test_constants_force_pc(self):
        m = CounterMachine.build([("a", ">c:2", "b")], initial="a")
        assert classify(m) is MachineClass.OCA_PC

    def test_monotone_under_added_transitions(self):
        rng = random.Random(303)
        extras = ["+1", "-4", "=0", "=c:2", ">c:1"]
        for _ in range(80):
            m = random_machine(rng, with_consts=rng.random() < 0.5)
            before = CLASS_FLAGS[classify(m)]
            op = rng.choice(extras + [f"<x:{x}" for x in m.params])
            q = sorted(m.states)[0]
            bigger = CounterMachine.build(
                [(t.source, t.op, t.target) for t in m.transitions] + [(q, op, q)],
                initial=m.initial, params=m.params, labels=m.labels,
                extra_states=m.states)
            after = CLASS_FLAGS[classify(bigger)]
            assert before <= after


class TestRecordedFacts:
    """The constructor records a machine's class and tests in its one pass
    over the transitions; what `classify`, `_param_tests`, `_constants` and
    `expand_updates` read of them must be what the transitions say, for
    every way a machine is made. Each recorded test names its transition
    by index, so a test pattern, a set of such indices, reads no other
    list."""

    @staticmethod
    def _machines():
        """Seeded machines of every class, each with the machines that the
        library derives from it."""
        rng = random.Random(9090)
        for n in range(120):
            m = random_machine(rng, max_params=n % 3,
                               with_consts=n % 2 == 0,
                               with_labels=True, max_update=1 + n % 4)
            yield m
            yield machine_from_data(machine_to_data(m))
            yield fold_constants(m)[0]
            expanded = expand_updates(m)[0]
            yield expanded
            yield fold_constants(expanded)[0]
            accepting = rng.choice(sorted(m.states))
            yield buchi_to_reach(expanded, accepting).machine
        for n in range(40):
            m = random_machine(rng, max_params=0, with_labels=True,
                               max_update=1 + n % 3)
            phi = nnf(parse(MC_FORMULAS[n % len(MC_FORMULAS)]))
            yield succinct_to_unary(m, phi).machine
            yield flat_mc_to_buchi(m, phi).instance.machine

    def test_records_match_the_transitions(self):
        seen = set()
        for m in self._machines():
            kind = _class_of(m)
            tests = _tests_of(m)
            assert classify(m) is kind
            assert _param_tests(m) == tests
            # Each entry names a test transition by its index; each test
            # other than =0 is named exactly once, and nothing else is.
            for i, key, rel in _param_tests(m):
                op = m.transitions[i].op
                assert isinstance(op, (ParamTest, ConstTest))
                assert (op.param if isinstance(op, ParamTest)
                        else op.const) == key
                assert op.rel == rel
            named = [i for i, _key, _rel in _param_tests(m)]
            assert sorted(set(named)) == named == [
                i for i, t in enumerate(m.transitions)
                if not isinstance(t.op, Update)
                and t.op != ConstTest("=", 0)]
            assert _constants(m) == sorted({key for _i, key, _rel in tests
                                            if isinstance(key, int)})
            unary = kind in (MachineClass.OCA, MachineClass.OCA_P,
                             MachineClass.OCA_PC)
            assert (expand_updates(m)[0] is m) == unary
            seen.add(kind)
        assert seen == set(MachineClass)


class TestSize:
    def test_lone_state(self):
        m = CounterMachine.build([], initial="q")
        assert machine_size(m) == 1

    def test_unit_update_has_no_log_term(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        assert machine_size(m) == 2

    def test_log_term_for_eight(self):
        m = CounterMachine.build([("q", "+1", "q"), ("q", "+8", "q")], initial="q")
        assert machine_size(m) == 3 + 3

    def test_labels_and_constants_count(self):
        m = CounterMachine.build([("q", "=c:5", "q")], initial="q",
                                 labels={"q": ["p", "r"]})
        # 1 state + 1 transition + 2 labels + ceil(log2(5)) = 3
        assert machine_size(m) == 1 + 1 + 2 + 3


class TestBoundedReachOracle:
    def test_climb_and_test(self):
        m = CounterMachine.build([("q", "+1", "q"), ("q", "=x:x", "q2")],
                                 initial="q", params=["x"])
        run = bounded_reach_oracle(m, {"x": 2}, "q2", 3)
        assert run is not None and len(run) == 3
        assert run.configs[-1] == Config("q2", 2)

    def test_target_is_initial(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        run = bounded_reach_oracle(m, {}, "q", 5)
        assert run == Run((Config("q", 0),), ())

    def test_unsatisfiable_guard(self):
        m = CounterMachine.build([("q", ">x:x", "q2")], initial="q", params=["x"])
        assert bounded_reach_oracle(m, {"x": 0}, "q2", 5) is None

    def test_cap_monotone(self):
        rng = random.Random(404)
        for _ in range(60):
            m = random_machine(rng)
            gamma = {x: rng.randint(0, 3) for x in m.params}
            target = rng.choice(sorted(m.states))
            small = bounded_reach_oracle(m, gamma, target, 4)
            if small is not None:
                big = bounded_reach_oracle(m, gamma, target, 7)
                assert big is not None
                assert validate_run(m, gamma, big) is None


class TestRepReachOracle:
    def test_zero_self_loop(self):
        m = CounterMachine.build([("qf", "0", "qf")], initial="qf")
        lasso = rep_reach_oracle(m, {}, ["qf"], 3)
        assert lasso is not None and lasso.loop_delta == 0

    def test_pumpable_climb(self):
        m = CounterMachine.build([("q", "+1", "q")], initial="q")
        lasso = rep_reach_oracle(m, {}, ["q"], 3)
        assert lasso is not None and lasso.loop_delta == 1

    def test_exact_repeat_two_states(self):
        m = CounterMachine.build([("q", "+1", "q2"), ("q2", "-1", "q")],
                                 initial="q")
        lasso = rep_reach_oracle(m, {}, ["q2"], 4)
        assert lasso is not None
        assert lasso.configs[lasso.loop_start] == lasso.configs[-1]
        assert lasso.configs[lasso.loop_start].state == "q2"

    def test_decrement_only_has_no_lasso(self):
        m = CounterMachine.build([("t", "-1", "t")], initial="t")
        assert rep_reach_oracle(m, {}, ["t"], 5) is None

    def test_equality_loop_is_not_pumped(self):
        # The loop q -> a -> q gains value but contains an equality test, so
        # it is not an infinite-run witness; the oracle must reject it.
        m = CounterMachine.build([("q", "=x:x", "a"), ("a", "+1", "q")],
                                 initial="q", params=["x"])
        assert rep_reach_oracle(m, {"x": 0}, ["a"], 6) is None

    def test_lassos_validate_and_pump(self):
        rng = random.Random(505)
        found = 0
        for _ in range(80):
            m = random_machine(rng)
            gamma = {x: rng.randint(0, 3) for x in m.params}
            accepting = {rng.choice(sorted(m.states))}
            lasso = rep_reach_oracle(m, gamma, accepting, 8)
            if lasso is None:
                continue
            found += 1
            assert validate_lasso(m, gamma, lasso) is None
            assert lasso.configs[lasso.loop_start].state in accepting
            pumped = lasso.unroll(3)
            assert validate_run(m, gamma, pumped) is None
        assert found >= 10

    def test_no_other_module_refers_to_an_oracle(self):
        # The oracles are the reference the solvers are checked against, in
        # these tests and in the benchmark's verdict gate; a solver that
        # called one would be checked against itself.
        oracle = re.compile(r"\b(rep_reach_oracle|bounded_reach_oracle|_oracle_search)\b")
        package = pathlib.Path(flatmc.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert package / "machines.py" in modules
        offenders = [path.name for path in modules
                     if path.name != "machines.py"
                     and oracle.search(path.read_text(encoding="utf-8"))]
        assert offenders == []
