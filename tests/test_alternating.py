"""Tests for parameter words, the machine-to-A2A translation, run trees, and
capped membership."""

from __future__ import annotations

import random

import pytest

from flatmc.alternating import (
    BLANK,
    FIRST,
    A2A,
    A2ATransition,
    TreeNode,
    WordError,
    a2a_size,
    construct_accepting_tree,
    decode,
    dump_a2a,
    encode_gamma,
    extract_run,
    machine_to_a2a,
    membership,
    validate_run_tree,
)
from flatmc.machines import (
    ClassMismatch,
    Config,
    CounterMachine,
    ParamTest,
    Run,
    bounded_reach_oracle,
    machine_size,
)
from flatmc.reach import ReachWitness, parametric_reach
from tests.gen import all_gammas, random_machine


def climb_and_test():
    return CounterMachine.build(
        [("q", "+1", "q"), ("q", "=x:x", "q2")], initial="q", params=["x"])


def every_op():
    return CounterMachine.build(
        [("a", "+1", "b"), ("b", "-1", "a"), ("a", "0", "b"), ("b", "=0", "c"),
         ("c", "=x:x", "a"), ("a", "<x:z", "c"), ("c", ">x:x", "b")],
        initial="a", params=["x", "z"])


EVERY_OP_DUMP = """\
alphabet # x z
initial init:
accepting seen:x seen:z
init: # (& (& (a 0) (find:x +1)) (find:z +1))
find:x x (seen:x +1)
find:x # (find:x +1)
seen:x # (seen:x +1)
find:x z (find:x +1)
seen:x z (seen:x +1)
find:z z (seen:z +1)
find:z # (find:z +1)
seen:z # (seen:z +1)
find:z x (find:z +1)
seen:z x (seen:z +1)
a # (right:b +1)
right:b x (right:b +1)
right:b z (right:b +1)
right:b # (b 0)
b # (left:a -1)
left:a x (left:a -1)
left:a z (left:a -1)
left:a # (a 0)
a # (b 0)
b first? (c 0)
c # (& (a 0) (present:x +1))
present:x x true
present:x z (present:x +1)
a # (& (c 0) (scan:z +1))
scan:z x (scan:z +1)
scan:z # (find:z +1)
c # (& (b 0) (seen:x +1))
c # true
"""


class TestParameterWords:
    def test_two_equal_values(self):
        word = encode_gamma({"x1": 2, "x2": 0, "x3": 2}, order=["x1", "x2", "x3"])
        assert word.prefix == (BLANK, "x2", BLANK, BLANK, "x1", "x3")
        assert decode(word) == {"x1": 2, "x2": 0, "x3": 2}

    def test_all_zero(self):
        assert encode_gamma({"x": 0}).prefix == (BLANK, "x")

    def test_rejects_duplicate_parameter(self):
        with pytest.raises(WordError):
            decode.__wrapped__ if False else None
            from flatmc.alternating import ParameterWord
            ParameterWord((BLANK, "x", "x"))

    def test_rejects_leading_parameter(self):
        from flatmc.alternating import ParameterWord
        with pytest.raises(WordError):
            ParameterWord(("x", BLANK))

    def test_round_trip_random(self):
        rng = random.Random(64)
        for _ in range(100):
            names = [f"x{i}" for i in range(rng.randint(0, 3))]
            gamma = {x: rng.randint(0, 5) for x in names}
            padding = rng.randint(0, 3)
            assert decode(encode_gamma(gamma, order=names, padding=padding)) == gamma


class TestTranslation:
    def test_state_count_formula(self):
        rng = random.Random(99)
        for _ in range(50):
            m = random_machine(rng, max_states=5, max_params=2)
            target = rng.choice(sorted(m.states))
            automaton = machine_to_a2a(m, target).automaton
            expected = 3 * len(m.states) + 1 + 4 * len(m.params)
            assert len(automaton.states) == expected

    def test_size_is_quadratic_in_machine_size(self):
        rng = random.Random(98)
        for _ in range(50):
            m = random_machine(rng, max_states=5, max_params=2)
            target = rng.choice(sorted(m.states))
            automaton = machine_to_a2a(m, target).automaton
            assert a2a_size(automaton) <= 12 * machine_size(m) ** 2

    def test_dump_lists_every_transition(self):
        ta = machine_to_a2a(climb_and_test(), "q2")
        text = dump_a2a(ta.automaton)
        lines = text.strip().splitlines()
        assert lines[1] == "initial init:"
        assert len(lines) == 3 + len(ta.automaton.transitions)
        assert any(line.startswith("q2 # true") for line in lines)

    def test_dump_of_every_op_kind(self):
        assert dump_a2a(machine_to_a2a(every_op(), "c").automaton) == \
            EVERY_OP_DUMP

    def test_size_counts_conjunctions(self):
        # 18 states and 3 letters; 29 formulas of size 1, one three-move
        # conjunction adding 4 and three two-move conjunctions adding 2 each.
        automaton = machine_to_a2a(every_op(), "c").automaton
        assert a2a_size(automaton) == 18 + 3 + 29 + 4 + 3 * 2

    def test_zero_test_uses_first_position(self):
        m = CounterMachine.build([("q", "=0", "q2")], initial="q")
        ta = machine_to_a2a(m, "q2")
        assert any(t.test == FIRST for t in ta.automaton.transitions)

    @pytest.mark.parametrize("op", ["+2", "<c:3"])
    def test_rejects_large_updates_and_unfolded_constants(self, op):
        m = CounterMachine.build([("q", op, "q2")], initial="q",
                                 params=["x"])
        with pytest.raises(ClassMismatch):
            machine_to_a2a(m, "q2")


class TestMembership:
    def test_choice_is_a_choice_of_transition(self):
        # Two transitions on (q, blank): one spawns a branch that blocks,
        # the other accepts, and one accepting choice is enough.
        def automaton(*formulas):
            return A2A(states=frozenset({"q", "dead"}),
                       alphabet=frozenset({BLANK}), initial="q",
                       accepting=frozenset(),
                       transitions=tuple(A2ATransition("q", BLANK, f)
                                         for f in formulas))

        assert not membership(automaton((("dead", 0),)), [BLANK])
        assert membership(automaton((("dead", 0),), ()), [BLANK])

    def test_equality_at_zero(self):
        ta = machine_to_a2a(climb_and_test(), "q2")
        assert membership(ta.automaton, [BLANK, "x"])

    def test_equality_at_one(self):
        ta = machine_to_a2a(climb_and_test(), "q2")
        assert membership(ta.automaton, [BLANK, BLANK, "x"])

    def test_strict_greater_fails_at_zero(self):
        m = CounterMachine.build([("q", ">x:x", "q2")], initial="q", params=["x"])
        ta = machine_to_a2a(m, "q2")
        assert not membership(ta.automaton, [BLANK, "x"])

    def test_non_parameter_word_rejected(self):
        ta = machine_to_a2a(climb_and_test(), "q2")
        # x never occurs: the verifier branch cannot discharge.
        assert not membership(ta.automaton, [BLANK])
        # x occurs twice: the seen-branch blocks on the second occurrence.
        assert not membership(ta.automaton, [BLANK, "x", "x"])

    def test_translation_equivalence(self):
        rng = random.Random(2024)
        for _ in range(60):
            m = random_machine(rng, max_states=5, max_params=2)
            target = rng.choice(sorted(m.states))
            ta = machine_to_a2a(m, target)
            for gamma in all_gammas(m.params, 3):
                top = max(gamma.values(), default=0)
                word = encode_gamma(gamma, order=m.params, padding=4 - top)
                cap = word.prefix.count(BLANK) + 1
                got = membership(ta.automaton, word.prefix)
                expected = bounded_reach_oracle(m, gamma, target, cap) is not None
                assert got == expected


class TestRunTrees:
    def witness(self):
        machine = climb_and_test()
        run = bounded_reach_oracle(machine, {"x": 0}, "q2", 2)
        return machine_to_a2a(machine, "q2"), ReachWitness({"x": 0}, run)

    def test_constructed_tree_validates(self):
        ta, witness = self.witness()
        tree = construct_accepting_tree(ta, witness)
        word = encode_gamma(witness.gamma, order=ta.machine.params)
        assert validate_run_tree(ta.automaton, word, tree) is None

    def test_main_branch_shape(self):
        ta, witness = self.witness()
        tree = construct_accepting_tree(ta, witness)
        main = tree.children[0]
        assert (main.state, main.position) == ("q", 0)
        assert (main.children[0].state, main.children[0].position) == ("q2", 0)

    def test_bad_root_is_diagnosed(self):
        ta, witness = self.witness()
        tree = construct_accepting_tree(ta, witness)
        word = encode_gamma(witness.gamma, order=ta.machine.params)
        bad = TreeNode("q", 0, tree.transition, tree.children)
        defect = validate_run_tree(ta.automaton, word, bad)
        assert defect is not None and "root" in defect.reason

    def test_true_is_discharged_with_no_children(self):
        # Rooted at the target, the accepting transition alone is a run
        # tree; a childless node on a transition that spawns moves is not.
        ta, witness = self.witness()
        word = encode_gamma(witness.gamma, order=ta.machine.params)
        automaton = ta.automaton
        assert automaton.transitions[ta.accept_index].formula == ()
        at_target = A2A(automaton.states, automaton.alphabet, "q2",
                        automaton.accepting, automaton.transitions)
        assert validate_run_tree(
            at_target, word, TreeNode("q2", 0, ta.accept_index)) is None
        at_start = A2A(automaton.states, automaton.alphabet, "q",
                       automaton.accepting, automaton.transitions)
        defect = validate_run_tree(
            at_start, word, TreeNode("q", 0, ta.step_index[1]))
        assert defect is not None and "formula" in defect.reason

    def test_missing_conjunct_is_diagnosed(self):
        ta, witness = self.witness()
        tree = construct_accepting_tree(ta, witness)
        word = encode_gamma(witness.gamma, order=ta.machine.params)
        main = tree.children[0]
        # q on blank under =x is (& (q2 0) (present:x +1)); keep one move.
        assert len(ta.automaton.transitions[main.transition].formula) == 2
        for kept in main.children:
            cut = TreeNode(main.state, main.position, main.transition, (kept,))
            bad = TreeNode(tree.state, tree.position, tree.transition,
                           (cut, *tree.children[1:]))
            defect = validate_run_tree(ta.automaton, word, bad)
            assert defect is not None and defect.path == (0,)
            assert "formula" in defect.reason

    def test_first_test_away_from_zero_is_diagnosed(self):
        m = CounterMachine.build([("q", "+1", "q"), ("q", "=0", "q2")],
                                 initial="q")
        ta = machine_to_a2a(m, "q2")
        transitions = ta.automaton.transitions
        zero_test = next(i for i, t in enumerate(transitions) if t.test == FIRST)
        up = next(i for i, t in enumerate(transitions)
                  if t.state == "q" and t.test == BLANK)
        landing = next(i for i, t in enumerate(transitions)
                       if t.state == "right:q" and t.test == BLANK)
        word = encode_gamma({})
        leaf = TreeNode("q2", 1, ta.accept_index)
        bad = TreeNode("q", 1, zero_test, (leaf,))
        shuttle = TreeNode("right:q", 1, landing, (bad,))
        climb = TreeNode("q", 0, up, (shuttle,))
        tree = TreeNode("init:", 0, ta.init_index, (climb,))
        defect = validate_run_tree(ta.automaton, word, tree)
        assert defect is not None and "first" in defect.reason

    def test_extract_inverts_construct(self):
        ta, witness = self.witness()
        tree = construct_accepting_tree(ta, witness)
        word = encode_gamma(witness.gamma, order=ta.machine.params)
        back = extract_run(ta, tree, word)
        assert back.gamma == witness.gamma
        assert back.run.configs == witness.run.configs

    def test_greater_test_round_trip(self):
        # >x spawns a side branch that drifts right from the test position.
        m = CounterMachine.build(
            [("q", "+1", "q"), ("q", ">x:x", "r"), ("r", "<x:y", "t")],
            initial="q", params=["x", "y"])
        witness = parametric_reach(m, "t", 2)
        assert ParamTest(">", "x") in {m.transitions[i].op
                                       for i in witness.run.steps}
        ta = machine_to_a2a(m, "t")
        tree = construct_accepting_tree(ta, witness)
        word = encode_gamma(witness.gamma, order=m.params)
        assert validate_run_tree(ta.automaton, word, tree) is None
        assert extract_run(ta, tree, word) == witness

    def test_deep_tree_validates_without_recursion(self):
        # 1000 climbs before =x fires: the tree has one level per letter.
        m = CounterMachine.build([("a", "+1", "a"), ("a", "=x:x", "t")],
                                 initial="a", params=["x"])
        x = 1000
        run = Run(tuple(Config("a", v) for v in range(x + 1))
                  + (Config("t", x),), (0,) * x + (1,))
        witness = ReachWitness({"x": x}, run)
        ta = machine_to_a2a(m, "t")
        tree = construct_accepting_tree(ta, witness)
        word = encode_gamma(witness.gamma, order=m.params)
        assert validate_run_tree(ta.automaton, word, tree) is None
        assert extract_run(ta, tree, word) == witness

    def test_length_zero_witness(self):
        m = climb_and_test()
        ta = machine_to_a2a(m, "q")
        witness = ReachWitness({"x": 1}, Run((Config("q", 0),), ()))
        tree = construct_accepting_tree(ta, witness)
        word = encode_gamma({"x": 1}, order=["x"])
        assert validate_run_tree(ta.automaton, word, tree) is None
        back = extract_run(ta, tree, word)
        assert len(back.run) == 0

    def test_round_trip_on_solver_witnesses(self):
        rng = random.Random(4040)
        done = 0
        for _ in range(80):
            m = random_machine(rng, max_states=4, max_params=2)
            target = rng.choice(sorted(m.states))
            witness = parametric_reach(m, target, 2)
            if witness is None:
                continue
            done += 1
            ta = machine_to_a2a(m, target)
            tree = construct_accepting_tree(ta, witness)
            word = encode_gamma(witness.gamma, order=m.params)
            assert validate_run_tree(ta.automaton, word, tree) is None
            back = extract_run(ta, tree, word)
            assert back.gamma == witness.gamma
            assert [(c.state, c.value) for c in back.run.configs] == \
                [(c.state, c.value) for c in witness.run.configs]
        assert done >= 25
