"""Tests for freeze LTL: parsing, normal forms, the flat fragment, and the
lasso-word evaluator."""

from __future__ import annotations

import random
import time
from dataclasses import fields

import pytest

from flatmc.formulas import (
    And,
    FormulaError,
    FormulaSyntaxError,
    Freeze,
    LassoWord,
    Neg,
    Next,
    Or,
    Prop,
    RegTest,
    Release,
    Until,
    all_registers,
    evaluate,
    flat_violation,
    free_registers,
    globally,
    is_coflat,
    is_flat,
    is_sentence,
    nnf,
    parse,
    render,
    rename_registers,
    subformulas,
)
from tests.gen import random_formula, random_lasso
from tests.oracles import prefix_verdict

FINITE_VALUES = parse("F @r. G ([<r] | [=r])")
SERVED = parse("G @r.(req -> F(serve & [=r]))")


class TestParser:
    def test_example_formula_shape(self):
        # F @r. G(...): an until whose right side freezes r.
        assert isinstance(FINITE_VALUES, Until)
        assert isinstance(FINITE_VALUES.right, Freeze)

    def test_until_is_right_associative(self):
        f = parse("p U q U r")
        assert isinstance(f, Until) and isinstance(f.right, Until)
        assert f.left == Prop("p")

    def test_precedence_and_over_until(self):
        f = parse("p U q & r")
        assert isinstance(f, Until)
        assert f.right == And(Prop("q"), Prop("r"))

    def test_precedence_not_and_or(self):
        f = parse("!p & q | r")
        assert f == Or(And(Neg(Prop("p")), Prop("q")), Prop("r"))

    def test_implies_expands(self):
        assert parse("p -> q") == Or(Neg(Prop("p")), Prop("q"))

    def test_freeze_swallows_unary_chain(self):
        f = parse("@r. X [=r]")
        assert f == Freeze("r", Next(RegTest("=", "r")))

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse("p U (q &")
        assert info.value.position == len("p U (q &")
        with pytest.raises(FormulaSyntaxError) as info:
            parse("p # q")
        assert info.value.position == 2

    @pytest.mark.parametrize("text, message", [
        ("p &  ", "unexpected end of formula (at 5)"),
        ("p &\t\n", "unexpected end of formula (at 5)"),
        ("p & \n\t \r\n", "unexpected end of formula (at 9)"),
        ("p\xa0&\xa0", "unexpected end of formula (at 4)"),
        ("  \t\n", "unexpected end of formula (at 4)"),
        ("\xa0#", "unexpected character '#' (at 1)"),
        ("p &\xa0 #", "unexpected character '#' (at 5)"),
    ])
    def test_whitespace_before_an_error(self, text, message):
        # Any Unicode whitespace is skipped, U+00A0 too: the end of the
        # formula is the end of the text, and a bad character is named at
        # its own position, past the whitespace before it.
        with pytest.raises(FormulaSyntaxError) as info:
            parse(text)
        assert str(info.value) == message

    def test_a_long_chain_is_read_in_linear_time(self):
        # 520 KB of `p & p & ...`: reading it once sliced the rest of the
        # text at every token, which took 4.6 s. CPU time of this process,
        # so that the load of other processes does not count.
        text = " & ".join(["p"] * 130_000)
        started = time.process_time()
        with pytest.raises(FormulaError,
                           match="^formula nests deeper than 100 levels$"):
            parse(text)
        assert time.process_time() - started < 1.0

    def test_register_test_needs_relation(self):
        with pytest.raises(FormulaSyntaxError):
            parse("[r]")

    def test_a_text_read_again_gets_the_same_formula(self):
        text = "@r. X ([=r] U !p) & q"
        assert parse(text) is parse(text)
        assert parse(text) == parse(" " + text) == parse(text + " \t\n\xa0")

    def test_a_bad_text_fails_alike_on_every_call(self):
        # The cache keeps no error: each call raises its own, the same one.
        for text, position in (("p U (q &", 8), ("p # q", 2),
                               ("(" * 101 + "p" + ")" * 101, 101)):
            raised = []
            for _ in range(3):
                with pytest.raises(FormulaSyntaxError) as info:
                    parse(text)
                raised.append(info.value)
            assert [(str(e), e.position) for e in raised] == \
                [(str(raised[0]), position)] * 3
            assert len({id(e) for e in raised}) == 3

    def test_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(200):
            f = random_formula(rng)
            assert parse(render(f)) == f

    @pytest.mark.parametrize("family", [
        lambda k: "G " * k + "p",
        lambda k: "F " * k + "p",
        lambda k: "!(p U " * k + "q" + ")" * k,
        lambda k: "X !" * k + "p",
        lambda k: "(p & " * k + "q" + ")" * k,
        lambda k: "p & " * k + "q",
        lambda k: "p -> " * k + "q",
        lambda k: "@r. G " * k + "[=r]",
    ], ids=["globally", "finally", "negated-until", "next-not", "and-right",
            "and-chain", "implies", "freeze-globally"])
    def test_round_trip_up_to_the_depth_limit(self, family):
        # `render` adds parentheses and operator levels the parser counts,
        # so the depth limit counts them too: once `G ` * 33 + `p` was
        # accepted while its rendering was not.
        outcomes = set()
        for k in range(1, 121):
            try:
                f = parse(family(k))
            except FormulaError as err:
                assert "nests deeper than 100 levels" in str(err)
                outcomes.add("rejected")
                continue
            outcomes.add("accepted")
            assert parse(render(f)) == f
        assert outcomes == {"accepted", "rejected"}


    def test_render_is_iterative_and_linear(self):
        # Far deeper than the recursion limit, as the formulas that
        # `succinct_to_unary` writes are.
        k = 20_000
        tower, left, right = Prop("p"), Prop("p"), Prop("p")
        for _ in range(k):
            tower = Next(Neg(tower))
            left = And(left, RegTest("=", "r"))
            right = Or(Prop("q"), right)
        assert render(tower) == "X !" * k + "p"
        assert render(left) == "p" + " & [=r]" * k
        assert render(right) == "q | (" * (k - 1) + "q | p" + ")" * (k - 1)


class TestNnf:
    def test_until_duality(self):
        assert nnf(Neg(Until(Prop("p"), Prop("q")))) == \
            Release(Neg(Prop("p")), Neg(Prop("q")))

    def test_double_negation(self):
        assert nnf(Neg(Neg(Prop("p")))) == Prop("p")

    def test_regtest_split(self):
        assert nnf(Neg(RegTest("=", "r"))) == \
            Or(RegTest("<", "r"), RegTest(">", "r"))
        assert nnf(Neg(RegTest("<", "r"))) == \
            Or(RegTest("=", "r"), RegTest(">", "r"))
        assert nnf(Neg(RegTest(">", "r"))) == \
            Or(RegTest("=", "r"), RegTest("<", "r"))

    def test_negation_commutes_with_freeze(self):
        f = nnf(Neg(Freeze("r", Prop("p"))))
        assert f == Freeze("r", Neg(Prop("p")))

    def test_eval_equivalence_random(self):
        rng = random.Random(7)
        for _ in range(100):
            f = random_formula(rng, depth=3)
            w = random_lasso(rng)
            assert evaluate(w, 0, {}, f) == evaluate(w, 0, {}, nnf(f))


class TestFlat:
    def test_example_is_flat(self):
        assert is_flat(FINITE_VALUES)

    def test_request_served_is_not_flat(self):
        assert not is_flat(SERVED)
        offending, polarity = flat_violation(SERVED)
        assert isinstance(offending, Until)

    def test_negation_of_request_served_is_flat(self):
        assert is_flat(Neg(SERVED))
        assert is_coflat(SERVED)

    def test_register_free_formulas_are_flat(self):
        rng = random.Random(13)
        for _ in range(50):
            f = random_formula(rng, regs=())
            assert is_flat(f)

    def test_flatness_stable_under_nnf(self):
        rng = random.Random(17)
        for _ in range(200):
            f = random_formula(rng)
            assert is_flat(f) == is_flat(nnf(f))


class TestSentence:
    def test_example_is_sentence(self):
        assert is_sentence(FINITE_VALUES)

    def test_free_test_is_not(self):
        assert not is_sentence(parse("F [=r]"))
        assert free_registers(parse("F [=r]")) == frozenset(("r",))

    def test_shadowing(self):
        f = parse("@r. F @r. [=r]")
        assert is_sentence(f)


class TestRenameRegisters:
    def test_two_binders_get_distinct_names(self):
        f = nnf(parse("(F @r.[=r]) & (F @r.[=r])"))
        renamed = rename_registers(f)
        regs = all_registers(renamed)
        assert len(regs) == 2

    def test_single_binder_keeps_structure(self):
        f = nnf(parse("F @r. G [=r]"))
        renamed = rename_registers(f)
        assert render(renamed) == render(f).replace("r", "r_1").replace(
            "r_1eq", "req")

    def test_free_test_rejected(self):
        with pytest.raises(FormulaError):
            rename_registers(parse("F [=r]"))

    def test_eval_equivalent(self):
        rng = random.Random(23)
        for _ in range(100):
            f = nnf(random_formula(rng, depth=3))
            w = random_lasso(rng)
            assert evaluate(w, 0, {}, f) == evaluate(w, 0, {}, rename_registers(f))


class TestNodeHash:
    def test_equal_trees_built_separately_hash_equal(self):
        rng = random.Random(43)
        for _ in range(200):
            state = rng.getstate()
            f = random_formula(rng)
            rng.setstate(state)
            g = random_formula(rng)
            assert f is not g and f == g and hash(f) == hash(g)
            # The hash a frozen dataclass computes from the fields.
            assert hash(f) == hash(tuple(getattr(f, x.name) for x in fields(f)))

    def test_cached_hash_is_in_neither_repr_nor_equality(self):
        f = parse("@r. X ([=r] U !p)")
        assert [x.name for x in fields(f)] == ["reg", "body"]
        assert repr(f) == (
            "Freeze(reg='r', body=Next(body=Until(left=RegTest(rel='=', "
            "reg='r'), right=Neg(body=Prop(name='p')))))")
        # A tree of its own, outside parse's cache, which the wrong stored
        # hash below must not reach.
        g = parse.__wrapped__("@r. X ([=r] U !p)")
        assert g is not f
        object.__setattr__(g, "_hash", hash(f) + 1)
        assert f == g

    def test_evaluation_leaves_the_hash_alone(self):
        rng = random.Random(47)
        for _ in range(50):
            f = random_formula(rng, depth=3)
            before = {id(node): (hash(node), dict(vars(node)))
                      for node in subformulas(f)}
            evaluate(random_lasso(rng), 0, {}, f)
            assert before == {id(node): (hash(node), dict(vars(node)))
                              for node in subformulas(f)}


    def test_hash_is_computed_on_first_use(self):
        # A formula that is only built and rendered is never hashed. It is
        # built outside parse's cache, which another test may have hashed.
        f = parse.__wrapped__("@r. X ([=r] U !p) & q")
        assert not any("_hash" in vars(node) for node in subformulas(f))
        assert vars(f).get("_hash") is None
        value = hash(f)
        assert all("_hash" in vars(node) for node in subformulas(f))
        assert vars(f)["_hash"] == value

    def test_trees_deeper_than_the_recursion_limit_hash(self):
        def tower():
            f = Prop("p")
            for _ in range(20000):
                f = Next(Neg(f))
            return f

        f, g = tower(), tower()
        assert hash(f) == hash(g) == hash((f.body,))


class TestNodeEquality:
    @staticmethod
    def tower(leaf, top=Next):
        f = leaf
        for _ in range(20000):
            f = Next(Neg(f))
        return top(f)

    def test_trees_deeper_than_the_recursion_limit_compare(self):
        f, g = self.tower(Prop("p")), self.tower(Prop("p"))
        assert f is not g and f == g and not f != g
        # A different leaf, of the same class or of another.
        assert f != self.tower(Prop("q"))
        assert f != self.tower(RegTest("=", "r"))
        assert f != self.tower(Prop("p"), top=Neg)
        hash(f), hash(g)  # stored hashes do not change the answer
        assert f == g and f != self.tower(Prop("q"))

    def test_same_class_only(self):
        # As the dataclass's `==`: a node never equals a node of another
        # class with equal fields, nor a tuple of its fields.
        assert Next(Prop("p")) != Neg(Prop("p"))
        assert Prop("p") != ("p",)
        assert And(Prop("p"), Prop("q")) != Or(Prop("p"), Prop("q"))
        assert Prop("p").__eq__(Neg(Prop("p"))) is NotImplemented
        assert Freeze("r", Prop("p")) != Freeze("s", Prop("p"))
        assert RegTest("<", "r") != RegTest("=", "r")

    def test_agrees_with_the_field_tuples(self):
        rng = random.Random(53)
        pairs = []
        for i in range(300):
            state = rng.getstate()
            f = random_formula(rng, depth=3)
            if i % 2:  # the same draw again, built separately
                rng.setstate(state)
            pairs.append((f, random_formula(rng, depth=3)))
        for f, g in pairs:
            def fields_of(node):
                # The dataclass's comparison: the tuple of fields, operands
                # compared the same way.
                return (type(node).__name__,) + tuple(
                    fields_of(v) if hasattr(v, "__match_args__") else v
                    for v in (getattr(node, x.name) for x in fields(node)))
            assert (f == g) == (fields_of(f) == fields_of(g))
        assert 150 <= sum(f == g for f, g in pairs) < 300

class TestLassoWord:
    def test_rejects_empty_loop(self):
        with pytest.raises(FormulaError):
            LassoWord((), ())

    def test_positions_collapse_modulo_loop(self):
        w = LassoWord(((frozenset("p"), 1),),
                      ((frozenset(), 2), (frozenset("q"), 3)))
        assert w.at(1) == w.at(3) == w.at(5)

    def test_rejects_negative_gain(self):
        with pytest.raises(FormulaError):
            LassoWord((), ((frozenset(), 0),), -1)

    def test_gain_is_added_once_per_pass(self):
        w = LassoWord(((frozenset("p"), 1),),
                      ((frozenset(), 2), (frozenset("q"), 3)), 5)
        assert [w.at(i)[1] for i in range(7)] == [1, 2, 3, 7, 8, 12, 13]
        assert w.at(4) == (frozenset("q"), 8)


class TestEvaluate:
    def test_freeze_then_next(self):
        w = LassoWord((), ((frozenset(), 2),))
        assert evaluate(w, 0, {}, parse("@r. X [=r]"))

    def test_finitely_many_values(self):
        w = LassoWord(((frozenset(), 5),), ((frozenset(), 3),))
        assert evaluate(w, 0, {}, FINITE_VALUES)

    def test_diverging_values_fail_finiteness(self):
        # Not expressible exactly, but on lassos the formula is decided by
        # the loop: growing loop values are still finitely many.
        w = LassoWord((), ((frozenset(), 0), (frozenset(), 1)))
        assert evaluate(w, 0, {}, FINITE_VALUES)

    def test_unassigned_register(self):
        w = LassoWord((), ((frozenset(), 0),))
        with pytest.raises(FormulaError):
            evaluate(w, 0, {}, parse("[=r]"))

    def test_globally_on_loop(self):
        w = LassoWord(((frozenset("q"), 0),), ((frozenset("p"), 1),))
        assert evaluate(w, 1, {}, globally(Prop("p")))
        assert not evaluate(w, 0, {}, globally(Prop("p")))

    def test_until_duality_pointwise(self):
        rng = random.Random(29)
        for _ in range(150):
            a = random_formula(rng, depth=2)
            b = random_formula(rng, depth=2)
            w = random_lasso(rng)
            i = rng.randrange(w.span())
            assert evaluate(w, i, {}, Neg(Until(a, b))) == \
                evaluate(w, i, {}, Release(Neg(a), Neg(b)))
            assert evaluate(w, i, {}, Neg(Release(a, b))) == \
                evaluate(w, i, {}, Until(Neg(a), Neg(b)))

    def test_expansion_laws(self):
        rng = random.Random(31)
        for _ in range(150):
            a = random_formula(rng, depth=2)
            b = random_formula(rng, depth=2)
            w = random_lasso(rng)
            i = rng.randrange(w.span())
            until = Until(a, b)
            expanded = Or(b, And(a, Next(until)))
            assert evaluate(w, i, {}, until) == evaluate(w, i, {}, expanded)
            release = Release(a, b)
            expanded = And(b, Or(a, Next(release)))
            assert evaluate(w, i, {}, release) == evaluate(w, i, {}, expanded)

    def test_rotation_invariance(self):
        rng = random.Random(37)
        for _ in range(100):
            f = random_formula(rng, depth=3)
            w = random_lasso(rng)
            k = rng.randrange(len(w.loop))
            rotated = LassoWord(w.prefix + w.loop[:k], w.loop[k:] + w.loop[:k])
            for i in range(w.span()):
                assert evaluate(w, i, {}, f) == evaluate(rotated, i, {}, f)


class TestClimbingLoops:
    """Words whose loop rises by a gain on each pass, against the
    three-valued verdict of an explicit prefix of PASSES passes."""

    PASSES = 12

    def test_climbing_loop_examples(self):
        climb = LassoWord((), ((frozenset("p"), 0),), 1)
        assert evaluate(climb, 0, {}, parse("F @r. X [>r]"))
        assert not evaluate(climb, 0, {}, parse("F @r. G [=r]"))
        assert not evaluate(climb, 0, {}, FINITE_VALUES)
        assert evaluate(climb, 0, {}, parse("@r. G ([>r] | [=r])"))
        # Frozen at 5 in the prefix: met once, two passes in, then passed.
        late = LassoWord(((frozenset(), 5),), ((frozenset(), 1),
                                               (frozenset(), 2)), 2)
        assert evaluate(late, 0, {}, parse("@r. F [=r]"))
        assert evaluate(late, 0, {}, parse("@r. F G [>r]"))
        assert not evaluate(late, 0, {}, parse("@r. G F [=r]"))

    def test_far_register_takes_time_linear_in_its_distance(self):
        # r is frozen 3000 above a loop that climbs from 0, so G F [=r]
        # walks 3000 passes; each F walk must stop at the states an earlier
        # one memoized, or the check takes quadratic time.
        far = LassoWord(((frozenset(), 0), (frozenset(), 3000)),
                        ((frozenset(), 0),), 1)
        started = time.perf_counter()
        assert evaluate(far, 0, {}, parse("X @r. X F [=r]"))
        assert not evaluate(far, 0, {}, parse("X @r. X G F [=r]"))
        assert time.perf_counter() - started < 3

    def test_agrees_with_an_explicit_prefix(self):
        rng = random.Random(43)
        decided = 0
        for _ in range(1000):
            f = random_formula(rng, depth=3)
            w = random_lasso(rng)
            word = LassoWord(w.prefix, w.loop, rng.randint(0, 3))
            length = len(word.prefix) + self.PASSES * len(word.loop)
            entries = [word.at(i) for i in range(length)]
            for i in (0, rng.randrange(word.span() + len(word.loop))):
                expected = prefix_verdict(entries, i, f)
                if expected is not None:
                    decided += 1
                    assert evaluate(word, i, {}, f) == expected, \
                        (word, i, render(f))
        assert decided >= 1000
