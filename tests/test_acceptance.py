"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

from __future__ import annotations

import json
import random
import time

from flatmc.alternating import BLANK, encode_gamma, machine_to_a2a, membership
from flatmc.cli import main as cli_main
from flatmc.formulas import (
    And,
    Neg,
    Next,
    Or,
    Release,
    Until,
    evaluate,
    is_flat,
    nnf,
    parse,
)
from flatmc.jsonio import machine_to_data, witness_to_data
from flatmc.machines import (
    CounterMachine,
    bounded_reach_oracle,
    rep_reach_oracle,
    validate_lasso,
)
from flatmc.reach import interval_return, interval_run, parametric_reach
from flatmc.reductions import (
    bit_at,
    bits,
    buchi_to_reach,
    buchi_witness_to_lasso,
    model_check,
    succinct_to_unary,
)
from tests.gen import all_gammas, random_formula, random_lasso, random_machine, random_oca
from tests.oracles import interval_run_oracle, mc_oracle
from tests.test_reductions import drive_gadget, embedded_word, label_tokens, mutate_bit


def _verdict(number: int, name: str, failures: list, elapsed: float,
             budget: float) -> None:
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} "
          f"({elapsed:.1f}s, budget {budget:.0f}s, "
          f"{len(failures)} mismatches)")
    assert not failures, failures[:3]
    assert elapsed < budget, f"over budget: {elapsed:.1f}s"


def test_criterion_1_a2a_equivalence():
    """Translation to alternating automata agrees with brute-force
    reachability on 200 machines for every instantiation up to 3."""
    rng = random.Random(20250101)
    failures = []
    start = time.monotonic()
    for index in range(200):
        machine = random_machine(rng, max_states=5, max_params=2)
        target = rng.choice(sorted(machine.states))
        translated = machine_to_a2a(machine, target)
        for gamma in all_gammas(machine.params, 3):
            top = max(gamma.values(), default=0)
            word = encode_gamma(gamma, order=machine.params, padding=4 - top)
            cap = word.prefix.count(BLANK) + 1
            got = membership(translated.automaton, word.prefix)
            expected = bounded_reach_oracle(machine, gamma, target,
                                            cap) is not None
            if got != expected:
                failures.append((index, gamma, got, expected))
    _verdict(1, "A2A membership equals bounded reachability", failures,
             time.monotonic() - start, 60)


def test_criterion_2_interval_runs():
    """Interval-run checks agree with the exhaustive interval-run oracle on
    200 machines for all endpoint values up to 12."""
    rng = random.Random(20250202)
    failures = []
    start = time.monotonic()
    for index in range(200):
        machine = random_oca(rng, max_states=6)
        states = sorted(machine.states)
        for v in range(13):
            for v_end in range(13):
                for _ in range(2):
                    q, q_end = rng.choice(states), rng.choice(states)
                    run_got = interval_run(machine, q, q_end, v, v_end)
                    run_exp = interval_run_oracle(machine, q, q_end, v, v_end,
                                                  v_end)
                    ret_got = interval_return(machine, q, q_end, v, v_end)
                    ret_exp = interval_run_oracle(machine, q, q_end, v, v_end,
                                                  v)
                    if run_got != run_exp or ret_got != ret_exp:
                        failures.append((index, q, q_end, v, v_end))
    _verdict(2, "interval runs equal the enumeration oracle", failures,
             time.monotonic() - start, 60)


def test_criterion_3_reach_solver(tmp_path):
    """The level-decomposition solver agrees with per-instantiation search on
    200 machines with constants, and every positive verdict ships a witness
    the command-line checker accepts."""
    rng = random.Random(20250303)
    failures = []
    start = time.monotonic()
    machine_path = tmp_path / "machine.json"
    witness_path = tmp_path / "witness.json"
    bound = 4
    for index in range(200):
        machine = random_machine(rng, max_states=5, max_params=2,
                                 with_consts=True, max_const=3)
        target = rng.choice(sorted(machine.states))
        witness = parametric_reach(machine, target, bound)
        cap = bound + len(machine.states) ** 3
        expected = any(
            bounded_reach_oracle(machine, gamma, target, cap) is not None
            for gamma in all_gammas(machine.params, bound))
        if (witness is not None) != expected:
            failures.append((index, "verdict", witness is not None, expected))
            continue
        if witness is None:
            continue
        machine_path.write_text(json.dumps(machine_to_data(machine)))
        witness_path.write_text(json.dumps(
            witness_to_data(witness.gamma, witness.run)))
        if cli_main(["check", str(witness_path), str(machine_path)]) != 0:
            failures.append((index, "check rejected witness"))
    _verdict(3, "parametric reachability equals the oracle", failures,
             time.monotonic() - start, 120)


def test_criterion_4_buchi_reduction():
    """Repeated reachability via the reduction to reachability agrees with
    the lasso-search oracle on 100 machines."""
    rng = random.Random(20250404)
    failures = []
    start = time.monotonic()
    for index in range(100):
        machine = random_machine(rng, max_states=4, max_params=2)
        accept = rng.choice(sorted(machine.states))
        cap = 3 + len(machine.states) ** 3
        reduction = buchi_to_reach(machine, accept)
        witness = parametric_reach(
            reduction.machine, reduction.target, 3 + len(machine.states),
            ranges={x: (0, 3) for x in machine.params}, ceiling=cap)
        expected = any(
            rep_reach_oracle(machine, gamma, [accept], cap) is not None
            for gamma in all_gammas(machine.params, 3))
        if (witness is not None) != expected:
            failures.append((index, witness is not None, expected))
            continue
        if witness is not None:
            gamma, lasso = buchi_witness_to_lasso(reduction, witness)
            if validate_lasso(machine, gamma, lasso) is not None:
                failures.append((index, "lasso does not validate"))
    _verdict(4, "repeated reachability reduction is exact", failures,
             time.monotonic() - start, 120)


def test_criterion_5_counting_gadgets():
    """The unary expansion of a binary update emits the least-significant-
    bit-first counting sequence, satisfies its correctness formula, and every
    seeded single-token mutation falsifies it."""
    rng = random.Random(20250505)
    failures = []
    start = time.monotonic()
    machine6 = CounterMachine.build([("q", "+6", "q2")], initial="q")
    reduction6 = succinct_to_unary(machine6, nnf(parse("true")))
    tokens = label_tokens(reduction6, drive_gadget(reduction6, 0))
    reference = ["#6", "100", "#6", "010", "#6", "110",
                 "#6", "001", "#6", "101", "#6", "011", "#6"]
    if tokens != reference:
        failures.append(("z=6 sequence", tokens))
    mutations_left = 50
    for z in range(2, 10):
        machine = CounterMachine.build([("q", f"+{z}", "q2")], initial="q")
        reduction = succinct_to_unary(machine, nnf(parse("true")))
        run = drive_gadget(reduction, 0)
        tokens = label_tokens(reduction, run)
        blocks = [t for t in tokens if not t.startswith("#")]
        expected_blocks = [
            "".join(str(bit_at(k, i)) for i in range(1, bits(z) + 1))
            for k in range(1, z + 1)]
        if blocks != expected_blocks or len(tokens) != 2 * z + 1:
            failures.append((z, "blocks", blocks))
            continue
        counter = reduction.formula.right
        word = embedded_word(reduction, run)
        if not evaluate(word, 0, {}, counter):
            failures.append((z, "counter not satisfied"))
            continue
        for _ in range(7 if mutations_left > 8 else mutations_left):
            mutations_left -= 1
            if evaluate(mutate_bit(rng, word), 0, {}, counter):
                failures.append((z, "mutation not falsified"))
    _verdict(5, "binary counting gadget artifacts", failures,
             time.monotonic() - start, 30)


MC_SUITE = [
    # The three derived pipeline examples.
    ("G p", [("q", "+1", "q")], {"q": ["p"]}, "q", True),
    ("F @r. G([<r] | [=r])", [("q", "+1", "q")], {}, "q", False),
    ("F @r. G [=r]", [("q", "0", "q")], {}, "q", True),
    # The finitely-many-values example formula, satisfied on an oscillator.
    ("F @r. G([<r] | [=r])", [("a", "+1", "b"), ("b", "-1", "a")], {}, "a",
     True),
    # The negation of the request/serve example formula (the flat reading):
    # some request is never served with the frozen ticket.
    ("!G @r.(req -> F(serve & [=r]))",
     [("a", "+1", "b"), ("b", "0", "b")],
     {"a": ["req"], "b": ["serve"]}, "a", True),
    ("!G @r.(req -> F(serve & [=r]))",
     [("a", "0", "b"), ("b", "0", "a")],
     {"a": ["req"], "b": ["serve"]}, "a", False),
    ("G F p", [("a", "0", "b"), ("b", "0", "a")], {"a": ["p"]}, "a", True),
    ("F G p", [("a", "0", "b"), ("b", "0", "a")], {"a": ["p"]}, "a", False),
    ("p U q", [("a", "0", "b"), ("b", "0", "b")],
     {"a": ["p"], "b": ["q"]}, "a", True),
    ("X X p", [("a", "+1", "a")], {"a": ["p"]}, "a", True),
    ("F @r. X [>r]", [("a", "+1", "b"), ("b", "-1", "a")], {}, "a", True),
    ("@r. G F [=r]", [("a", "+1", "b"), ("b", "-1", "a")], {}, "a", True),
    ("F G p", [("q", "=0", "q2"), ("q2", "+1", "q2")], {"q2": ["p"]}, "q",
     True),
    # A machine with a binary update runs through the full unary expansion.
    ("G p", [("q", "+2", "q")], {"q": ["p"]}, "q", True),
]


def test_criterion_6_model_checking(tmp_path):
    """End-to-end model checking on handcrafted pairs: verdicts match direct
    lasso enumeration, and every positive verdict self-certifies through the
    command-line checker."""
    failures = []
    start = time.monotonic()
    machine_path = tmp_path / "machine.json"
    witness_path = tmp_path / "witness.json"
    for text, transitions, labels, initial, known in MC_SUITE:
        phi = parse(text)
        machine = CounterMachine.build(transitions, initial=initial,
                                       labels=labels)
        witness = model_check(machine, phi, 3)
        expected = mc_oracle(machine, phi, max_positions=12)
        if (witness is not None) != expected or expected != known:
            failures.append((text, witness is not None, expected, known))
            continue
        if witness is None:
            continue
        machine_path.write_text(json.dumps(machine_to_data(machine)))
        # As `flatmc mc` writes it: the machine has no parameters.
        witness_path.write_text(json.dumps(witness_to_data(
            {}, witness.lasso)))
        code = cli_main(["check", str(witness_path), str(machine_path), text])
        if code != 0:
            failures.append((text, "check rejected witness"))
    _verdict(6, "end-to-end model checking", failures,
             time.monotonic() - start, 120)


def test_criterion_7_semantics():
    """Dualities, expansion laws, normal-form equivalence, and flatness
    stability over 500 seeded random formula/lasso pairs."""
    rng = random.Random(20250707)
    failures = []
    start = time.monotonic()
    for index in range(500):
        left = random_formula(rng, depth=2)
        right = random_formula(rng, depth=2)
        word = random_lasso(rng)
        position = rng.randrange(word.span())

        def sat(f, i=position):
            return evaluate(word, i, {}, f)

        checks = {
            "until duality": sat(Neg(Until(left, right)))
                             == sat(Release(Neg(left), Neg(right))),
            "release duality": sat(Neg(Release(left, right)))
                               == sat(Until(Neg(left), Neg(right))),
            "until expansion": sat(Until(left, right))
                               == sat(Or(right,
                                         And(left, Next(Until(left, right))))),
            "release expansion": sat(Release(left, right))
                                 == sat(And(right,
                                            Or(left,
                                               Next(Release(left, right))))),
            "nnf equivalence": sat(left, 0) == evaluate(word, 0, {}, nnf(left)),
            "flatness stability": is_flat(left) == is_flat(nnf(left)),
        }
        for name, ok in checks.items():
            if not ok:
                failures.append((index, name))
    _verdict(7, "freeze LTL semantics properties", failures,
             time.monotonic() - start, 60)
