"""Seeded random generators for machines, formulas, and instantiations.

Every randomized suite draws from these so that a single seed reproduces a
full test run.
"""

from __future__ import annotations

import itertools
import random

from flatmc.machines import CounterMachine

PROPS = ("p", "q", "r")


def _pick_states(rng: random.Random, max_states: int) -> list[str]:
    n = rng.randint(1, max_states)
    return [f"s{i}" for i in range(n)]


def _op_pool(params: list[str], max_const: int, with_consts: bool,
             max_update: int = 1) -> list[str]:
    ops = ["+1", "+1", "-1", "-1", "0", "=0"]
    for k in range(2, max_update + 1):
        ops.extend([f"+{k}", f"-{k}"])
    for x in params:
        ops.extend([f"=x:{x}", f"<x:{x}", f">x:{x}"])
    if with_consts:
        for c in range(1, max_const + 1):
            ops.extend([f"=c:{c}", f"<c:{c}", f">c:{c}"])
    return ops


def random_machine(rng: random.Random, max_states: int = 5, max_params: int = 2,
                   with_consts: bool = False, max_const: int = 3,
                   with_labels: bool = False,
                   density: float = 2.0, max_update: int = 1) -> CounterMachine:
    """A random machine: an OCA when max_params is 0, an OCA(P) by default,
    and an OCA(P,C)-class machine when constants are enabled. Updates are
    unary unless `max_update` allows binary-encoded ones up to that size;
    the default leaves the random stream as it was."""
    states = _pick_states(rng, max_states)
    params = [f"x{i}" for i in range(rng.randint(0, max_params))]
    pool = _op_pool(params, max_const, with_consts, max_update)
    n_transitions = rng.randint(1, max(1, int(len(states) * density)))
    transitions = [
        (rng.choice(states), rng.choice(pool), rng.choice(states))
        for _ in range(n_transitions)
    ]
    labels = None
    if with_labels:
        labels = {q: [p for p in PROPS if rng.random() < 0.4] for q in states}
    return CounterMachine.build(transitions, initial=states[0], params=params,
                                labels=labels, extra_states=states)


def random_oca(rng: random.Random, max_states: int = 6,
               density: float = 2.0) -> CounterMachine:
    return random_machine(rng, max_states=max_states, max_params=0,
                          density=density)


def all_gammas(params, bound: int):
    """Every instantiation of `params` with values in 0..bound, in the
    documented enumeration order: smallest maximum first, then by sorted value
    tuple, then positionally."""
    names = list(params)
    tuples = sorted(
        itertools.product(range(bound + 1), repeat=len(names)),
        key=lambda vs: (max(vs, default=0), tuple(sorted(vs)), vs))
    for vs in tuples:
        yield dict(zip(names, vs))


def random_formula(rng: random.Random, depth: int = 4, props=PROPS,
                   regs=("r", "s")) -> "formulas.Formula":
    """A random freeze LTL sentence: register tests only appear under a
    freeze quantifier for their register."""
    from flatmc import formulas

    def atom(bound):
        kind = rng.random()
        if bound and kind < 0.45:
            return formulas.RegTest(rng.choice("<=>"), rng.choice(sorted(bound)))
        if kind < 0.9:
            return formulas.Prop(rng.choice(props))
        return (formulas.true_formula() if rng.random() < 0.5
                else formulas.false_formula())

    def go(d, bound):
        if d == 0:
            return atom(bound)
        roll = rng.randrange(10)
        if roll == 0:
            return atom(bound)
        if roll == 1:
            return formulas.Neg(go(d - 1, bound))
        if roll == 2:
            return formulas.And(go(d - 1, bound), go(d - 1, bound))
        if roll == 3:
            return formulas.Or(go(d - 1, bound), go(d - 1, bound))
        if roll == 4:
            return formulas.Next(go(d - 1, bound))
        if roll == 5:
            return formulas.Until(go(d - 1, bound), go(d - 1, bound))
        if roll == 6:
            return formulas.Release(go(d - 1, bound), go(d - 1, bound))
        if roll == 7:
            return formulas.finally_(go(d - 1, bound))
        if roll == 8 or not regs:
            return formulas.globally(go(d - 1, bound))
        reg = rng.choice(regs)
        return formulas.Freeze(reg, go(d - 1, bound | {reg}))

    return go(depth, frozenset())


def random_lasso(rng: random.Random, props=PROPS, max_prefix: int = 4,
                 max_loop: int = 4, max_value: int = 5) -> "formulas.LassoWord":
    from flatmc import formulas

    def entry():
        return (frozenset(p for p in props if rng.random() < 0.4),
                rng.randint(0, max_value))

    prefix = tuple(entry() for _ in range(rng.randint(0, max_prefix)))
    loop = tuple(entry() for _ in range(rng.randint(1, max_loop)))
    return formulas.LassoWord(prefix, loop)
