"""Independent reference implementations used only to cross-check solvers.

These deliberately share no search code with the library beyond the one-step
successor relation: they enumerate step-bounded run sets directly.
"""

from __future__ import annotations

from typing import Optional

from flatmc.machines import Config, CounterMachine, bounded_reach_oracle, successors


def interval_run_oracle(machine: CounterMachine, source: str, target: str,
                        v_start: int, v_end: int, end_value: int) -> bool:
    """Level-by-level enumeration of all runs from (source, v_start) to
    (target, end_value) whose intermediate values lie strictly between
    v_start and v_end, up to length (width + 2) * |Q|^2."""
    lo, hi = min(v_start, v_end), max(v_start, v_end)
    limit = (hi - lo + 2) * len(machine.states) ** 2
    goal = Config(target, end_value)
    if Config(source, v_start) == goal:
        return True
    frontier = {Config(source, v_start)}
    for _ in range(limit):
        nxt = set()
        for conf in frontier:
            for _step, there in successors(machine, {}, conf):
                if there == goal:
                    return True
                if lo < there.value < hi:
                    nxt.add(there)
        frontier = nxt
        if not frontier:
            return False
    return False


def gamma_reach_oracle(machine: CounterMachine, target: str, cap: int,
                       gammas) -> bool:
    """Exists-gamma reachability, by direct BFS per instantiation."""
    return any(
        bounded_reach_oracle(machine, gamma, target, cap) is not None
        for gamma in gammas)


def mc_oracle(machine: CounterMachine, phi, max_positions: int = 12,
              max_value: Optional[int] = None) -> bool:
    """Existential model checking by enumerating every lasso run of the
    (parameterless) machine with at most max_positions configurations, and
    with counter values at most max_value if given, and evaluating the
    sentence on its data word.

    Exact-repeat loops are decided exactly. Value-gaining loops must consist
    of updates only (otherwise they do not denote an infinite run); their
    words are checked only when the formula never tests a register, since the
    proposition sequence is then exactly periodic.
    """
    from flatmc.formulas import LassoWord, RegTest, evaluate, subformulas
    from flatmc.machines import Update

    register_free = not any(isinstance(f, RegTest) for f in subformulas(phi))
    labels = machine.labels

    def word_of(configs, loop_start):
        entries = [(labels[c.state], c.value) for c in configs[:-1]]
        return LassoWord(tuple(entries[:loop_start]),
                         tuple(entries[loop_start:]))

    def dfs(configs, steps) -> bool:
        last = configs[-1]
        for i in range(len(configs) - 1):
            at = configs[i]
            if at.state != last.state or last.value < at.value:
                continue
            if last.value > at.value:
                if not all(isinstance(machine.transitions[s].op, Update)
                           for s in steps[i:]):
                    continue
                if not register_free:
                    continue
            if evaluate(word_of(configs, i), 0, {}, phi):
                return True
        if len(configs) >= max_positions:
            return False
        for s, conf in successors(machine, {}, last):
            if max_value is not None and conf.value > max_value:
                continue
            if dfs(configs + [conf], steps + [s]):
                return True
        return False

    return dfs([Config(machine.initial, 0)], [])


def prefix_verdict(entries, position: int, phi) -> Optional[bool]:
    """Satisfaction of the sentence `phi` at `position` of every infinite
    data word that begins with the (proposition set, value) pairs `entries`:
    True or False if each such word agrees, None if the prefix cannot tell.
    Kleene's three-valued logic, with every position past the prefix
    unknown; until and release unfold backwards from the end."""
    from flatmc.formulas import (And, Freeze, Neg, Next, Or, Prop, RegTest,
                                 Until)

    def neg(a):
        return None if a is None else not a

    def conj(a, b):
        if a is False or b is False:
            return False
        return None if a is None or b is None else True

    def disj(a, b):
        return neg(conj(neg(a), neg(b)))

    memo: dict = {}  # keyed by id: hashing a formula walks all of it

    def sat(f, i: int, nu: tuple):
        if i >= len(entries):
            return None
        key = (id(f), i, nu)
        if key not in memo:
            memo[key] = at(f, i, nu)
        return memo[key]

    def at(f, i: int, nu: tuple):
        props, value = entries[i]
        if isinstance(f, Prop):
            return f.name in props
        if isinstance(f, RegTest):
            stored = dict(nu)[f.reg]
            return {"<": value < stored, "=": value == stored,
                    ">": value > stored}[f.rel]
        if isinstance(f, Neg):
            return neg(sat(f.body, i, nu))
        if isinstance(f, And):
            return conj(sat(f.left, i, nu), sat(f.right, i, nu))
        if isinstance(f, Or):
            return disj(sat(f.left, i, nu), sat(f.right, i, nu))
        if isinstance(f, Next):
            return sat(f.body, i + 1, nu)
        if isinstance(f, Freeze):
            bound = tuple(sorted({**dict(nu), f.reg: value}.items()))
            return sat(f.body, i, bound)
        result = None  # the unknown rest of the word
        for j in range(len(entries) - 1, i - 1, -1):
            if (id(f), j, nu) in memo:
                result = memo[id(f), j, nu]
                continue
            left, right = sat(f.left, j, nu), sat(f.right, j, nu)
            if isinstance(f, Until):
                result = disj(right, conj(left, result))
            else:
                result = conj(right, disj(left, result))
            memo[id(f), j, nu] = result
        return result

    return sat(phi, position, ())
