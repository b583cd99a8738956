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
