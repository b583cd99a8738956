"""Reductions chaining model checking down to parameterized reachability.

Repeated reachability reduces to plain reachability by storing a revisited
counter value in a fresh parameter (or, for runs whose counter diverges,
jumping to a state from which the test-stripped machine loops forever);
`repeated_reach` runs that reduction over a set of accepting states and is
the one repeated-reachability entry point, used by `model_check` and by the
command line. One reduction serves every accepting state on a cycle of the
control graph, the only ones that can repeat, so one search decides them
all: each such state f gets its own store state and its own copy, of SCC(f)
alone, f's strongly connected component in the control graph, since a
closed walk through f never leaves it; all share one test chain. A run to
the target enters one copy and never leaves it, so under each instantiation
the target is reachable iff it is for some one state, and the first witness
is the first instantiation under which some state repeats, with that state
at its loop start.
The test-stripped machine is a one-dimensional vector addition system with
states, so the states that loop forever through an accepting state f are
found on its control graph, with no counter cap: f needs an entry value,
the least one from which a non-empty closed walk through f ends no lower
than it started, and it is at most |SCC(f)| - 1; the states that loop are
those from which counter value 0 reaches f with at least that value. Both
are least-credit fixpoints over the graph, and the loop witness is a search
for a path to f with at least that value and one back with no less, which
needs no counter cap either, so no setting bounds the divergence case.
Model checking a flat sentence reduces to repeated reachability of a tableau
product whose registers become parameters; `repeated_reach` expands its
binary-encoded updates. The paper's polynomial reduction of those updates,
`succinct_to_unary`, is only emitted, not solved: each large update becomes
a gadget that emits a binary counting sequence, with the specification
rewritten to ignore the inserted positions and to enforce the counting.

Each construction keeps enough provenance to translate a witness of the
reduced problem back into a self-certifying witness of the original one.
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from flatmc.formulas import (
    And,
    Formula,
    FormulaError,
    Freeze,
    LassoWord,
    Neg,
    Next,
    Or,
    Prop,
    RegTest,
    Release,
    Until,
    evaluate,
    flat_violation,
    globally,
    is_sentence,
    nnf,
    render,
    rename_registers,
    subformulas,
    true_formula,
)
from flatmc.machines import (
    ClassMismatch,
    Config,
    ConstTest,
    CounterMachine,
    LassoRun,
    MachineClass,
    MachineError,
    ParamTest,
    Transition,
    Update,
    classify,
    fresh_name,
    validate_lasso,
)
from flatmc.reach import (
    ReachWitness,
    StrippedMachine,
    _constants,
    _param_tests,
    _project,
    _strip,
    expand_updates,
    headroom,
    parametric_reach,
    plain_rep_lasso,
)


# ---------------------------------------------------------------------------
# Repeated reachability to reachability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuchiInstance:
    machine: CounterMachine
    accepting: frozenset[str]


@dataclass(frozen=True)
class DivergenceContext:
    """The test-free divergence machine of a machine, each state's incoming
    edges there with their counter effects, and, in `component`, each
    state's strongly connected component (SCC) in the source's own control
    graph, tests included, or the empty set if it has no cycle. Built once
    per machine, by `divergence_context` alone, and read by every divergence
    question. The divergence machine keeps a subset of the source's
    transitions, between the same states, so a state's SCC there lies inside
    its SCC in the source: one SCC pass serves the cycle filter, the copies
    of `buchi_to_reach` and `need`.

    A run from (q, 0) can visit f infinitely often iff (q, 0) reaches f with
    a value at least `need(f)`, the least entry value of a non-empty closed
    walk through f with effect >= 0. Both are decided on the control graph
    by least-credit fixpoints (`_credits`), with no cap on counter values;
    `plain_rep_lasso` reads `need(f)` and the incoming edges here and
    rebuilds a loop witness without one either."""
    machine: StrippedMachine
    component: Mapping[str, frozenset[str]]  # state -> its cyclic SCC, or {}
    incoming: Mapping[str, tuple[tuple[str, int], ...]]  # (source, effect)

    def _credits(self, goal: str, value: int,
                 scc: Optional[frozenset[str]] = None) -> dict[str, int]:
        """For each state that can reach `goal`, the least counter value
        from which it reaches `goal` with a value >= `value`: the least
        fixpoint of credit(p) = min over edges p -d-> r of
        max(0, credit(r) - d), starting from credit(goal) = value. Run as a
        worklist over predecessors; with `scc`, confined to that SCC."""
        credit = {goal: value}
        work = deque([goal])
        queued = {goal}
        while work:
            here = work.popleft()
            queued.discard(here)
            for back, delta in self.incoming[here]:
                if scc is not None and back not in scc:
                    continue
                lowered = max(0, credit[here] - delta)
                if lowered < credit.get(back, lowered + 1):
                    credit[back] = lowered
                    if back not in queued:
                        queued.add(back)
                        work.append(back)
        return credit

    def need(self, accept_state: str) -> Optional[int]:
        """The least entry value of a non-empty closed walk through
        `accept_state` with effect >= 0, or None if there is none.

        Such a walk stays inside the state's SCC S in the divergence
        machine, and the value is at most |S| - 1 when it exists. If S has a
        simple cycle of positive effect, a shortest path to it and its turns
        need at most that, and enough turns pay for the way back. Otherwise
        every closed walk has effect <= 0, so the walk splits into simple
        cycles of effect 0, one of them through the state. S lies inside the
        state's source SCC S', and every walk the credits are read on stays
        inside S, so they are confined to S'; and a walk that closes from
        one value closes from every higher one, so the search checks
        |S'| - 1 first, then counts up from 0."""
        scc = self.component[accept_state]
        if not scc:
            return None
        top = len(scc) - 1

        def closes(value: int) -> bool:
            credit = self._credits(accept_state, value, scc)
            return any(t.target in credit
                       and max(0, credit[t.target] - t.op.delta) <= value
                       for _i, t in self.machine.outgoing(accept_state))

        if not closes(top):
            return None
        return next((v for v in range(top) if closes(v)), top)

    def loop_entries(self, accept_state: str) -> frozenset[str]:
        """The states q such that some run from (q, 0) visits
        `accept_state` infinitely often."""
        need = self.need(accept_state)
        if need is None:
            return frozenset()
        credit = self._credits(accept_state, need)
        return frozenset(q for q, c in credit.items() if c == 0)


@dataclass(frozen=True)
class BuchiReduction:
    """The reachability instance equivalent to repeating some state of
    `accepting`, plus the provenance to translate a reachability witness
    back into a lasso. A run stores y at its first `=y` step, taken at the
    accepting state it serves; the chain is entered from the loop entries."""
    machine: CounterMachine
    target: str
    source: CounterMachine
    accepting: tuple[str, ...]      # sorted, each on a control cycle
    y: str
    origin: Mapping[int, int]       # new machine transition -> source transition
    entries: Mapping[str, frozenset[str]]  # f -> the loop entries of f
    context: DivergenceContext


def divergence_context(machine: CounterMachine) -> DivergenceContext:
    """Build the divergence analysis of `machine` from the machine alone:
    its control components, and its tests stripped for the interval above
    every parameter and constant, where exactly the greater-than tests hold,
    with the control graph indexed by incoming edge. Each accept state is
    then analyzed on that graph, within its SCC in `machine`, in time
    polynomial in its size and free of any counter cap (see
    `DivergenceContext`)."""
    component = _control_components(machine)
    stripped = _strip(machine, tuple(rel == ">" for _x, rel
                                     in _param_tests(machine)))
    incoming: dict[str, list] = {q: [] for q in stripped.states}
    for q in sorted(stripped.states):
        for _i, t in stripped.outgoing(q):
            incoming[t.target].append((q, t.op.delta))
    return DivergenceContext(
        machine=stripped, component=component,
        incoming={q: tuple(edges) for q, edges in incoming.items()})


def _control_components(machine: CounterMachine
                        ) -> dict[str, frozenset[str]]:
    """Iterative Tarjan: each state of `machine` mapped to its strongly
    connected component in the control graph, tests included, if that
    component holds a cycle, and to the empty set otherwise. The states
    mapped to a non-empty set are those that can repeat."""
    forward = {q: [t.target for _i, t in machine.outgoing(q)]
               for q in machine.states}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    component: dict[str, frozenset[str]] = {}
    counter = 0
    for root in forward:
        if root in index:
            continue
        work = [(root, iter(forward[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(forward[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                members = [stack.pop()]
                while members[-1] != node:
                    members.append(stack.pop())
                on_stack.difference_update(members)
                cyclic = len(members) > 1 or node in forward[node]
                scc = frozenset(members) if cyclic else frozenset()
                component.update(dict.fromkeys(members, scc))
    return component


def _require_accepting(machine: CounterMachine, accepting) -> None:
    for f in sorted(set(accepting)):
        if f not in machine.states:
            raise MachineError(f"accepting state {f!r} not in machine")


def buchi_to_reach(machine: CounterMachine, *accepting: str,
                   context: Optional[DivergenceContext] = None) -> BuchiReduction:
    """Build a machine with a distinguished target state that is reachable
    under an instantiation of the parameters iff some state of `accepting`
    can be visited infinitely often in `machine` under it.

    Only the accepting states on a cycle of the control graph can repeat;
    the others are dropped, and get no store, copy or `=y` test. A fresh
    parameter y stores a counter value at a visit of a kept state f, in a
    store state of f's own; from there a copy of SCC(f), f's strongly
    connected component in the control graph of `machine`, has to revisit
    the copy of f with the same value. A closed walk through f stays inside
    SCC(f), so the smaller copy loses no loop. For runs whose counter
    diverges, a chain of strict tests, `>x` per parameter and then `>c` per
    constant in increasing order, lets the target be entered from the loop
    entries of each kept state, the states that can loop forever through it
    once all tests are dropped; with neither the chain is empty and such a
    state steps straight into the target. `context` is the divergence
    analysis of `machine`, built here if not given.

    The source's own transitions come first, as the same objects. Then, for
    each kept state in sorted order, its store transition, the store
    state's copies of its transitions into the copy, the copy, and the
    final `=y` test into the target; then the one chain, entered from the
    loop entries of every kept state. A run into a copy never leaves it, so
    a run to the target is a run of the reduction of exactly one kept
    state, and under each instantiation the target is reachable iff it is
    in the reduction of some one state: one search decides all of them, and
    its first witness is the first instantiation under which some state
    repeats.
    """
    if classify(machine) not in (MachineClass.OCA, MachineClass.OCA_P,
                                 MachineClass.OCA_PC):
        raise ClassMismatch("buchi_to_reach requires unary updates")
    _require_accepting(machine, accepting)
    if context is None:
        context = divergence_context(machine)
    accepting = tuple(sorted({f for f in accepting if context.component[f]}))

    taken = set(machine.states)
    hats = {f: {q: fresh_name(f"{q}_hat", taken)
                for q in sorted(context.component[f])}
            for f in accepting}
    store_states = {f: fresh_name("s", taken) for f in accepting}
    target = fresh_name("s_hat", taken)
    params = machine.params
    guards = ([ParamTest(">", x) for x in params]
              + [ConstTest(">", c) for c in _constants(machine)])
    chain = [fresh_name(f"t{i}", taken)
             for i in range(1, len(guards) + 1)] + [target]
    y = fresh_name("y", set(params))

    transitions = list(machine.transitions)
    origin = {i: i for i in range(len(transitions))}
    for f in accepting:
        hat, store = hats[f], store_states[f]
        transitions.append(Transition(f, ParamTest("=", y), store))
        for i, t in enumerate(machine.transitions):
            if t.source == f and t.target in hat:
                origin[len(transitions)] = i
                transitions.append(Transition(store, t.op, hat[t.target]))
        for i, t in enumerate(machine.transitions):
            if t.source in hat and t.target in hat:
                origin[len(transitions)] = i
                transitions.append(
                    Transition(hat[t.source], t.op, hat[t.target]))
        transitions.append(Transition(hat[f], ParamTest("=", y), target))
    entries = {f: context.loop_entries(f) for f in accepting}
    transitions.extend(Transition(q, Update(0), chain[0])
                       for q in sorted(set().union(*entries.values())))
    transitions.extend(Transition(chain[i], guard, chain[i + 1])
                       for i, guard in enumerate(guards))

    built = CounterMachine(
        states=machine.states.union(*(hat.values() for hat in hats.values()),
                                    store_states.values(), chain),
        initial=machine.initial, params=params + (y,),
        transitions=tuple(transitions), labels=machine.labels)
    return BuchiReduction(machine=built, target=target, source=machine,
                          accepting=accepting, y=y, origin=origin,
                          entries=entries, context=context)


def buchi_witness_to_lasso(reduction: BuchiReduction,
                           witness: ReachWitness) -> tuple[dict, LassoRun]:
    """Translate a reachability witness for the reduced machine into an
    instantiation of the source parameters and a lasso of the source machine
    whose loop starts at an accepting state: the one at the run's store
    step, its first `=y` test, or, in the divergence case, the least one
    whose recorded loop entries contain the chain entry.

    In the divergence case the loop comes from `plain_rep_lasso` on the
    reduction's divergence analysis, which reads that state's `need` once:
    the chain entry is one of its loop entries, so the search finds a loop
    from it with no counter cap."""
    source = reduction.source
    run = witness.run
    gamma = {x: v for x, v in witness.gamma.items() if x in source.params}
    if not run.steps:
        raise MachineError("a run reaching the fresh target cannot be empty")
    ops = [reduction.machine.transitions[step].op for step in run.steps]
    if ops[-1] == ParamTest("=", reduction.y):
        # Same-value case: the run stored a counter value at an accepting
        # state, in its first `=y` step, and revisited it in that state's
        # copy. The store and the final test vanish in the source; the loop
        # starts where the value was stored.
        stored = ops.index(ParamTest("=", reduction.y))
        accept_state = run.configs[stored].state
        lasso = _project(LassoRun(run.configs, run.steps, stored),
                         reduction.origin, source)
    else:
        # Divergence case: the run takes source transitions, which come
        # first, up to its free step into the test chain; splice in a loop
        # of the test-free machine, shifted up to the chain entry value.
        cut = next(pos for pos, step in enumerate(run.steps)
                   if step >= len(source.transitions))
        anchor = run.configs[cut]
        accept_state = next(f for f in reduction.accepting
                            if anchor.state in reduction.entries[f])
        base = plain_rep_lasso(reduction.context, anchor.state, accept_state)
        if base is None:
            raise AssertionError(
                f"no divergence loop from {anchor.state!r} despite chain entry")
        shift = anchor.value
        configs = run.configs[:cut + 1] + tuple(
            Config(c.state, c.value + shift) for c in base.configs[1:])
        steps = run.steps[:cut] + base.steps
        lasso = LassoRun(configs, steps, loop_start=cut + base.loop_start)
    defect = validate_lasso(source, gamma, lasso)
    if defect is not None:
        raise AssertionError(f"witness translation broke: {defect.reason}")
    if lasso.configs[lasso.loop_start].state != accept_state:
        # The divergence loop may visit the accept state mid-loop only; the
        # stored loops are anchored there, so this indicates a bug.
        raise AssertionError("translated loop does not start at the accept state")
    return gamma, lasso


@dataclass(frozen=True)
class BuchiWitness:
    """A lasso looping from `accept_state` under `gamma`, the machine's own
    parameters, and the reduced machine's witness it was translated from."""
    accept_state: str
    gamma: dict[str, int]
    lasso: LassoRun
    certificate: ReachWitness


def repeated_reach(machine: CounterMachine, accepting, bound: int,
                   ceiling: Optional[int] = None,
                   store_bound: Optional[int] = None) -> Optional[BuchiWitness]:
    """Decide whether some run of `machine` visits a state of `accepting`
    infinitely often under an instantiation of its parameters <= bound.

    Constant tests are read in place and large updates expanded. If the
    divergence analysis, built first, puts no accepting state on a control
    cycle, the answer is absent before the reduction is built. Otherwise one
    `buchi_to_reach` on that analysis keeps those on a cycle, the
    candidates, one `parametric_reach` call decides them all, and the
    witness is projected back onto `machine`. The verdict is
    exact for each instantiation: under it the reduction reaches its target
    iff the reduction of some one candidate does. So the witness is the
    first instantiation, in `enumerate_gammas` order over the parameters and
    y, under which some candidate repeats, and its accepting state is the
    state at the loop start: the candidate whose value the run stores or, in
    the divergence case, the least candidate that loops from the chain
    entry. Counter values are explored up to `ceiling`, by default
    max(bound, constants) + headroom(machine, |Q'|) for |Q'| = 2|Q| + 2 +
    |X| + |C| over the constants C, the size of a reduction with a full copy
    of the machine, whatever the size of the copies built; the stored value
    y ranges up to `store_bound`, by default the ceiling. `parametric_reach`
    silently raises the ceiling to one above the largest of the bound, the
    constants and `store_bound`, so by default it explores one value more.
    Negative limits are rejected.
    """
    if min(bound, ceiling or 0, store_bound or 0) < 0:
        raise MachineError("bound, ceiling and store bound must be >= 0")
    accepting = set(accepting)
    _require_accepting(machine, accepting)
    expanded, origin = expand_updates(machine)
    if ceiling is None:
        # Q' holds the states and a full copy, a store and a target state,
        # and a chain state per parameter and per constant.
        constants = _constants(machine)
        reduced = (2 * len(machine.states) + 2 + len(machine.params)
                   + len(constants))
        ceiling = max([bound, *constants]) + headroom(machine, reduced)
    if store_bound is None:
        store_bound = ceiling
    # Only states on a cycle of the control graph can repeat; the reduction
    # is built only if one is accepting.
    context = divergence_context(expanded)
    if not any(context.component[q] for q in accepting):
        return None
    reduction = buchi_to_reach(expanded, *accepting, context=context)
    found = parametric_reach(reduction.machine, reduction.target, bound,
                             ranges={reduction.y: (0, store_bound)},
                             ceiling=ceiling)
    if found is None:
        return None
    gamma, lasso = buchi_witness_to_lasso(reduction, found)
    lasso = _project(lasso, origin, machine)
    defect = validate_lasso(machine, gamma, lasso)
    if defect is not None:
        raise AssertionError(f"expansion projection broke: {defect.reason}")
    return BuchiWitness(lasso.configs[lasso.loop_start].state, gamma, lasso,
                        found)


# ---------------------------------------------------------------------------
# Flat sentences to repeated reachability (tableau product)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McReduction:
    """The product of a machine and the tableau of a flat sentence: some
    accepting state repeats under some instantiation of the register
    parameters iff some run of the source satisfies the sentence. A product
    state is either a core, keyed by a machine state, the obligations
    forwarded to the next position and a round-robin index, or a state of a
    test chain into a core (see `flat_mc_to_buchi`); the accepting states
    are cores. The product copies the source's updates, large ones
    included."""
    instance: BuchiInstance
    formula: Formula                 # renamed normal form actually encoded
    step_origin: Mapping[int, int]   # product transition -> source transition


def _require_flat_sentence(phi: Formula) -> None:
    violation = flat_violation(phi)
    if violation is not None:
        offending, polarity = violation
        raise FormulaError(
            f"not flat: freeze under {polarity} occurrence of "
            f"{render(offending)}")
    if not is_sentence(phi):
        raise FormulaError("not a sentence: a register test is unbound")


def _saturate(requirements, labels: frozenset) -> list[frozenset]:
    """All downward-saturated extensions of a requirement set that are
    consistent with a position carrying exactly `labels`, built by splitting
    disjunctive members: a disjunction admits either disjunct, an until is
    either fulfilled now or kept pending, a release either releases now or
    stays armed. Branches choosing a proposition literal the labels refute
    are pruned. Deterministic order."""
    results: list[frozenset] = []
    seen: set[frozenset] = set()

    def admissible(f: Formula) -> bool:
        if isinstance(f, Prop):
            return f.name in labels
        if isinstance(f, Neg):
            return f.body.name not in labels
        return True

    def go(todo: tuple, have: frozenset) -> None:
        while todo:
            f, todo = todo[0], todo[1:]
            if f in have:
                continue
            if not admissible(f):
                return
            have = have | {f}
            if isinstance(f, (Prop, Neg, RegTest, Next)):
                continue
            if isinstance(f, And):
                todo = (f.left, f.right) + todo
            elif isinstance(f, Freeze):
                todo = (f.body,) + todo
            elif isinstance(f, Or):
                go((f.left,) + todo, have)
                go((f.right,) + todo, have)
                return
            elif isinstance(f, Until):
                go((f.right,) + todo, have)
                go((f.left,) + todo, have)
                return
            else:  # Release
                go((f.right, f.left) + todo, have)
                go((f.right,) + todo, have)
                return
        if have not in seen:
            seen.add(have)
            results.append(have)

    go(tuple(requirements), frozenset())
    return results


def _next_requirements(atom) -> frozenset:
    """What the successor position owes: bodies of next-formulas, plus every
    until not fulfilled here and every release not yet released."""
    out = set()
    for f in atom:
        if isinstance(f, Next):
            out.add(f.body)
        elif isinstance(f, Until) and f.right not in atom:
            out.add(f)
        elif isinstance(f, Release) and f.left not in atom:
            out.add(f)
    return frozenset(out)


def _obligations(atom) -> Optional[tuple[ParamTest, ...]]:
    """The parameter tests a position fires: an equality for each register
    frozen there and a comparison for each register-test literal, one test
    per register, sorted by register. Every test of one position compares
    the same counter value with its register's parameter, so an atom that
    gives one register two relations can never fire, and is None; a test
    that repeats is fired once."""
    relation: dict[str, str] = {}
    for f in atom:
        if isinstance(f, Freeze):
            reg, rel = f.reg, "="
        elif isinstance(f, RegTest):
            reg, rel = f.reg, f.rel
        else:
            continue
        if relation.setdefault(reg, rel) != rel:
            return None
    return tuple(ParamTest(relation[reg], reg) for reg in sorted(relation))


# How many sentences keep their tableau (`_tableau`).
_TABLEAU_CACHE_SIZE = 128


@dataclass(frozen=True)
class _Tableau:
    """The half of the tableau product that depends only on the sentence:
    its renamed normal form, its untils in a fixed order (one Buechi set
    each), its registers (the product's parameters), the propositions it
    reads, and the signatures of its positions, each computed when first
    asked for."""
    formula: Formula
    untils: tuple[Until, ...]
    registers: tuple[str, ...]
    props: frozenset[str]
    signatures: dict = field(init=False, compare=False, repr=False,
                             default_factory=dict)

    def expansions(self, requirements: frozenset,
                   labels: frozenset) -> tuple[tuple, ...]:
        """Deduplicated (forwarded obligations, tests) signatures of the
        saturated extensions of `requirements` at a position carrying
        `labels`, without the atoms whose tests can never fire. `labels`
        holds only propositions of `props`, the only ones an atom reads, so
        the signatures kept grow with the sentence, not with the machines
        checked against it."""
        key = (requirements, labels)
        got = self.signatures.get(key)
        if got is None:
            found: dict = {}
            for atom in _saturate(requirements, labels):
                tests = _obligations(atom)
                if tests is not None:
                    found.setdefault((_next_requirements(atom), tests))
            got = self.signatures[key] = tuple(found)
        return got


@functools.lru_cache(maxsize=_TABLEAU_CACHE_SIZE)
def _tableau(phi: Formula) -> _Tableau:
    """The tableau of the flat sentence `phi`, built once for each of the
    most recently checked sentences and shared by every product with it; a
    FormulaError, raised anew on every call, if `phi` is not one."""
    _require_flat_sentence(phi)
    renamed = rename_registers(nnf(phi))
    untils: dict = {}
    registers, props = set(), set()
    for f in subformulas(renamed):
        if isinstance(f, Until):
            untils.setdefault(f)
        elif isinstance(f, Freeze):
            registers.add(f.reg)
        elif isinstance(f, Prop):
            props.add(f.name)
    return _Tableau(renamed, tuple(untils), tuple(sorted(registers)),
                    frozenset(props))


def flat_mc_to_buchi(machine: CounterMachine, phi: Formula) -> McReduction:
    """Product construction: machine states paired with tableau positions of
    the sentence, each position's parameter tests (the frozen registers and
    register tests committed to there) fired on a chain, followed by the
    machine's own transitions into successor positions. One generalized
    Buechi set per until, degeneralized by a round-robin index.

    Atoms that agree on their forwarded obligations and their tests behave
    identically, so a position carries only that signature. A position is
    entered at its entry, the first state of its chain, and the chain ends
    in its core, the state keyed by (machine state, forwarded obligations,
    round-robin index): every test set of that key runs its own chain into
    the one core, the entry of a position with no test is the core itself,
    and the machine's transitions leave the core into the entries of the
    successor positions. The core is the accepting state, since acceptance
    reads only the obligations and the index: an until is pending exactly
    when it is forwarded, which is what the fairness sets observe. Atoms
    whose chain can never fire are dropped (`_obligations`).

    Sharing the core keeps the language: cores of one key would have the
    same successors if each test set had its own. A chain only tests the
    counter and never changes it; it is left only into its core, and a
    core is entered only at the end of a chain or as a test-free entry.
    So a run visits an entry infinitely often iff it visits that entry's
    core infinitely often, and a same-value return to one is a same-value
    return to the other.

    Registers are renamed apart first; flatness guarantees each is frozen at
    most once along a run, so a register is faithfully represented by one
    parameter.

    The sentence's half is shared: `_tableau` checks the sentence, renames
    it, lists its untils and registers, and keeps each position's
    signatures, for every machine checked against an equal sentence. Only
    the product with `machine` is built here, on every call.
    """
    tableau = _tableau(phi)
    if classify(machine) not in (MachineClass.OCA, MachineClass.OCA_S):
        raise ClassMismatch("flat_mc_to_buchi requires a parameterless "
                            "machine with zero tests only")
    untils, expansions = tableau.untils, tableau.expansions
    k = len(untils)
    labels = {q: names & tableau.props for q, names in machine.labels.items()}

    def advance(owed: frozenset, index: int) -> int:
        if k == 0:
            return 0
        return index % k + 1 if untils[index - 1] not in owed else index

    cores: dict[tuple, str] = {}
    chains: dict[tuple, str] = {}
    accepting: set[str] = set()
    triples: list = []
    step_origin: dict[int, int] = {}
    worklist: deque = deque()

    def entry_state(q: str, sig: tuple, index: int) -> str:
        """The first state of position (q, sig, index): the head of its
        test chain, built on first use, or its core if it fires no test."""
        owed, tests = sig
        key = (q, owed, index)
        core = cores.get(key)
        if core is None:
            core = cores[key] = f"n{len(cores)}_{q}"
            if k == 0 or (index == k and untils[k - 1] not in owed):
                accepting.add(core)
            worklist.append(key)
        if not tests:
            return core
        head = chains.get((key, tests))
        if head is None:
            head = chains[key, tests] = f"{core}_t{len(chains)}"
            at = head
            for j, test in enumerate(tests[:-1]):
                triples.append((at, test, f"{head}_c{j}"))
                at = f"{head}_c{j}"
            triples.append((at, tests[-1], core))
        return head

    initial = "mcinit"
    start_index = 1 if k else 0
    for sig in expansions(frozenset((tableau.formula,)),
                          labels[machine.initial]):
        head = entry_state(machine.initial, sig, start_index)
        triples.append((initial, Update(0), head))

    while worklist:
        key = worklist.popleft()
        q, owed, index = key
        nxt_index = advance(owed, index)
        for i, t in machine.outgoing(q):
            for sig in expansions(owed, labels[t.target]):
                head = entry_state(t.target, sig, nxt_index)
                step_origin[len(triples)] = i
                triples.append((cores[key], t.op, head))

    product = CounterMachine.build(triples, initial=initial,
                                   params=tableau.registers)
    return McReduction(
        instance=BuchiInstance(product, frozenset(accepting)),
        formula=tableau.formula, step_origin=step_origin)


# ---------------------------------------------------------------------------
# Succinct updates to unary updates
# ---------------------------------------------------------------------------

def bits(z: int) -> int:
    """Number of bits in the binary encoding of |z|."""
    return abs(z).bit_length()


def bit_at(z: int, i: int) -> int:
    """The i-th bit (1-based, least significant first) of |z|."""
    return (abs(z) >> (i - 1)) & 1


@dataclass(frozen=True)
class Gadget:
    """The unary expansion of one large-update transition: a counting loop
    between two delimiter positions."""
    entry: str                 # first delimiter state
    ones: tuple[str, ...]      # bit states labeled 1, least significant first
    zeros: tuple[str, ...]     # bit states labeled 0
    exit: str                  # second delimiter state
    sign: int


@dataclass(frozen=True)
class SuccinctReduction:
    """The unary machine and sentence of `succinct_to_unary`."""
    machine: CounterMachine
    formula: Formula
    source: CounterMachine
    bit_zero: str
    bit_one: str
    seps: Mapping[int, str]          # update value -> delimiter proposition
    gadgets: Mapping[int, Gadget]    # source transition index -> gadget


def _is_nnf(phi: Formula) -> bool:
    return all(isinstance(f.body, Prop) for f in subformulas(phi)
               if isinstance(f, Neg))


def _disj(parts):
    parts = list(parts)
    result = parts[0]
    for p in parts[1:]:
        result = Or(result, p)
    return result


def _conj(parts):
    parts = list(parts)
    result = parts[0]
    for p in parts[1:]:
        result = And(result, p)
    return result


def _xk(k: int, phi: Formula) -> Formula:
    for _ in range(k):
        phi = Next(phi)
    return phi


def relativize(phi: Formula, lambda_props) -> Formula:
    """The specification transformer of the unary expansion: evaluate `phi`
    only at positions carrying none of `lambda_props`, skipping over the
    inserted ones. Identity when the proposition set is empty. Requires
    negation normal form; preserves flatness."""
    lambda_props = sorted(lambda_props)
    if not lambda_props:
        return phi
    if not _is_nnf(phi):
        raise FormulaError("relativize requires negation normal form")
    lam = _disj(Prop(p) for p in lambda_props)
    notlam = _conj(Neg(Prop(p)) for p in lambda_props)

    def walk(f: Formula) -> Formula:
        if isinstance(f, (Prop, RegTest, Neg)):
            return f
        if isinstance(f, Freeze):
            return Freeze(f.reg, walk(f.body))
        if isinstance(f, And):
            return And(walk(f.left), walk(f.right))
        if isinstance(f, Or):
            return Or(walk(f.left), walk(f.right))
        if isinstance(f, Next):
            return Next(Until(lam, And(notlam, walk(f.body))))
        if isinstance(f, Until):
            # "on a real position" guards: (not-inserted -> left), rendered as
            # (inserted | left) to stay in negation normal form.
            return Until(Or(lam, walk(f.left)), And(notlam, walk(f.right)))
        return Release(And(notlam, walk(f.left)), Or(lam, walk(f.right)))

    return walk(phi)


def _counter_formula(reduction_seps: Mapping[int, str], bit_zero: str,
                     bit_one: str, lambda_props) -> Formula:
    """The conjunction forcing every gadget traversal to count from 1 to |z|
    in least-significant-bit-first binary between its delimiters."""
    lam = _disj(Prop(p) for p in sorted(lambda_props))
    notlam = _conj(Neg(Prop(p)) for p in sorted(lambda_props))
    zero, one = Prop(bit_zero), Prop(bit_one)
    parts = []
    for z in sorted(reduction_seps):
        sep = Prop(reduction_seps[z])
        n = bits(z)
        first = And(notlam, Next(sep))
        last = And(sep, Next(notlam))
        last_but_one = And(sep, Next(Until(Or(zero, one), last)))

        def jump(phi: Formula) -> Formula:
            return _xk(n + 1, phi)

        init = globally(Or(Neg(first), _xk(2, And(one, Next(Until(zero, sep))))))
        fin = globally(Or(Neg(last_but_one), _conj(
            _xk(i, one if bit_at(z, i) else zero) for i in range(1, n + 1))))
        eqsuff = Until(Or(And(zero, jump(zero)), And(one, jump(one))), sep)
        inc = globally(Or(
            Neg(And(sep, And(Neg(last_but_one), Neg(last)))),
            Next(Until(And(one, jump(zero)),
                       And(zero, And(jump(one), Next(eqsuff)))))))
        exit_ = globally(Or(Neg(first), Until(true_formula(), last)))
        parts.append(_conj((init, fin, inc, exit_)))
    return _conj(parts)


def succinct_to_unary(machine: CounterMachine,
                      phi: Formula) -> SuccinctReduction:
    """Replace every update of magnitude >= 2 by a unary gadget that walks a
    binary counter from 1 to |z| between delimiter-labeled positions, and
    rewrite the sentence to skip the inserted positions and to enforce the
    counting. The sentence must be a flat sentence in negation normal form.
    """
    if classify(machine) not in (MachineClass.OCA, MachineClass.OCA_S):
        raise ClassMismatch(
            "succinct_to_unary requires a parameterless machine with "
            "zero tests only")
    _require_flat_sentence(phi)
    if not _is_nnf(phi):
        raise FormulaError("succinct_to_unary requires negation normal form")
    large = sorted({t.op.delta for t in machine.transitions
                    if isinstance(t.op, Update) and abs(t.op.delta) >= 2})
    if not large:
        return SuccinctReduction(
            machine=machine, formula=phi, source=machine,
            bit_zero="0", bit_one="1", seps={}, gadgets={})

    used_props = set().union(*machine.labels.values()) if machine.labels else set()
    used_props |= {f.name for f in subformulas(phi) if isinstance(f, Prop)}
    bit_zero = fresh_name("0", used_props)
    bit_one = fresh_name("1", used_props)
    seps = {z: fresh_name(f"sep{z}" if z > 0 else f"sepm{-z}", used_props)
            for z in large}
    lambda_props = frozenset((bit_zero, bit_one, *seps.values()))

    taken = set(machine.states)
    triples: list = []
    labels = {q: set(ps) for q, ps in machine.labels.items()}
    gadgets: dict[int, Gadget] = {}

    def fresh_state(base: str, props) -> str:
        name = fresh_name(base, taken)
        labels[name] = set(props)
        return name

    for i, t in enumerate(machine.transitions):
        if not (isinstance(t.op, Update) and abs(t.op.delta) >= 2):
            triples.append((t.source, t.op, t.target))
            continue
        z = t.op.delta
        n = bits(z)
        sep = seps[z]
        entry = fresh_state(f"g{i}_in", (sep,))
        exit_ = fresh_state(f"g{i}_out", (sep,))
        ones = tuple(fresh_state(f"g{i}_one{j}", (bit_one,))
                     for j in range(1, n + 1))
        zeros = tuple(fresh_state(f"g{i}_zero{j}", (bit_zero,))
                      for j in range(1, n + 1))
        triples.append((t.source, Update(0), entry))
        for a in (entry, exit_):
            triples.append((a, Update(0), ones[0]))
            triples.append((a, Update(0), zeros[0]))
        for j in range(n - 1):
            for a in (ones[j], zeros[j]):
                triples.append((a, Update(0), ones[j + 1]))
                triples.append((a, Update(0), zeros[j + 1]))
        step = Update(1 if z > 0 else -1)
        triples.append((ones[-1], step, exit_))
        triples.append((zeros[-1], step, exit_))
        triples.append((exit_, Update(0), t.target))
        gadgets[i] = Gadget(entry=entry, ones=ones, zeros=zeros, exit=exit_,
                            sign=1 if z > 0 else -1)

    unary = CounterMachine.build(triples, initial=machine.initial,
                                 labels=labels, extra_states=machine.states)
    translated = relativize(phi, lambda_props)
    counter = _counter_formula(seps, bit_zero, bit_one, lambda_props)
    return SuccinctReduction(
        machine=unary, formula=And(translated, counter), source=machine,
        bit_zero=bit_zero, bit_one=bit_one, seps=seps, gadgets=gadgets)


# ---------------------------------------------------------------------------
# The model-checking pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McWitness:
    """A self-certifying model-checking witness: a lasso of the original
    machine, which has no parameters, and the data word it spells, which
    satisfies the formula."""
    lasso: LassoRun
    word: LassoWord


def lasso_word(machine: CounterMachine, lasso: LassoRun) -> LassoWord:
    """The data word spelled by a lasso: state labels paired with counter
    values, the final configuration folded onto the loop entry, and the
    loop's gain in counter value per pass."""
    entries = [(machine.labels[c.state], c.value) for c in lasso.configs[:-1]]
    return LassoWord(tuple(entries[:lasso.loop_start]),
                     tuple(entries[lasso.loop_start:]), lasso.loop_delta)


def model_check(machine: CounterMachine, phi: Formula,
                bound: int) -> Optional[McWitness]:
    """Decide whether some infinite initialized run of `machine` satisfies
    the flat sentence `phi`, searching instantiations of all derived
    parameters up to `bound`. The tableau product is built on `machine`
    itself, and `repeated_reach` expands its large updates, so one
    projection maps the product's lasso back. A returned witness has been
    re-validated: the lasso against the machine, and the spelled word
    against the formula. A formula too deep for the recursive walks over it
    raises FormulaError.
    """
    try:
        mc = flat_mc_to_buchi(machine, phi)
        ceiling = (bound + headroom(machine, len(machine.states))
                   + 2 * len(mc.instance.machine.params) + 2)
        # Every derived parameter, the stored value included, is at most B.
        found = repeated_reach(mc.instance.machine, mc.instance.accepting,
                               bound, ceiling=ceiling, store_bound=bound)
        if found is None:
            return None
        lasso = _project(found.lasso, mc.step_origin, machine)
        defect = validate_lasso(machine, {}, lasso)
        if defect is not None:
            raise AssertionError(
                f"model_check produced an invalid lasso: {defect.reason}")
        word = lasso_word(machine, lasso)
        if not evaluate(word, 0, {}, phi):
            raise AssertionError(
                "model_check witness fails the formula re-check")
        return McWitness(lasso=lasso, word=word)
    except RecursionError:
        # `parse` caps the depth of a formula read from text; one built in
        # code can be deep enough to overflow the recursive walks over it.
        raise FormulaError("formula nests too deeply to check") from None
