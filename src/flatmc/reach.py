"""Reachability decision procedures for one-counter machines.

The central solver decides, for a unary machine with parameterized tests,
whether a target state is reachable under some bounded parameter
instantiation. It realizes the guess-and-verify structure of the underlying
NP procedure deterministically: enumerate candidate parameter values, split
the counter range into levels at those values, and search a graph whose nodes
are (state, level) pairs. Edges within a level are single value-preserving
steps; edges between levels are runs through the open interval separating
them, checked on a machine whose tests have been resolved for that interval.

A constant test `<c`, `=c` or `>c`, any but the zero test `=0`, is read in
place as a test against the one-value range (c, c), the reduction from
OCA(P,C) to OCA(P) without the second machine it would build: each constant
is a level of every search and is enumerated after the parameters.

Instantiations share that interval work within one solver call. Inside an
open interval between two levels, a test against a parameter holds
throughout or never, depending only on which side of the interval the
parameter's level lies. The resulting test pattern, the set of transitions
whose tests hold, is built once per interval from the tests the machine
records; it fixes the test-free machine for the interval, so each distinct
pattern is stripped once. Runs of
a test-free unary machine through an interval are invariant under shifting
the interval: interior values stay positive, and a decrement at the lower
end leaves the interval whether or not it is enabled there. So the exits of
an interval depend only on the pattern, the start state and side, and the
width, and are searched once and shifted into place. Every search of one
call also places a level at the largest end of any parameter range, so the
widest interval, from there up to the ceiling, has the same width in all of
them and its exits are searched once. Instantiations are still tried one at
a time in the documented order, so the first witness is the same as without
sharing.

A target that the control graph does not reach from the initial state is
absent before anything is expanded or searched.

Before any instantiation is tried, one search decides the whole box of
parameter ranges at once, on a relaxed machine in which a parameter test
fires wherever some value in the parameter's range lets it fire. The relaxed
machine over-approximates every instantiation in the box, so when it cannot
reach the target, no instantiation can, and the answer is absent after one
search instead of (B+1)^|X|. Its tests are again constant inside the
intervals between levels placed at both ends of every range, so the same
level search decides it exactly (see `parametric_reach`). Once an
instantiation has found no run, the same relaxation decides a slice, the box
in which the first parameter of several with wide ranges is fixed to one
value, and a slice with no run skips every instantiation in it.

All of these searches run on one breadth-first search with parent pointers,
`_bfs`: the level graph, whose edges are chunks of runs; the exits of an
interval, whose edges are single steps and which also decide the interval
runs of `interval_run` and `interval_return`; and the loop of a test-free
machine in `plain_rep_lasso`. They differ only in the neighbours they list
and in the nodes that count as ends. The brute-force oracles of
`flatmc.machines` are not used here: they stay the independent reference
the solver is tested against.

Every positive answer ships a concrete run that is re-validated before it is
returned.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from flatmc.machines import (
    UNARY_CLASSES,
    ClassMismatch,
    Config,
    CounterMachine,
    LassoRun,
    MachineClass,
    MachineError,
    ParamTest,
    Run,
    Transition,
    Update,
    _param_tests,
    classify,
    fresh_name,
    successors,
    validate_run,
)

if TYPE_CHECKING:  # only for annotations: reductions imports this module
    from flatmc.reductions import DivergenceContext

# Scales `default_bound`, the parameter bound used when none is given.
DEFAULT_MULTIPLIER = 8

# The most states `expand_updates` builds: an update of k adds k - 1, so
# a machine file of a few bytes could otherwise ask for any amount of memory.
MAX_EXPANDED_STATES = 100_000


def default_bound(machine: CounterMachine) -> int:
    """A heuristic default for parameter bounds:
    |Q|^3 * (|X| + 2) * DEFAULT_MULTIPLIER. This is a practical default, not
    the theoretical worst-case bound, whose constants are unspecified."""
    return ((len(machine.states) ** 3) * (len(machine.params) + 2)
            * DEFAULT_MULTIPLIER)


def _require_plain_oca(machine: CounterMachine, who: str) -> None:
    if classify(machine) is not MachineClass.OCA:
        raise ClassMismatch(f"{who} requires a plain OCA, got "
                            f"{classify(machine).value}")


# ---------------------------------------------------------------------------
# Breadth-first search
# ---------------------------------------------------------------------------

def _bfs(start, neighbours, is_end, parents: dict):
    """Breadth-first search from `start` with parent pointers: the one search
    behind every check in this module.

    `neighbours(node)` lists the (edge, node) pairs leaving a node, in the
    order they are tried. An end, a node satisfying `is_end`, is reported
    and never expanded: for each edge into one the search yields (node,
    edge, end), and `_path(parents, node)` followed by (edge, end) is a path
    to it, also when the end is `start` itself. Every other node is expanded
    once, after its first visit, and `parents` receives the search tree:
    each such node maps to the node and edge it was first reached by, and
    `start` maps to None."""
    parents[start] = None
    queue = deque([start])
    while queue:
        here = queue.popleft()
        for edge, there in neighbours(here):
            if is_end(there):
                yield here, edge, there
            elif there not in parents:
                parents[there] = (here, edge)
                queue.append(there)


def _path(parents: dict, node) -> list:
    """The (edge, node) pairs leading from the root of the search tree in
    `parents` to `node`."""
    path = []
    while parents[node] is not None:
        prev, edge = parents[node]
        path.append((edge, node))
        node = prev
    path.reverse()
    return path


def _first_path(start, neighbours, is_end) -> Optional[list]:
    """The path by which `_bfs` first reaches an end, or None."""
    parents: dict = {}
    for here, edge, end in _bfs(start, neighbours, is_end, parents):
        return _path(parents, here) + [(edge, end)]
    return None


def _run(start: Config, path: list) -> Run:
    """The run along a path of (transition index, configuration) pairs."""
    return Run((start, *(c for _i, c in path)), tuple(i for i, _c in path))


# ---------------------------------------------------------------------------
# Interval-restricted run checks
# ---------------------------------------------------------------------------

def _segment_exits(machine: CounterMachine | StrippedMachine, start: Config,
                   lo: int, hi: int,
                   target: Optional[str] = None) -> dict[Config, Run]:
    """Shortest runs of a unary machine from `start`, on a boundary value,
    through the open interval (lo, hi) to each reachable configuration back
    on a boundary value or, inside the interval, of `target`, where runs
    stop. The search ends at the first exit of `target`, where a level
    search ends too, so it never reads a later one. Exits to the start's own
    value require at least one interior configuration (value-preserving
    steps on the level are handled by the caller); exits to the opposite
    boundary may be direct. Tests of `machine` are evaluated as they stand;
    a zero test never fires inside the interval."""
    # Ends are the configurations outside the open interval, and the target's.
    # Unary steps from inside it end on a boundary value; only the start's
    # steps can leave [lo, hi] or stay on its value, and those are not exits.
    steps = functools.partial(successors, machine, {})
    parents: dict = {}
    exits: dict[Config, Run] = {}
    for here, step, end in _bfs(
            start, steps, lambda c: not lo < c.value < hi or c.state == target,
            parents):
        if (end not in exits and lo <= end.value <= hi
                and (here != start or end.value != start.value)):
            exits[end] = _run(start, _path(parents, here) + [(step, end)])
            if end.state == target:
                break
    return exits


def _interval_reach(machine: CounterMachine | StrippedMachine, start: Config,
                    goal: Config, lo: int, hi: int) -> bool:
    """Is there a run from `start` to `goal`, both on the boundary of
    [lo, hi], whose intermediate configurations lie strictly between lo and
    hi? Either it is empty, or it is one step, or it is an exit of the
    interval."""
    return (start == goal
            or any(c == goal for _i, c in successors(machine, {}, start))
            or goal in _segment_exits(machine, start, lo, hi))


def interval_run(machine: CounterMachine, source: str, target: str,
                 v_start: int, v_end: int) -> bool:
    """Is there a run from (source, v_start) to (target, v_end) whose
    intermediate counter values lie strictly between the two endpoint values?
    A single configuration counts when source == target and v_start == v_end.
    """
    _require_plain_oca(machine, "interval_run")
    return _interval_reach(machine, Config(source, v_start),
                           Config(target, v_end),
                           min(v_start, v_end), max(v_start, v_end))


def interval_return(machine: CounterMachine, source: str, target: str,
                    v_start: int, v_other: int) -> bool:
    """Like interval_run, but the run ends back at value v_start; v_other only
    bounds the excursion."""
    _require_plain_oca(machine, "interval_return")
    return _interval_reach(machine, Config(source, v_start),
                           Config(target, v_start),
                           min(v_start, v_other), max(v_start, v_other))


# ---------------------------------------------------------------------------
# Test stripping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrippedMachine:
    """A test-free unary machine equivalent to its source inside one open
    interval between levels. `outgoing(q)` lists the (source transition
    index, transition) pairs kept, in declaration order, a holding test as
    an `Update(0)`: all that `successors` reads, so its runs are the
    source's."""
    states: frozenset[str]
    _outgoing: Mapping[str, tuple[tuple[int, Transition], ...]]

    def outgoing(self, state: str) -> tuple[tuple[int, Transition], ...]:
        return self._outgoing[state]


def _constants(machine: CounterMachine) -> list[int]:
    """The constants of the tests other than =0, once each, ascending."""
    return sorted({key for _i, key, _rel in _param_tests(machine)
                   if isinstance(key, int)})


def _fires(rel: str, span: tuple[int, int], value: int) -> bool:
    """Whether a test `rel` fires at `value` for some value in `span`."""
    lo, hi = span
    return (value < hi if rel == "<" else value > lo if rel == ">"
            else lo <= value <= hi)


def _test_pattern(machine: CounterMachine,
                  box: Mapping[str | int, tuple[int, int]],
                  low: int, high: int) -> frozenset[int]:
    """The test pattern of the open interval between the adjacent levels
    `low` and `high`: the set of transitions whose tests hold, those of the
    tests recorded by `_param_tests` that fire throughout the interval for
    some value in the inclusive range that `box` gives their key, a
    parameter's range or a constant's one value. Both ends of every range
    are levels, so each test reads throughout as at `low + 1`, and at width
    1, with no value inside, none holds. This set alone decides which
    transitions survive stripping."""
    value = low + 1
    if value >= high:
        return frozenset()
    # From a list: a generator per interval raised the peak memory of `reach`.
    return frozenset([i for i, x, rel in _param_tests(machine)
                      if _fires(rel, box[x], value)])


def _strip(machine: CounterMachine, holding: frozenset[int]) -> StrippedMachine:
    """The test-free machine selected by a test pattern `holding`, the set
    of transitions whose tests hold, parameter and constant tests alike:
    updates are kept, the tests in `holding` become 0-updates, and every
    other test is dropped. The zero test is never recorded, so it is never
    in `holding` and always dropped, since it never fires strictly inside
    an interval. Each kept transition keeps its index in `machine`."""
    outgoing: dict[str, list] = {q: [] for q in machine.states}
    for i, t in enumerate(machine.transitions):
        if not isinstance(t.op, Update):
            if i not in holding:
                continue
            t = Transition(t.source, Update(0), t.target)
        outgoing[t.source].append((i, t))
    return StrippedMachine(machine.states,
                           {q: tuple(ts) for q, ts in outgoing.items()})


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def fold_constants(machine: CounterMachine) -> tuple[CounterMachine, dict[str, int]]:
    """Replace every constant test other than =0 by a test against a fresh
    parameter pinned to that constant, and return the pinned values. The
    result is of class OCA(P) when the input had unary updates. Only
    `translate` folds a machine this way; every solver reads constant tests
    in place (see `parametric_reach`)."""
    consts = _constants(machine)
    if not consts:
        return machine, {}
    taken = set(machine.params)
    name_of = {c: fresh_name(f"xc{c}", taken) for c in consts}
    pinned = {i: ParamTest(rel, name_of[key])
              for i, key, rel in _param_tests(machine) if isinstance(key, int)}
    triples = [(t.source, pinned.get(i, t.op), t.target)
               for i, t in enumerate(machine.transitions)]
    folded = CounterMachine.build(
        triples, initial=machine.initial,
        params=(*machine.params, *name_of.values()),
        labels=machine.labels, extra_states=machine.states)
    return folded, {name: c for c, name in name_of.items()}


# ---------------------------------------------------------------------------
# Update expansion and witness projection
# ---------------------------------------------------------------------------

def expand_updates(machine: CounterMachine) -> tuple[CounterMachine, dict[int, int]]:
    """Replace each update +k or -k with k >= 2 by k unary steps through
    fresh states; a machine with unary updates is returned itself. The j-th
    chain state of transition i is `fresh_name(f"u{i}_{j}", ...)` against
    the machine's states, so it gets a suffix only on a clash. `origin`
    maps each kept transition, and the last step of each chain, to the
    source transition; `_project` drops the other chain steps. Every verdict
    is exact: chain states carry no label and no test, and a chain for -k
    passes through v-1, ..., v-k, so it stays non-negative exactly when the
    source step does. An update of k adds k - 1 states: pseudo-polynomial,
    so an expansion of more than MAX_EXPANDED_STATES states is refused
    before it is built."""
    if classify(machine) in UNARY_CLASSES:
        return machine, {i: i for i in range(len(machine.transitions))}
    sizes = [abs(t.op.delta) if isinstance(t.op, Update) else 0
             for t in machine.transitions]
    size = len(machine.states) + sum(k - 1 for k in sizes if k >= 2)
    if size > MAX_EXPANDED_STATES:
        raise MachineError(
            f"expanding the large updates would take {size} states, more "
            f"than the limit of {MAX_EXPANDED_STATES}")
    taken = set(machine.states)
    triples: list = []
    origin: dict[int, int] = {}
    for i, (t, k) in enumerate(zip(machine.transitions, sizes)):
        op = Update(t.op.delta // k) if k >= 2 else t.op
        chain = [t.source, *(fresh_name(f"u{i}_{j}", taken)
                             for j in range(1, k)), t.target]
        origin[len(triples) + len(chain) - 2] = i
        triples.extend((a, op, b) for a, b in zip(chain, chain[1:]))
    return CounterMachine.build(
        triples, initial=machine.initial, params=machine.params,
        labels=machine.labels, extra_states=machine.states), origin


def headroom(machine: CounterMachine, states: int) -> int:
    """How far a default counter ceiling lies above the highest value H at
    which a test changes, for the updates of `machine` on a machine of
    `states` states: states^3 when every update is unary, and otherwise
    the larger of k * states^3 and k + u + u * d, for the largest update
    size k and u (d) the smaller of k * states and the sum of increments
    (decrements).

    The second term suffices for reachability. Above H every test reads
    the same, so a stretch of a run above H can be moved down. Label a
    level v > H + k by the step that last crosses it upwards before the
    run's peak, as its source state or its transition, with the offset of
    v within the step: at most u labels. Label v likewise by the first
    downward crossing after the peak: at most d. Two levels with equal
    labels let the run go from the lower crossing to the part after the
    higher one, moved down by their distance, and back at the lower
    downward crossing; a run ending above both drops its tail the same way
    by its upward label alone. So some run to the target ends at most
    H + k + u and peaks at most u * d above that."""
    if classify(machine) in UNARY_CLASSES:
        return states ** 3
    deltas = [t.op.delta for t in machine.transitions
              if isinstance(t.op, Update)]
    k = max(map(abs, deltas))
    up = min(k * states, sum(delta for delta in deltas if delta > 0))
    down = min(k * states, -sum(delta for delta in deltas if delta < 0))
    return max(k * states ** 3, k + up + up * down)


def _project(run: Run | LassoRun, origin: Mapping[int, int],
             source: CounterMachine) -> Run | LassoRun:
    """Map a run or lasso of a derived machine onto its `source`: a step in
    `origin` becomes the source transition it maps to, any other step
    vanishes, and counter values carry over. The loop of a lasso starts at
    the last configuration emitted at or before the derived loop start.
    Every reduction that adds steps sends its witness back through here: the
    update expansion, the tableau product, and the Buchi copy, whose run to
    the target comes with its store step as the loop start."""
    configs = [Config(source.initial, run.configs[0].value)]
    steps: list[int] = []
    for pos, step in enumerate(run.steps):
        emitted = origin.get(step)
        if emitted is not None:
            steps.append(emitted)
            configs.append(Config(source.transitions[emitted].target,
                                  run.configs[pos + 1].value))
    if isinstance(run, LassoRun):
        loop_start = sum(step in origin for step in run.steps[:run.loop_start])
        return LassoRun(tuple(configs), tuple(steps), loop_start)
    return Run(tuple(configs), tuple(steps))


# ---------------------------------------------------------------------------
# The level-decomposition reachability solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReachWitness:
    """An instantiation of the machine's parameters together with a concrete
    run that starts at (initial, 0) and ends in the target state;
    independently re-checkable."""
    gamma: dict[str, int]
    run: Run


def enumerate_gammas(params, ranges: Mapping[str, tuple[int, int]]):
    """All instantiations of `params` within the given inclusive ranges,
    ordered by smallest maximum value first, then by sorted value tuple, then
    positionally. The first witness found under this order is the one
    reported.

    Instantiations are generated one layer of equal maximum at a time, so
    only the current layer is ever held in memory."""
    names = list(params)
    if not names:
        yield {}
        return
    spans = [ranges[x] for x in names]
    for peak in range(max(lo for lo, _ in spans), max(hi for _, hi in spans) + 1):
        # Each tuple with maximum `peak` is produced once, from the first
        # position holding that maximum.
        layer = []
        for first, (lo, hi) in enumerate(spans):
            if not lo <= peak <= hi:
                continue
            pools = [range(a, min(b, peak - 1) + 1) for a, b in spans[:first]]
            pools.append((peak,))
            pools.extend(range(a, min(b, peak) + 1) for a, b in spans[first + 1:])
            layer.extend(itertools.product(*pools))
        layer.sort(key=lambda vs: (tuple(sorted(vs)), vs))
        for vs in layer:
            yield dict(zip(names, vs))


def parametric_reach(machine: CounterMachine, target: str, bound: int,
                     ranges: Optional[Mapping[str, tuple[int, int]]] = None,
                     ceiling: Optional[int] = None) -> Optional[ReachWitness]:
    """Decide whether `target` is reachable for some instantiation of the
    parameters of `machine` with values <= bound, or within the inclusive
    range (lo, hi) that `ranges` gives a parameter. Absence is relative to
    these ranges.

    The machine is taken as written. Each constant c of a test other than
    =0 is searched in place as a key of its own with the one-value range
    (c, c), enumerated after the parameters in increasing order, as the
    pinned parameters of `fold_constants` would be, so no folded machine is
    built. Large updates are expanded (`expand_updates`). The witness's
    `gamma` names exactly the parameters of `machine`, and its run is
    projected back and validated against `machine`. Counter values are
    explored up to `ceiling`, defaulting to the largest of the bound, the
    range ends and the constants, plus headroom(machine, |Q|); below that
    ceiling reachability is decided exactly. A given ceiling at or below
    that largest value is silently raised to one above it, so that every
    value at which a test changes is explored. A negative limit, a range
    with lo > hi, or one naming no parameter of `machine` is rejected.

    A target that no path of the control graph reaches from the initial
    state is absent before any search, and before updates are expanded:
    every run is such a path, and a present answer ends at the target.

    When the ranges hold more than one instantiation, one level search on
    the whole box of ranges runs first, and if it finds no run, the answer
    is absent. Otherwise the instantiations are tried in the order of
    `enumerate_gammas`, and the first run found is the witness, so the box
    changes no answer and no witness.

    Once a point search has found no run, and at least two ranges hold more
    than one value, the first parameter x with such a range is sliced: for
    each value v of x, the box {**ranges, x: (v, v)} is searched once, when
    the first instantiation with x = v comes up, and if it finds no run,
    every instantiation with x = v is skipped. Points are still tried in
    order and skipped only when proven absent, so slices change no answer
    and no witness either. Slices come after the first miss because the
    first point often hits; with one wide range a slice would be a point.

    The box search, and likewise a slice, which is a box, is sound for
    absence:
    - It searches the relaxed machine, whose test against x, ranging over
      [lo, hi], fires at value v when some value in the range lets it fire:
      `<x` when v < hi, `>x` when v > lo, and `=x` when lo <= v <= hi.
    - Every run under an instantiation in the box, with values <= the
      ceiling, is a run of the relaxed machine with the same values, since
      each test it takes fires for the parameter's own value.
    - The relaxed tests change only at lo or hi, which are levels of the
      box search, so each is constant inside the open interval between two
      adjacent levels. The level search decides reachability below the
      ceiling exactly for such a machine: it is the same search that is
      exact for one instantiation, whose tests change only at its levels.
    So if the box search finds no run, no instantiation in the box has a
    run below the ceiling, and neither does any level search among them.
    Every search of a call shares its `memo`, since a stripped machine and
    its exits depend only on the test pattern, not on the box.

    Every search of the call, the box search and each instantiation's, also
    has a level at `peak`, the largest end of any range, so the interval
    from `peak` to the ceiling has one width and its exits are searched
    once per pattern, start state and side. An extra level changes no
    verdict: the level search is exact for any set of levels that includes
    0, the ceiling and every value at which a test changes.
    - A unary run that crosses a level value touches it, so every run below
      the ceiling splits into chunks at the finer set of levels: steps on a
      level, and excursions strictly between two adjacent ones.
    - Conversely, every path of the level graph over the finer set is still
      a run, since each of its chunks is.
    Only which run the breadth-first search meets first may differ.
    """
    if target not in machine.states:
        raise MachineError(f"target {target!r} not in machine")
    if min(bound, ceiling or 0) < 0:
        raise MachineError("bound and ceiling must be non-negative")
    for x, (lo, hi) in (ranges or {}).items():
        if x not in machine.params:
            raise MachineError(f"unknown parameter {x!r}")
        if not 0 <= lo <= hi:
            raise MachineError(
                f"range of {x!r} must have 0 <= lo <= hi, got ({lo}, {hi})")
    # Every run is a path of the control graph.
    reached = {machine.initial}
    work = [machine.initial]
    while work and target not in reached:
        for _i, t in machine.outgoing(work.pop()):
            if t.target not in reached:
                reached.add(t.target)
                work.append(t.target)
    if target not in reached:
        return None
    expanded, origin = expand_updates(machine)
    constants = _constants(expanded)
    ranges = {**{x: (0, bound) for x in machine.params}, **(ranges or {}),
              **{c: (c, c) for c in constants}}
    highest = max([bound, *(hi for _lo, hi in ranges.values())])
    top = (ceiling if ceiling is not None
           else highest + headroom(machine, len(machine.states)))
    top = max(top, highest + 1)

    memo: dict = {}
    # Every search shares a level at the largest end of any range.
    peak = (max(hi for _lo, hi in ranges.values()),) if ranges else ()
    wide = [x for x, (lo, hi) in ranges.items() if lo < hi]
    if wide and _level_search(expanded, ranges, target, top, memo,
                              peak) is None:
        return None
    # The first wide parameter is sliced once a point has missed, unless a
    # slice would be a point; `slices` tells for each of its values whether
    # the slice has a run.
    sliced: Optional[str] = None
    slices: dict[int, bool] = {}
    for gamma in enumerate_gammas((*machine.params, *constants), ranges):
        if sliced is not None:
            v = gamma[sliced]
            if v not in slices:
                slices[v] = _level_search(
                    expanded, {**ranges, sliced: (v, v)}, target, top, memo,
                    peak) is not None
            if not slices[v]:
                continue
        point = {x: (v, v) for x, v in gamma.items()}
        run = _level_search(expanded, point, target, top, memo, peak)
        if run is None:
            if len(wide) > 1:
                sliced = wide[0]
            continue
        own = {x: gamma[x] for x in machine.params}
        run = _project(run, origin, machine)
        defect = validate_run(machine, own, run)
        if defect is not None or run.configs[-1].state != target:
            raise AssertionError(
                f"solver produced an invalid witness: {defect}")
        return ReachWitness(own, run)
    return None


def _level_search(machine: CounterMachine,
                  box: Mapping[str | int, tuple[int, int]], target: str,
                  top: int, memo: dict,
                  levels: tuple[int, ...]) -> Optional[Run]:
    """Search for a run from (initial, 0) to its first configuration of
    `target`, on a level or inside an interval, whose configurations touch
    the level values at the joints, with excursions strictly between
    adjacent levels in between.

    `box` maps each parameter to an inclusive range (lo, hi), and a test
    against it fires wherever some value in the range lets it fire (see
    `parametric_reach`); an instantiation is the box whose ranges are single
    values (v, v), under which each test fires exactly as it reads. It also
    maps the constant c of each constant test other than =0 to (c, c), and
    a constant test, the zero test too, reads as a test against (c, c). The
    levels are 0, `top`, both ends of every range and the values in
    `levels`, each below `top`; any such set decides the same reachability
    (see `parametric_reach`).

    `memo` carries the interval work from one search to the next: it maps a
    test pattern, the set of transitions whose tests hold in an interval
    (`_test_pattern`), to its stripped machine and to the exits already
    found, keyed by start state, start side and interval width. An exit is
    stored relative to the lower end of its interval; its steps are
    transitions of `machine`, since a stripped machine keeps their indices.
    Exits stop at `target`, so one memo serves one target.

    A start on the lower end with no +1 step in its strip, or on the upper
    end with no -1 step, has no exit and is not searched. Only such a step
    reaches an interior value or the opposite end: from the start, a
    0-update stays on its value, which never counts as an exit, and the
    other unit step leaves [lo, hi]."""
    level_values = sorted({0, top, *levels, *itertools.chain(*box.values())})
    segments = len(level_values) - 1
    index_of = {v: i for i, v in enumerate(level_values)}
    entries: dict[int, tuple[StrippedMachine, dict]] = {}

    def exits_from(here: Config, segment: int) -> list:
        if segment not in entries:
            pattern = _test_pattern(machine, box, level_values[segment],
                                    level_values[segment + 1])
            entry = memo.get(pattern)
            if entry is None:
                entry = memo[pattern] = (_strip(machine, pattern), {})
            entries[segment] = entry
        strip, exits = entries[segment]
        width = level_values[segment + 1] - level_values[segment]
        from_lo = here.value == level_values[segment]
        key = (here.state, from_lo, width)
        if key not in exits:
            inward = 1 if from_lo else -1
            if not any(t.op.delta * inward > 0
                       for _i, t in strip.outgoing(here.state)):
                exits[key] = []
            else:
                start = Config(here.state, 0 if from_lo else width)
                exits[key] = [(end, run.configs[1:], run.steps) for end, run
                              in _segment_exits(strip, start, 0, width,
                                                target).items()]
        return exits[key]

    def stays(op, value: int) -> bool:
        """Whether `op` fires at `value` and keeps it."""
        if isinstance(op, Update):
            return op.delta == 0
        return _fires(op.rel, (box[op.param] if isinstance(op, ParamTest)
                               else (op.const, op.const)), value)

    # Macro nodes are (state, level value). Edges either stay on the level
    # (one value-preserving step of the relaxed machine) or traverse one open
    # interval (a run of the stripped machine, shifted up by the interval's
    # lower end) to a level or the target. An edge is the chunk of run it adds.
    start = Config(machine.initial, 0)
    if start.state == target:
        return Run((start,), ())

    def moves(here: Config):
        for step, t in machine.outgoing(here.state):
            if stays(t.op, here.value):
                conf = Config(t.target, here.value)
                yield ((conf,), (step,), 0), conf
        idx = index_of[here.value]
        for segment in (idx, idx - 1):
            if 0 <= segment < segments:
                lo = level_values[segment]
                for end, configs, steps in exits_from(here, segment):
                    yield (configs, steps, lo), Config(end.state, end.value + lo)

    path = _first_path(start, moves, lambda c: c.state == target)
    if path is None:
        return None
    all_configs: list[Config] = [start]
    all_steps: list[int] = []
    for (configs, steps, shift), _node in path:
        all_configs.extend(Config(q, v + shift) for q, v in configs)
        all_steps.extend(steps)
    return Run(tuple(all_configs), tuple(all_steps))


# ---------------------------------------------------------------------------
# Repeated reachability for test-free machines
# ---------------------------------------------------------------------------

def plain_rep_lasso(context: DivergenceContext, start: str,
                    good: str) -> Optional[LassoRun]:
    """A lasso witnessing an infinite run from (start, 0) that visits `good`
    infinitely often, on the test-free machine of the divergence analysis
    `context`; its steps are the indices `outgoing` lists. None exactly
    when `start` has no credit 0 in `context.credit(good)`, the states that
    have one being the loop entries of `good`.

    The prefix is the first path to `good` with a value of at least `need`,
    the record's value at `good`, from which a non-empty closed walk through
    `good` ends no lower. The loop is the first path back to `good` with at
    least the anchor's value, which pumps since every transition is an
    update. Paths are tried with transitions in declaration order.

    A search for a value v enters a configuration only if its value is at
    least its state's credit for v: the record's for the prefix and
    `_credits(good, anchor.value)` for the loop. On a test-free machine
    those are the configurations that reach an end. So the first path found
    is the one an unpruned search finds, and one is found, since the search
    admits only configurations that reach an end, its start included."""
    machine = context.machine
    if start not in machine.states or good not in machine.states:
        raise MachineError("unknown state")
    record = context.credit(good)
    if record.get(start) != 0:
        return None

    def climb(origin: Config, value: int, credit: Mapping[str, int]) -> list:
        def steps(here: Config) -> list:
            return [(step, there)
                    for step, there in successors(machine, {}, here)
                    if there.state in credit
                    and there.value >= credit[there.state]]
        return _first_path(origin, steps,
                           lambda c: c.state == good and c.value >= value)

    origin = Config(start, 0)
    need = record[good]
    prefix = [] if start == good and need == 0 else climb(origin, need, record)
    anchor = prefix[-1][1] if prefix else origin
    loop = climb(anchor, anchor.value, context._credits(good, anchor.value))
    run = _run(origin, prefix + loop)
    return LassoRun(run.configs, run.steps, loop_start=len(prefix))
