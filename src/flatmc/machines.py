"""One-counter machines with parameterized tests: model, small-step semantics,
and the brute-force search oracles used to cross-check every solver.

A machine has a single counter over the naturals. Transitions either update the
counter by an integer, compare it with a parameter (whose value is fixed per
run by an instantiation), or compare it with a constant. Machines are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import re
from collections import deque
from collections.abc import Callable, Container, Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Union

NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
RELATIONS = ("<", "=", ">")

# How many ops `parse_op` keeps, by text, for the texts it reads again.
_OP_CACHE_SIZE = 1024


class MachineError(ValueError):
    """A machine, run, or instantiation failed validation."""


class ClassMismatch(ValueError):
    """An operation was applied to a machine outside its supported class."""


class FormulaError(ValueError):
    """A formula failed a structural requirement (sentence, flatness, ...).
    Defined beside the machine errors, so that the command line catches it
    without loading `formulas`, which re-exports it."""


# ---------------------------------------------------------------------------
# Transitions and machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Update:
    """Add `delta` to the counter; blocked if the result would be negative."""
    delta: int


@dataclass(frozen=True)
class ParamTest:
    """Compare the counter with a parameter value; the counter is unchanged."""
    rel: str
    param: str


@dataclass(frozen=True)
class ConstTest:
    """Compare the counter with a constant; the counter is unchanged."""
    rel: str
    const: int


Op = Union[Update, ParamTest, ConstTest]


def _digits(text: str, complaint: str) -> int:
    """The value of `text`, which must be ASCII digits within int's limit."""
    if not (text.isascii() and text.isdigit()):
        raise MachineError(complaint)
    try:
        return int(text)
    except ValueError as err:
        raise MachineError(f"{complaint}: {err}") from err


@functools.lru_cache(maxsize=_OP_CACHE_SIZE)
def parse_op(text: str) -> Op:
    """Parse the textual operation format used in machine files and tests.

    Updates: "+3", "-1", "0".  Constant tests: "=0", "=c:5", "<c:5", ">c:5".
    Parameter tests: "=x:name", "<x:name", ">x:name".
    The most recently read texts keep their ops, which are immutable, and a
    text read again gets the same one; an error is raised anew on every call.
    """
    if text == "0":
        return Update(0)
    if text and text[0] in "+-":
        value = _digits(text[1:], f"malformed update op: {text!r}")
        return Update(value if text[0] == "+" else -value)
    if text == "=0":
        return ConstTest("=", 0)
    if len(text) >= 4 and text[0] in RELATIONS and text[1:3] in ("c:", "x:"):
        rel, kind, arg = text[0], text[1], text[3:]
        if kind == "c":
            return ConstTest(rel, _digits(arg, f"malformed constant in op: "
                                               f"{text!r}"))
        if not NAME_RE.match(arg):
            raise MachineError(f"malformed parameter name in op: {text!r}")
        return ParamTest(rel, arg)
    raise MachineError(f"unknown op: {text!r}")


def format_op(op: Op) -> str:
    """Inverse of parse_op, producing the canonical textual form."""
    if isinstance(op, Update):
        if op.delta == 0:
            return "0"
        return f"+{op.delta}" if op.delta > 0 else str(op.delta)
    if isinstance(op, ConstTest):
        if op.rel == "=" and op.const == 0:
            return "=0"
        return f"{op.rel}c:{op.const}"
    return f"{op.rel}x:{op.param}"


@dataclass(frozen=True)
class Transition:
    source: str
    op: Op
    target: str


class Config(NamedTuple):
    """A configuration: control state plus current (non-negative) counter."""
    state: str
    value: int


Gamma = Mapping[str, int]


class MachineClass(Enum):
    OCA = "OCA"
    OCA_S = "OCA(S)"
    OCA_P = "OCA(P)"
    OCA_PC = "OCA(P,C)"
    OCA_SP = "OCA(S,P)"
    OCA_SPC = "OCA(S,P,C)"


# The classes whose updates are all in {-1, 0, +1}.
UNARY_CLASSES = frozenset({MachineClass.OCA, MachineClass.OCA_P,
                           MachineClass.OCA_PC})


@dataclass(frozen=True)
class CounterMachine:
    """An immutable one-counter machine with parameterized and constant tests.

    `params` is ordered; `labels` maps every state to a finite set of
    propositions (defaulting to the empty set). Invariants are checked once at
    construction time, in the one pass over the transitions that also
    records what later questions read of them: each state's outgoing
    transitions (`outgoing`), the machine's class (`classify`), and its
    tests, the transition index, key and relation of each parameter test
    and each constant test other than =0, in transition order
    (`_param_tests`). A test's key is its parameter's name, or the constant
    c, whose range in a box is (c, c).
    """

    states: frozenset[str]
    initial: str
    params: tuple[str, ...]
    transitions: tuple[Transition, ...]
    labels: Mapping[str, frozenset[str]]
    _outgoing: Mapping[str, tuple[tuple[int, Transition], ...]] = field(
        init=False, repr=False, compare=False, hash=False)
    _class: MachineClass = field(
        init=False, repr=False, compare=False, hash=False)
    _tests: tuple[tuple[int, str | int, str], ...] = field(
        init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        for q in self.states:
            if not NAME_RE.match(q):
                raise MachineError(f"bad state name: {q!r}")
        for x in self.params:
            if not NAME_RE.match(x):
                raise MachineError(f"bad parameter name: {x!r}")
        if len(set(self.params)) != len(self.params):
            raise MachineError("duplicate parameter names")
        if self.initial not in self.states:
            raise MachineError(f"initial state {self.initial!r} not in states")
        declared = set(self.params)
        outgoing: dict[str, list[tuple[int, Transition]]] = {
            q: [] for q in self.states}
        tests = []
        unary, constants = True, False
        for i, t in enumerate(self.transitions):
            if t.source not in self.states or t.target not in self.states:
                raise MachineError(
                    f"transition {i} has an endpoint not in states")
            op = t.op
            if isinstance(op, Update):
                unary = unary and -1 <= op.delta <= 1
            elif isinstance(op, ParamTest):
                if op.rel not in RELATIONS:
                    raise MachineError(f"bad relation in {t}")
                if op.param not in declared:
                    raise MachineError(f"undeclared parameter {op.param!r}")
                tests.append((i, op.param, op.rel))
            elif isinstance(op, ConstTest):
                if op.rel not in RELATIONS:
                    raise MachineError(f"bad relation in {t}")
                if op.const < 0:
                    raise MachineError(f"negative constant in {t}")
                if op.const or op.rel != "=":
                    tests.append((i, op.const, op.rel))
                    constants = True
            else:
                raise MachineError(f"unknown op in {t}")
            outgoing[t.source].append((i, t))
        normalized = {}
        for q, props in self.labels.items():
            if q not in self.states:
                raise MachineError(f"label for unknown state {q!r}")
            props = frozenset(props)
            for p in props:
                if not NAME_RE.match(p):
                    raise MachineError(f"bad proposition name: {p!r}")
            normalized[q] = props
        for q in self.states:
            normalized.setdefault(q, frozenset())
        object.__setattr__(self, "labels", normalized)
        object.__setattr__(
            self, "_outgoing", {q: tuple(ts) for q, ts in outgoing.items()})
        object.__setattr__(self, "_tests", tuple(tests))
        if constants:
            kind = MachineClass.OCA_PC if unary else MachineClass.OCA_SPC
        elif self.params:
            kind = MachineClass.OCA_P if unary else MachineClass.OCA_SP
        else:
            kind = MachineClass.OCA if unary else MachineClass.OCA_S
        object.__setattr__(self, "_class", kind)

    @classmethod
    def build(cls, transitions: Iterable[tuple[str, Union[str, Op], str]],
              initial: str, params: Iterable[str] = (),
              labels: Optional[Mapping[str, Iterable[str]]] = None,
              extra_states: Iterable[str] = ()) -> "CounterMachine":
        """Construct a machine from (source, op, target) triples.

        Ops may be given as objects or in the textual format of parse_op.
        States are inferred from transition endpoints, `initial`, and
        `extra_states`.
        """
        parsed = tuple(
            Transition(src, parse_op(op) if isinstance(op, str) else op, dst)
            for src, op, dst in transitions)
        states = {initial, *extra_states}
        for t in parsed:
            states.add(t.source)
            states.add(t.target)
        return cls(states=frozenset(states), initial=initial,
                   params=tuple(params), transitions=parsed,
                   labels=dict(labels) if labels else {})

    def outgoing(self, state: str) -> tuple[tuple[int, Transition], ...]:
        return self._outgoing[state]


def fresh_name(base: str, taken: set[str]) -> str:
    """`base` if it is not in `taken`, else the first of `base_0`,
    `base_1`, ... that is not; the name is added to `taken`, so a caller
    naming many states or parameters passes one set to every call."""
    name, n = base, 0
    while name in taken:
        name = f"{base}_{n}"
        n += 1
    taken.add(name)
    return name


# ---------------------------------------------------------------------------
# Classification and size
# ---------------------------------------------------------------------------

def _param_tests(machine: CounterMachine
                 ) -> tuple[tuple[int, str | int, str], ...]:
    """The transition index, key and relation of each parameter test and
    each constant test other than =0 of `machine`, in transition order, as
    the constructor records them: the one list of the tests that a test
    pattern can hold."""
    return machine._tests


def classify(machine: CounterMachine) -> MachineClass:
    """The tightest machine class, as the constructor records it: unary iff
    all updates are in {-1, 0, +1}, zero-test-only iff every constant test
    is exactly =0, parameterless iff no parameters are declared. There is no
    class with constants but without parameters, so constant tests force
    the (P,C) classes.
    """
    return machine._class


def _ceil_log2(n: int) -> int:
    # Contribution of a binary-encoded magnitude: 0 for 0 and 1, else
    # ceil(log2(n)).
    if n <= 1:
        return 0
    return (n - 1).bit_length()


def machine_size(machine: CounterMachine) -> int:
    """|Q| + |X| + |transitions| + total label count, plus the binary sizes of
    nonzero update magnitudes and positive test constants."""
    total = (len(machine.states) + len(machine.params)
             + len(machine.transitions)
             + sum(len(ps) for ps in machine.labels.values()))
    for t in machine.transitions:
        if isinstance(t.op, Update) and t.op.delta != 0:
            total += _ceil_log2(abs(t.op.delta))
        elif isinstance(t.op, ConstTest) and t.op.const > 0:
            total += _ceil_log2(t.op.const)
    return total


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

def check_gamma(machine: CounterMachine, gamma: Gamma) -> None:
    for x in machine.params:
        v = gamma.get(x)
        if v is None:
            raise MachineError(f"instantiation missing parameter {x!r}")
        if v < 0:
            raise MachineError(f"negative value for parameter {x!r}")


def op_enabled(op: Op, value: int, gamma: Gamma) -> bool:
    """Whether a transition with operation `op` can fire at counter `value`."""
    if isinstance(op, Update):
        return value + op.delta >= 0
    if isinstance(op, ParamTest):
        if op.param not in gamma:
            raise MachineError(f"unknown parameter {op.param!r}")
        bound = gamma[op.param]
    else:
        bound = op.const
    if op.rel == "<":
        return value < bound
    if op.rel == "=":
        return value == bound
    return value > bound


def op_value(op: Op, value: int) -> int:
    return value + op.delta if isinstance(op, Update) else value


def successors(machine: CounterMachine, gamma: Gamma,
               config: Config) -> list[tuple[int, Config]]:
    """All one-step successors of `config`, as (transition index, config)
    pairs in transition declaration order."""
    if config.state not in machine.states:
        raise MachineError(f"configuration state {config.state!r} not in machine")
    result = []
    for i, t in machine.outgoing(config.state):
        if op_enabled(t.op, config.value, gamma):
            result.append((i, Config(t.target, op_value(t.op, config.value))))
    return result


# ---------------------------------------------------------------------------
# Runs and lassos
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Run:
    """A finite run: a nonempty configuration sequence plus, for each step,
    the index of the transition taken. A single configuration is a legal run.
    """
    configs: tuple[Config, ...]
    steps: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class LassoRun(Run):
    """A finite representation of an ultimately periodic run: a run whose
    loop is configs[loop_start:].

    The loop's first and last configurations share a state, and the final
    counter value is >= the loop-entry value. A strictly increasing loop
    denotes the run in which each iteration is shifted up by the difference.
    """
    loop_start: int

    @property
    def loop_delta(self) -> int:
        return self.configs[-1].value - self.configs[self.loop_start].value

    def unroll(self, times: int) -> Run:
        """The explicit finite run consisting of the prefix plus `times`
        iterations of the loop (each shifted up by the loop delta)."""
        if times < 1:
            raise ValueError("times must be >= 1")
        configs = list(self.configs)
        steps = list(self.steps)
        loop_configs = self.configs[self.loop_start + 1:]
        loop_steps = self.steps[self.loop_start:]
        delta = self.loop_delta
        for k in range(1, times):
            shift = k * delta
            configs.extend(Config(c.state, c.value + shift) for c in loop_configs)
            steps.extend(loop_steps)
        return Run(tuple(configs), tuple(steps))


@dataclass(frozen=True)
class RunDefect:
    """Pinpoints the first violation found when validating a run."""
    position: int
    reason: str


def validate_run(machine: CounterMachine, gamma: Gamma,
                 run: Run) -> Optional[RunDefect]:
    """None if every step of `run` is a legal transition of `machine` under
    `gamma`; otherwise a defect naming the first offending step."""
    if not run.configs:
        return RunDefect(0, "run has no configurations")
    if len(run.steps) != len(run.configs) - 1:
        return RunDefect(0, "step count does not match configuration count")
    first = run.configs[0]
    if first.state not in machine.states:
        return RunDefect(0, f"state {first.state!r} not in machine")
    if first.value < 0:
        return RunDefect(0, "negative counter")
    for i, step in enumerate(run.steps):
        here, there = run.configs[i], run.configs[i + 1]
        if not 0 <= step < len(machine.transitions):
            return RunDefect(i, f"no transition with index {step}")
        t = machine.transitions[step]
        if t.source != here.state:
            return RunDefect(i, f"transition {step} does not start in {here.state!r}")
        if t.target != there.state:
            return RunDefect(i, f"transition {step} does not end in {there.state!r}")
        if isinstance(t.op, Update):
            if there.value != here.value + t.op.delta:
                return RunDefect(i, "wrong counter value after update")
            if there.value < 0:
                return RunDefect(i, "negative counter")
        else:
            if there.value != here.value:
                return RunDefect(i, "counter changed on a test")
            if not op_enabled(t.op, here.value, gamma):
                return RunDefect(i, f"test {format_op(t.op)} fails at {here.value}")
    return None


def shift_invariant(op: Op) -> bool:
    """Whether `op` stays enabled when the counter is shifted upward: updates
    and strict greater-than tests are; equality, less-than, and zero tests are
    not."""
    if isinstance(op, Update):
        return True
    return op.rel == ">"


def validate_lasso(machine: CounterMachine, gamma: Gamma,
                   lasso: LassoRun) -> Optional[RunDefect]:
    """Check that `lasso` denotes a legal infinite run: the finite part
    validates, the loop is nonempty and returns to its entry state without
    losing counter value, and a value-gaining loop uses only transitions that
    survive upward shifts (so that every unrolling validates)."""
    defect = validate_run(machine, gamma, lasso)
    if defect is not None:
        return defect
    if not 0 <= lasso.loop_start < len(lasso.configs) - 1:
        return RunDefect(lasso.loop_start, "loop is empty or out of range")
    entry, exit_ = lasso.configs[lasso.loop_start], lasso.configs[-1]
    if entry.state != exit_.state:
        return RunDefect(lasso.loop_start, "loop does not return to its entry state")
    if exit_.value < entry.value:
        return RunDefect(lasso.loop_start, "loop loses counter value")
    if exit_.value > entry.value:
        for i in range(lasso.loop_start, len(lasso.steps)):
            op = machine.transitions[lasso.steps[i]].op
            if not shift_invariant(op):
                return RunDefect(
                    i, f"value-gaining loop uses non-pumpable op {format_op(op)}")
    return None


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

_Parents = dict[Config, Optional[tuple[Config, int]]]


def _oracle_search(machine: CounterMachine, gamma: Gamma, start: Config,
                   cap: int, goal: Optional[Callable[[Config], bool]] = None,
                   allowed: Optional[Container[int]] = None
                   ) -> tuple[_Parents, Optional[Run]]:
    """Breadth-first search from `start` over configurations with values
    <= cap, taking transitions in declaration order, and only those whose
    index `allowed` admits when it is given. Returns the parent map of every
    configuration reached, `start` mapped to None, and the run to the first
    configuration satisfying `goal` after at least one step (so a loop back
    to `start` is found as such), or None."""
    parents: _Parents = {start: None}
    queue = deque([start])
    while queue:
        here = queue.popleft()
        for step, there in successors(machine, gamma, here):
            if there.value > cap or (allowed is not None
                                     and step not in allowed):
                continue
            if goal is not None and goal(there):
                run = _rebuild_run(parents, here)
                return parents, Run(run.configs + (there,), run.steps + (step,))
            if there not in parents:
                parents[there] = (here, step)
                queue.append(there)
    return parents, None


def _rebuild_run(parents: _Parents, end: Config) -> Run:
    """The run that `parents` records from its start to `end`."""
    configs, steps = [end], []
    while (link := parents[configs[-1]]) is not None:
        configs.append(link[0])
        steps.append(link[1])
    return Run(tuple(reversed(configs)), tuple(reversed(steps)))


def bounded_reach_oracle(machine: CounterMachine, gamma: Gamma, target: str,
                         cap: int) -> Optional[Run]:
    """Breadth-first search for a shortest run from (initial, 0) to `target`,
    exploring only counter values <= cap. Complete only relative to the cap.
    Transitions are expanded in declaration order, so the witness is
    deterministic."""
    check_gamma(machine, gamma)
    if target not in machine.states:
        raise MachineError(f"target {target!r} not in machine")
    start = Config(machine.initial, 0)
    if start.state == target:
        return Run((start,), ())
    return _oracle_search(machine, gamma, start, cap,
                          lambda c: c.state == target)[1]


def rep_reach_oracle(machine: CounterMachine, gamma: Gamma,
                     accepting: Iterable[str], cap: int) -> Optional[LassoRun]:
    """Search the cap-bounded configuration graph for a lasso witnessing that
    some accepting state is visited infinitely often.

    Two loop shapes are recognized, both entered at an accepting state:
    an exact configuration repeat, and a return to the same state with a
    strictly larger value using only upward-shift-invariant transitions
    (updates and > tests), which pumps. Complete only relative to the cap.
    """
    check_gamma(machine, gamma)
    accepting = sorted(set(accepting))
    for f in accepting:
        if f not in machine.states:
            raise MachineError(f"accepting state {f!r} not in machine")
    parents, _ = _oracle_search(machine, gamma, Config(machine.initial, 0),
                                cap)
    pumpable = {i for i, t in enumerate(machine.transitions)
                if shift_invariant(t.op)}
    for f in accepting:
        for anchor in sorted(c for c in parents if c.state == f):
            _, loop = _oracle_search(machine, gamma, anchor, cap,
                                     lambda c: c == anchor)
            if loop is None:
                _, loop = _oracle_search(
                    machine, gamma, anchor, cap,
                    lambda c: c.state == f and c.value > anchor.value,
                    pumpable)
            if loop is None:
                continue
            prefix = _rebuild_run(parents, anchor)
            return LassoRun(prefix.configs + loop.configs[1:],
                            prefix.steps + loop.steps,
                            loop_start=len(prefix.configs) - 1)
    return None
