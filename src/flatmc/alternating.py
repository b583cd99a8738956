"""Alternating two-way automata over parameter words.

A parameter instantiation is encoded as an infinite word over the parameters
plus a blank delimiter: the value of a parameter is the number of delimiters
strictly before its (unique) occurrence, not counting the leading one. A
machine with parameterized tests translates into an alternating two-way
automaton that accepts exactly the parameter words under which the target
state is reachable: head moves simulate counter updates between delimiters,
and spawned branches verify tests against parameter positions.

A transition formula is a conjunction of moves, each a state and a head
move, and the empty conjunction is true. A choice is a choice of
transition: several transitions on one state and letter are the disjuncts of
a positive boolean formula in disjunctive normal form, so conjunctions lose
nothing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

from flatmc.machines import (
    NAME_RE,
    ClassMismatch,
    Config,
    ConstTest,
    CounterMachine,
    MachineClass,
    MachineError,
    Run,
    Update,
    classify,
    validate_run,
)
from flatmc.reach import ReachWitness

BLANK = "#"
FIRST = "first?"
MOVES = (-1, 0, 1)


class WordError(ValueError):
    """A word is not a well-formed parameter word."""


class TreeError(ValueError):
    """A run tree is malformed or cannot be translated back into a run."""


# ---------------------------------------------------------------------------
# Automata and words
# ---------------------------------------------------------------------------

Move = tuple[str, int]  # a spawned branch: (state, head move in MOVES)


@dataclass(frozen=True)
class A2ATransition:
    """From `state` on letter `test`, spawn one branch per move of `formula`,
    a conjunction; the empty conjunction is true and spawns none. A choice
    between branches is a choice between transitions on the same state and
    letter, so the formulas need no disjunction."""
    state: str
    test: str  # a letter of the alphabet, or FIRST
    formula: tuple[Move, ...]


@dataclass(frozen=True)
class A2A:
    states: frozenset[str]
    alphabet: frozenset[str]
    initial: str
    accepting: frozenset[str]
    transitions: tuple[A2ATransition, ...]

    def __post_init__(self):
        for t in self.transitions:
            if t.state not in self.states:
                raise MachineError(f"transition from unknown state {t.state!r}")
            if t.test != FIRST and t.test not in self.alphabet:
                raise MachineError(f"transition on unknown letter {t.test!r}")
            for state, move in t.formula:
                if state not in self.states:
                    raise MachineError(f"atom references unknown state {state!r}")
                if move not in MOVES:
                    raise MachineError(f"atom with illegal move {move}")


def a2a_size(automaton: A2A) -> int:
    """States plus letters plus formula sizes, a conjunction of k moves
    counting its k atoms and k - 1 connectives, and true counting 1."""
    return (len(automaton.states) + len(automaton.alphabet)
            + sum(max(1, 2 * len(t.formula) - 1)
                  for t in automaton.transitions))


def _render(formula: tuple[Move, ...]) -> str:
    if not formula:
        return "true"
    atoms = [f"({state} {'+1' if move == 1 else move})"
             for state, move in formula]
    text = atoms[0]
    for atom in atoms[1:]:
        text = f"(& {text} {atom})"
    return text


def dump_a2a(automaton: A2A) -> str:
    """Debug dump: header lines, then one transition per line as
    `state test formula` with the formula in prefix notation, conjunctions
    nested to the left."""
    lines = [
        f"alphabet {' '.join(sorted(automaton.alphabet))}",
        f"initial {automaton.initial}",
        f"accepting {' '.join(sorted(automaton.accepting))}",
    ]
    for t in automaton.transitions:
        lines.append(f"{t.state} {t.test} {_render(t.formula)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParameterWord:
    """A finite prefix over the parameters plus the blank delimiter, denoting
    the infinite word prefix . blank^omega. The first letter is blank and
    every parameter occurs exactly once."""
    prefix: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for i, letter in enumerate(self.prefix):
            if letter == BLANK:
                continue
            if not NAME_RE.match(letter):
                raise WordError(f"bad letter {letter!r} at {i}")
            if letter in seen:
                raise WordError(f"parameter {letter!r} occurs twice")
            seen.add(letter)
        if self.prefix and self.prefix[0] != BLANK:
            raise WordError("a parameter word starts with the blank delimiter")

    def letter(self, i: int) -> str:
        return self.prefix[i] if i < len(self.prefix) else BLANK

    def delimiter_position(self, value: int) -> int:
        """The position encoding counter value `value`: the (value+1)-th
        blank."""
        count = 0
        for i, letter in enumerate(self.prefix):
            if letter == BLANK:
                if count == value:
                    return i
                count += 1
        return len(self.prefix) + (value - count)

    def parameter_position(self, name: str) -> int:
        try:
            return self.prefix.index(name)
        except ValueError:
            raise WordError(f"parameter {name!r} does not occur") from None


def encode_gamma(gamma: Mapping[str, int], order: Optional[Sequence[str]] = None,
                 padding: int = 0) -> ParameterWord:
    """The canonical parameter word for `gamma`: each parameter is placed
    right after the delimiter for its value, equal-valued parameters ordered
    by `order` (default: sorted names); `padding` extra delimiters follow."""
    order = list(order) if order is not None else sorted(gamma)
    if set(order) != set(gamma):
        raise WordError("order must list exactly the instantiated parameters")
    for x, v in gamma.items():
        if v < 0:
            raise WordError(f"negative value for {x!r}")
    prefix: list[str] = []
    top = max(gamma.values(), default=0)
    for value in range(top + 1):
        prefix.append(BLANK)
        prefix.extend(x for x in order if gamma[x] == value)
    prefix.extend(BLANK for _ in range(padding))
    return ParameterWord(tuple(prefix))


def decode(word: ParameterWord) -> dict[str, int]:
    """The instantiation encoded by `word`: a parameter's value is the number
    of delimiters strictly before it, not counting the leading one."""
    gamma = {}
    blanks = 0
    for i, letter in enumerate(word.prefix):
        if letter == BLANK:
            if i > 0:
                blanks += 1
        else:
            gamma[letter] = blanks
    return gamma


# ---------------------------------------------------------------------------
# The translation from machines with parameterized tests
# ---------------------------------------------------------------------------

def _right(q: str) -> str:
    return f"right:{q}"


def _left(q: str) -> str:
    return f"left:{q}"


def _present(x: str) -> str:
    return f"present:{x}"


def _scan(x: str) -> str:
    return f"scan:{x}"


def _find(x: str) -> str:
    return f"find:{x}"


def _seen(x: str) -> str:
    return f"seen:{x}"


INIT = "init:"


@dataclass(frozen=True)
class ReachA2A:
    """The automaton built from a machine and target state, together with the
    provenance needed to translate runs back and forth."""
    automaton: A2A
    machine: CounterMachine
    target: str
    origin: Mapping[int, int]      # automaton transition -> machine transition
    step_index: Mapping[int, int]  # machine transition -> automaton transition
    init_index: int
    accept_index: int


def machine_to_a2a(machine: CounterMachine, target: str) -> ReachA2A:
    """Translate a unary machine with parameterized tests and zero tests into
    an alternating two-way automaton accepting exactly the parameter words
    under which `target` is reachable.

    Counter value v corresponds to head position at the (v+1)-th delimiter.
    Increments and decrements shuttle to the neighboring delimiter; a zero
    test checks for the first position; equality spawns a branch that must
    see the parameter before the next delimiter; less-than sends a searcher
    beyond the next delimiter; greater-than spawns a branch that must never
    see the parameter again (it drifts right forever, hence accepts).
    """
    if classify(machine) not in (MachineClass.OCA, MachineClass.OCA_P):
        raise ClassMismatch(
            "machine_to_a2a requires unary updates and zero tests only")
    if target not in machine.states:
        raise MachineError(f"target {target!r} not in machine")
    params = machine.params
    sigma = frozenset(params) | {BLANK}
    states = set(machine.states) | {INIT}
    for q in machine.states:
        states.add(_right(q))
        states.add(_left(q))
    for x in params:
        states.update((_present(x), _scan(x), _find(x), _seen(x)))

    transitions: list[A2ATransition] = []
    index: dict[A2ATransition, int] = {}
    origin: dict[int, int] = {}
    step_index: dict[int, int] = {}

    def add(state: str, test: str, *formula: Move,
            source: Optional[int] = None) -> int:
        t = A2ATransition(state, test, formula)
        at = index.get(t)
        if at is None:
            at = len(transitions)
            transitions.append(t)
            index[t] = at
        if source is not None:
            origin.setdefault(at, source)
            step_index.setdefault(source, at)
        return at

    init_index = add(INIT, BLANK, (machine.initial, 0),
                     *((_find(x), +1) for x in params))
    for x in params:
        add(_find(x), x, (_seen(x), +1))
        for y in sorted(sigma - {x}):
            add(_find(x), y, (_find(x), +1))
            add(_seen(x), y, (_seen(x), +1))

    for i, t in enumerate(machine.transitions):
        op = t.op
        if isinstance(op, Update):
            if op.delta == 0:
                add(t.source, BLANK, (t.target, 0), source=i)
            else:
                shuttle = _right(t.target) if op.delta > 0 else _left(t.target)
                add(t.source, BLANK, (shuttle, op.delta), source=i)
                for x in params:
                    add(shuttle, x, (shuttle, op.delta))
                add(shuttle, BLANK, (t.target, 0))
        elif isinstance(op, ConstTest):
            add(t.source, FIRST, (t.target, 0), source=i)
        elif op.rel == "=":
            add(t.source, BLANK, (t.target, 0), (_present(op.param), +1),
                source=i)
            add(_present(op.param), op.param)
            for y in sorted(set(params) - {op.param}):
                add(_present(op.param), y, (_present(op.param), +1))
        elif op.rel == "<":
            add(t.source, BLANK, (t.target, 0), (_scan(op.param), +1),
                source=i)
            for y in sorted(set(params) - {op.param}):
                add(_scan(op.param), y, (_scan(op.param), +1))
            add(_scan(op.param), BLANK, (_find(op.param), +1))
        else:  # > test: the parameter must lie strictly to the left, i.e.
            # it is never seen again to the right.
            add(t.source, BLANK, (t.target, 0), (_seen(op.param), +1),
                source=i)

    accept_index = add(target, BLANK)
    automaton = A2A(states=frozenset(states), alphabet=sigma, initial=INIT,
                    accepting=frozenset(_seen(x) for x in params),
                    transitions=tuple(transitions))
    return ReachA2A(automaton=automaton, machine=machine, target=target,
                    origin=origin, step_index=step_index,
                    init_index=init_index, accept_index=accept_index)


# ---------------------------------------------------------------------------
# Membership for constructed automata
# ---------------------------------------------------------------------------

def _drift_letters(automaton: A2A) -> dict[str, set[str]]:
    letters: dict[str, set[str]] = {}
    for t in automaton.transitions:
        if t.test != FIRST and set(t.formula) <= {(t.state, +1)}:
            letters.setdefault(t.state, set()).add(t.test)
    return letters


def membership(automaton: A2A, prefix: Sequence[str]) -> bool:
    """Does the automaton accept prefix . blank^omega?

    Decided by a truth propagation over (state, position) proof obligations
    with positions capped at len(prefix) + 1; beyond the prefix every letter
    is blank, so for automata built by machine_to_a2a the behavior out there
    is either an accepting rightward drift or blocked. A node whose state is
    accepting and can consume every remaining letter while moving right is
    accepting (an obligation pushed past the cap counts as discharged exactly
    in that case); cycles without such a node are rejecting.
    """
    prefix = tuple(prefix)
    max_pos = len(prefix) + 1

    def letter(p: int) -> str:
        return prefix[p] if p < len(prefix) else BLANK

    drift = _drift_letters(automaton)

    def blank_drift(state: str) -> bool:
        return state in automaton.accepting and BLANK in drift.get(state, ())

    def drift_ok(state: str, pos: int) -> bool:
        if not blank_drift(state):
            return False
        return all(prefix[p] in drift[state] for p in range(pos, len(prefix)))

    by_state: dict[str, list[tuple[int, A2ATransition]]] = {}
    for i, t in enumerate(automaton.transitions):
        by_state.setdefault(t.state, []).append((i, t))

    true_nodes: set[tuple[str, int]] = set()
    worklist: deque[tuple[str, int]] = deque()
    dependents: dict[tuple[str, int], list[tuple[str, int, int]]] = {}

    def applicable(state: str, pos: int):
        for i, t in by_state.get(state, ()):
            if t.test == FIRST:
                if pos == 0:
                    yield i, t
            elif t.test == letter(pos):
                yield i, t

    def holds(t: A2ATransition, pos: int) -> bool:
        """Every move of the formula is discharged: its obligation is true,
        or it is pushed past the cap in a state that drifts over blanks."""
        for state, move in t.formula:
            child = pos + move
            if child > max_pos:
                if not blank_drift(state):
                    return False
            elif child < 0 or (state, child) not in true_nodes:
                return False
        return True

    def mark(node: tuple[str, int]) -> None:
        if node not in true_nodes:
            true_nodes.add(node)
            worklist.append(node)

    for state in automaton.states:
        for pos in range(max_pos + 1):
            if drift_ok(state, pos):
                mark((state, pos))
                continue
            for i, t in applicable(state, pos):
                if holds(t, pos):
                    mark((state, pos))
                    break
                for atom_state, move in t.formula:
                    child = pos + move
                    if 0 <= child <= max_pos:
                        dependents.setdefault((atom_state, child), []).append(
                            (state, pos, i))

    while worklist:
        node = worklist.popleft()
        for state, pos, i in dependents.get(node, ()):
            if (state, pos) in true_nodes:
                continue
            if holds(automaton.transitions[i], pos):
                mark((state, pos))

    return (automaton.initial, 0) in true_nodes


# ---------------------------------------------------------------------------
# Run trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeNode:
    """A node of a run tree: a proof obligation (state, position), the
    transition discharging it, and the spawned children. A node flagged
    `drift` represents an infinite accepting branch that moves right forever
    from here on."""
    state: str
    position: int
    transition: Optional[int]
    children: tuple["TreeNode", ...] = ()
    drift: bool = False


@dataclass(frozen=True)
class TreeDefect:
    path: tuple[int, ...]
    reason: str


def validate_run_tree(automaton: A2A, word: ParameterWord,
                      root: TreeNode) -> Optional[TreeDefect]:
    """Check the four run-tree conditions node by node: the root obligation
    is (initial, 0); each node's transition matches its state and the letter
    (or first-position test) at its position; the children's relative moves
    include every move of the transition's conjunction; and each stem end
    either discharges true, with no children, or is a declared accepting
    drift."""
    if root.state != automaton.initial or root.position != 0:
        return TreeDefect((), "root is not (initial, 0)")
    drift = _drift_letters(automaton)

    def check(node: TreeNode, path: tuple[int, ...]) -> Optional[TreeDefect]:
        """The first defect of `node` itself, its children's moves too."""
        if node.position < 0:
            return TreeDefect(path, "negative position")
        if node.drift:
            if node.children:
                return TreeDefect(path, "a drift node must end its branch")
            if node.state not in automaton.accepting:
                return TreeDefect(path, "drift node in a non-accepting state")
            ok = drift.get(node.state, set())
            if BLANK not in ok:
                return TreeDefect(path, "state cannot drift over blanks")
            for p in range(node.position, len(word.prefix)):
                if word.letter(p) not in ok:
                    return TreeDefect(
                        path, f"drift blocked by {word.letter(p)!r} at {p}")
            return None
        if node.transition is None:
            return TreeDefect(path, "missing transition")
        if not 0 <= node.transition < len(automaton.transitions):
            return TreeDefect(path, f"no transition {node.transition}")
        t = automaton.transitions[node.transition]
        if t.state != node.state:
            return TreeDefect(path, "transition does not start in this state")
        if t.test == FIRST:
            if node.position != 0:
                return TreeDefect(path, "first-position test away from 0")
        elif word.letter(node.position) != t.test:
            return TreeDefect(
                path, f"letter {word.letter(node.position)!r} does not match "
                f"test {t.test!r}")
        moves = set()
        for k, child in enumerate(node.children):
            move = child.position - node.position
            if move not in MOVES:
                return TreeDefect(path + (k,), "child more than one step away")
            moves.add((child.state, move))
        if not set(t.formula) <= moves:
            return TreeDefect(path, "children do not satisfy the formula")
        return None

    # Preorder with an explicit stack, so the first defect is reported at
    # any depth.
    todo = [(root, ())]
    while todo:
        node, path = todo.pop()
        defect = check(node, path)
        if defect is not None:
            return defect
        todo.extend((child, path + (k,)) for k, child
                    in reversed(list(enumerate(node.children))))
    return None


def _index_by_state_test(automaton: A2A) -> dict[tuple[str, str], int]:
    table = {}
    for i, t in enumerate(automaton.transitions):
        table.setdefault((t.state, t.test), i)
    return table


def construct_accepting_tree(translated: ReachA2A,
                             witness: ReachWitness) -> TreeNode:
    """The accepting run tree for a reachability witness, on the canonical
    word encoding its instantiation: the main branch replays the run at
    delimiter positions, side branches discharge the tests, and one verifier
    branch per parameter checks the word shape."""
    machine = translated.machine
    automaton = translated.automaton
    defect = validate_run(machine, witness.gamma, witness.run)
    if defect is not None:
        raise TreeError(f"witness run does not validate: {defect.reason}")
    if witness.run.configs[-1].state != translated.target:
        raise TreeError("witness does not end in the target state")
    word = encode_gamma(witness.gamma, order=machine.params)
    lookup = _index_by_state_test(automaton)
    enc = word.delimiter_position
    pos_of = word.parameter_position

    def chain(state: str, start: int, end: int, step: int,
              last: TreeNode) -> TreeNode:
        """Nodes for `state` from position `start` towards `end` (exclusive),
        each consuming one letter and moving by `step`; `last` hangs below
        the node at `end`."""
        node = last
        for p in range(end - step, start - step, -step):
            node = TreeNode(state, p, lookup[(state, word.letter(p))], (node,))
        return node

    node = TreeNode(translated.target,
                    enc(witness.run.configs[-1].value),
                    translated.accept_index)
    for i in range(len(witness.run.steps) - 1, -1, -1):
        step = witness.run.steps[i]
        here = witness.run.configs[i]
        op = machine.transitions[step].op
        main_transition = translated.step_index[step]
        position = enc(here.value)
        if isinstance(op, Update) and op.delta != 0:
            target_state = machine.transitions[step].target
            shuttle = _right(target_state) if op.delta > 0 else _left(target_state)
            landing = enc(here.value + op.delta)
            inner = TreeNode(shuttle, landing, lookup[(shuttle, BLANK)], (node,))
            inner = chain(shuttle, position + op.delta, landing, op.delta, inner)
            node = TreeNode(here.state, position, main_transition, (inner,))
        elif isinstance(op, Update) or isinstance(op, ConstTest):
            node = TreeNode(here.state, position, main_transition, (node,))
        elif op.rel == "=":
            x = op.param
            side = TreeNode(_present(x), pos_of(x), lookup[(_present(x), x)])
            side = chain(_present(x), position + 1, pos_of(x), +1, side)
            node = TreeNode(here.state, position, main_transition, (node, side))
        elif op.rel == "<":
            x = op.param
            side = TreeNode(_seen(x), pos_of(x) + 1, None, drift=True)
            side = TreeNode(_find(x), pos_of(x), lookup[(_find(x), x)], (side,))
            side = chain(_find(x), enc(here.value + 1) + 1, pos_of(x), +1, side)
            hop = TreeNode(_scan(x), enc(here.value + 1),
                           lookup[(_scan(x), BLANK)], (side,))
            side = chain(_scan(x), position + 1, enc(here.value + 1), +1, hop)
            node = TreeNode(here.state, position, main_transition, (node, side))
        else:
            x = op.param
            side = TreeNode(_seen(x), position + 1, None, drift=True)
            node = TreeNode(here.state, position, main_transition, (node, side))

    verifiers = []
    for x in machine.params:
        tail = TreeNode(_seen(x), pos_of(x) + 1, None, drift=True)
        branch = TreeNode(_find(x), pos_of(x), lookup[(_find(x), x)], (tail,))
        branch = chain(_find(x), 1, pos_of(x), +1, branch)
        verifiers.append(branch)
    return TreeNode(INIT, 0, translated.init_index, (node, *verifiers))


def extract_run(translated: ReachA2A, root: TreeNode,
                word: ParameterWord) -> ReachWitness:
    """Recover the reachability witness from an accepting run tree on `word`
    by walking its main branch and reading counter values off the delimiter
    positions."""
    machine = translated.machine
    gamma = decode(word)
    mains = [c for c in root.children if c.state == machine.initial
             and c.position == 0]
    if root.state != INIT or not mains:
        raise TreeError("tree does not embed a main branch")
    node = mains[0]
    configs = [Config(machine.initial, 0)]
    steps: list[int] = []
    while True:
        if node.transition == translated.accept_index:
            break
        if node.transition is None:
            raise TreeError("main branch ended without accepting")
        step = translated.origin.get(node.transition)
        if step is None:
            raise TreeError("main branch left the machine simulation")
        transition = machine.transitions[step]
        steps.append(step)
        value = configs[-1].value
        if isinstance(transition.op, Update):
            value += transition.op.delta
        configs.append(Config(transition.target, value))
        follow = [c for c in node.children
                  if c.state in machine.states
                  or c.state in (_right(transition.target),
                                 _left(transition.target))]
        if not follow:
            raise TreeError("main branch broke off")
        node = follow[0]
        while node.state not in machine.states:
            if len(node.children) != 1:
                raise TreeError("shuttle node must have exactly one child")
            node = node.children[0]
    run = Run(tuple(configs), tuple(steps))
    witness = ReachWitness(gamma, run)
    defect = validate_run(machine, gamma, run)
    if defect is not None:
        raise TreeError(f"extracted run does not validate: {defect.reason}")
    if run.configs[-1].state != translated.target:
        raise TreeError("extracted run does not reach the target")
    return witness
