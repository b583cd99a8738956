"""Freeze LTL: syntax, parser, negation normal form, the flat fragment, and
an exact evaluator over ultimately periodic data words, whose loop may gain
counter value on each pass.

The freeze quantifier `@r.` stores the current counter value in register r;
register tests `[=r]`, `[<r]`, `[>r]` compare the current value with the
stored one. The flat fragment restricts where the freeze quantifier may occur
relative to until/release and negation; see flat_violation.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Optional, Union

from flatmc.machines import NAME_RE


class FormulaError(ValueError):
    """A formula failed a structural requirement (sentence, flatness, ...)."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------

def _node(cls):
    """Make `cls` a formula node: a frozen dataclass whose hash, the one the
    dataclass would compute from its fields, is computed on first use and
    stored. Formulas are keys of the tableau's sets, of `evaluate`'s memo
    and of the caches of `parse` and the tableau, and the generated hash
    would walk the whole subtree on every lookup; a formula that is only
    built and rendered is never hashed. The stored value is no field, so
    `repr` and `==` ignore it. Equality is the dataclass's, field by field
    between nodes of one class, but walked without recursion (`_equal`),
    so that trees of any depth compare."""

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _store_hashes(self)
            return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _equal(self, other)

    # Methods of its own, which `dataclass` keeps.
    cls.__hash__ = __hash__
    cls.__eq__ = __eq__
    return dataclass(frozen=True)(cls)


def _equal(phi: Formula, psi: Formula) -> bool:
    """Whether two nodes of one class have equal fields, compared without
    recursion: operands pairwise on an explicit stack, where a shared
    subtree is equal at once."""
    todo = [(phi, psi)]
    while todo:
        f, g = todo.pop()
        if f is g:
            continue
        if f.__class__ is not g.__class__:
            return False
        operands = [name for name, _ in _OPERANDS.get(type(f), ())]
        for name in type(f).__match_args__:
            left, right = getattr(f, name), getattr(g, name)
            if name in operands:
                todo.append((left, right))
            elif left != right:
                return False
    return True


def _store_hashes(phi: Formula) -> None:
    """Store the hash of every node of `phi` that has none yet, operands
    before the operator, without recursion, so that any depth hashes."""
    todo = [phi]
    while todo:
        f = todo[-1]
        fresh = [child for name, _ in _OPERANDS.get(type(f), ())
                 if "_hash" not in vars(child := getattr(f, name))]
        if fresh:
            todo.extend(fresh)
            continue
        todo.pop()
        object.__setattr__(f, "_hash", hash(tuple(
            getattr(f, name) for name in type(f).__match_args__)))


@_node
class Prop:
    name: str


@_node
class Neg:
    body: "Formula"


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Or:
    left: "Formula"
    right: "Formula"


@_node
class Next:
    body: "Formula"


@_node
class Until:
    left: "Formula"
    right: "Formula"


@_node
class Release:
    left: "Formula"
    right: "Formula"


@_node
class RegTest:
    rel: str  # '<', '=', '>'
    reg: str


@_node
class Freeze:
    reg: str
    body: "Formula"


Formula = Union[Prop, Neg, And, Or, Next, Until, Release, RegTest, Freeze]

# `true` and `false` are derived forms over a reserved proposition, following
# the textbook definition true = p | !p; they expand at construction time.
TRUE_PROP = "tt"


def true_formula() -> Formula:
    return Or(Prop(TRUE_PROP), Neg(Prop(TRUE_PROP)))


def false_formula() -> Formula:
    return And(Prop(TRUE_PROP), Neg(Prop(TRUE_PROP)))


def finally_(body: Formula) -> Formula:
    return Until(true_formula(), body)


def globally(body: Formula) -> Formula:
    return Neg(Until(true_formula(), Neg(body)))


def implies(left: Formula, right: Formula) -> Formula:
    return Or(Neg(left), right)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(r"->|[()&|!@.\[\]<=>]|[A-Za-z0-9_]+")
_KEYWORDS = {"U", "R", "X", "F", "G", "true", "false"}

# `parse` rejects formulas nested deeper than this, in the text (each
# parenthesis and each operand of a unary, U, R or -> operator opens a level)
# or in the built tree, measured by `_depth`. Deeper formulas would overflow
# the recursive parser, or the recursive traversals that follow, such as
# `nnf` and `evaluate`.
MAX_DEPTH = 100

# How many formulas `parse` keeps, by text, for the texts it reads again.
_PARSE_CACHE_SIZE = 128


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, int]] = []
        pos = _SPACE.match(text).end()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise FormulaSyntaxError(
                    f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.group(), pos))
            pos = _SPACE.match(text, m.end()).end()
        self.index = 0
        self.depth = 0

    def peek(self) -> Optional[str]:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def here(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula", self.here())
        self.index += 1
        return tok

    def expect(self, token: str) -> None:
        at = self.here()
        if self.peek() != token:
            raise FormulaSyntaxError(f"expected {token!r}", at)
        self.index += 1

    def ident(self, what: str) -> str:
        at = self.here()
        tok = self.take()
        if not NAME_RE.match(tok) or tok in _KEYWORDS:
            raise FormulaSyntaxError(f"expected {what}", at)
        return tok

    def nested(self, part) -> Formula:
        """Parse a nested operand with `part`, one level deeper."""
        if self.depth == MAX_DEPTH:
            raise FormulaSyntaxError(
                f"formula nests deeper than {MAX_DEPTH} levels", self.here())
        self.depth += 1
        result = part()
        self.depth -= 1
        return result

    # Binary operators from loosest to tightest; U/R and -> associate to the
    # right, & and | to the left.
    def formula(self) -> Formula:
        return self.until_level()

    def until_level(self) -> Formula:
        left = self.implies_level()
        tok = self.peek()
        if tok in ("U", "R"):
            self.take()
            right = self.nested(self.until_level)
            return Until(left, right) if tok == "U" else Release(left, right)
        return left

    def implies_level(self) -> Formula:
        left = self.or_level()
        if self.peek() == "->":
            self.take()
            return implies(left, self.nested(self.implies_level))
        return left

    def or_level(self) -> Formula:
        left = self.and_level()
        while self.peek() == "|":
            self.take()
            left = Or(left, self.and_level())
        return left

    def and_level(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Neg(self.nested(self.unary))
        if tok == "X":
            self.take()
            return Next(self.nested(self.unary))
        if tok == "F":
            self.take()
            return finally_(self.nested(self.unary))
        if tok == "G":
            self.take()
            return globally(self.nested(self.unary))
        if tok == "@":
            self.take()
            reg = self.ident("register name")
            self.expect(".")
            return Freeze(reg, self.nested(self.unary))
        return self.atom()

    def atom(self) -> Formula:
        at = self.here()
        tok = self.take()
        if tok == "true":
            return true_formula()
        if tok == "false":
            return false_formula()
        if tok == "(":
            inner = self.nested(self.formula)
            self.expect(")")
            return inner
        if tok == "[":
            rel_at = self.here()
            rel = self.take()
            if rel not in ("<", "=", ">"):
                raise FormulaSyntaxError("expected <, =, or > in register test",
                                         rel_at)
            reg = self.ident("register name")
            self.expect("]")
            return RegTest(rel, reg)
        if NAME_RE.match(tok) and tok not in _KEYWORDS:
            return Prop(tok)
        raise FormulaSyntaxError(f"unexpected token {tok!r}", at)


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse(text: str) -> Formula:
    """The formula written in `text`; a FormulaError if it is malformed or
    nests deeper than MAX_DEPTH. The most recently parsed texts keep their
    formulas, which are immutable, and a text read again gets the same
    one; an error is raised anew on every call."""
    parser = _Parser(text)
    result = parser.formula()
    if parser.peek() is not None:
        raise FormulaSyntaxError(f"trailing input {parser.peek()!r}",
                                 parser.here())
    if _depth(result) > MAX_DEPTH:
        # Left-associative & and | chains nest in the tree only, and F, G,
        # -> and true expand into levels that `render` writes out.
        raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels")
    return result


def _depth(phi: Formula) -> int:
    """The nesting depth of `phi`, found without recursion: the most levels
    above a leaf, where each operator node is a level and so is each pair of
    parentheses `render` puts around an operand. It is at least the depth
    of the tree and at least the text nesting the parser counts in
    `render(phi)`, so every formula `parse` accepts renders to text it
    accepts again."""
    deepest = 0
    todo = [(phi, 0)]
    while todo:
        f, depth = todo.pop()
        deepest = max(deepest, depth)
        for name, minimum in _OPERANDS.get(type(f), ()):
            child = getattr(f, name)
            todo.append((child, depth + 1 + (_prec(child) < minimum)))
    return deepest


_PREC = {Until: 1, Release: 1, Or: 3, And: 4}

# The operands of each operator, with the least precedence an operand may
# have before `render` puts it in parentheses.
_OPERANDS = {
    Neg: (("body", 5),),
    Next: (("body", 5),),
    Freeze: (("body", 5),),
    And: (("left", 4), ("right", 5)),
    Or: (("left", 3), ("right", 4)),
    Until: (("left", 2), ("right", 1)),
    Release: (("left", 2), ("right", 1)),
}
_INFIX = {And: "&", Or: "|", Until: "U", Release: "R"}


def _prec(phi: Formula) -> int:
    return _PREC.get(type(phi), 5)


def render(phi: Formula) -> str:
    """Concrete syntax for `phi`; parse(render(phi)) == phi. Written left to
    right without recursion, from a stack of formulas and literal text, and
    joined once, so it takes time linear in its length at any depth."""
    pieces: list[str] = []
    todo: list = [phi]
    while todo:
        f = todo.pop()
        if isinstance(f, str):
            pieces.append(f)
        elif isinstance(f, Prop):
            pieces.append(f.name)
        elif isinstance(f, RegTest):
            pieces.append(f"[{f.rel}{f.reg}]")
        else:
            operands = []
            for name, minimum in _OPERANDS[type(f)]:
                child = getattr(f, name)
                operands.append(("(", child, ")") if _prec(child) < minimum
                                else (child,))
            if isinstance(f, Freeze):
                text = (f"@{f.reg}. ", *operands[0])
            elif isinstance(f, (Neg, Next)):
                text = ("!" if isinstance(f, Neg) else "X ", *operands[0])
            else:
                text = (*operands[0], f" {_INFIX[type(f)]} ", *operands[1])
            todo.extend(reversed(text))
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Structural analyses
# ---------------------------------------------------------------------------

def subformulas(phi: Formula):
    """All subformula occurrences, outermost first."""
    yield phi
    if isinstance(phi, (Neg, Next, Freeze)):
        yield from subformulas(phi.body)
    elif isinstance(phi, (And, Or, Until, Release)):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)


def contains_freeze(phi: Formula) -> bool:
    return any(isinstance(f, Freeze) for f in subformulas(phi))


def nnf(phi: Formula) -> Formula:
    """Negation normal form: negations pushed down to propositions. Negated
    register tests are expanded into the disjunction of the two complementary
    comparisons, which is sound over the totally ordered naturals."""
    return _nnf(phi, True)


_REG_COMPLEMENT = {"=": ("<", ">"), "<": ("=", ">"), ">": ("=", "<")}


def _nnf(phi: Formula, positive: bool) -> Formula:
    if isinstance(phi, Prop):
        return phi if positive else Neg(phi)
    if isinstance(phi, RegTest):
        if positive:
            return phi
        a, b = _REG_COMPLEMENT[phi.rel]
        return Or(RegTest(a, phi.reg), RegTest(b, phi.reg))
    if isinstance(phi, Neg):
        return _nnf(phi.body, not positive)
    if isinstance(phi, And):
        parts = (_nnf(phi.left, positive), _nnf(phi.right, positive))
        return And(*parts) if positive else Or(*parts)
    if isinstance(phi, Or):
        parts = (_nnf(phi.left, positive), _nnf(phi.right, positive))
        return Or(*parts) if positive else And(*parts)
    if isinstance(phi, Next):
        return Next(_nnf(phi.body, positive))
    if isinstance(phi, Until):
        parts = (_nnf(phi.left, positive), _nnf(phi.right, positive))
        return Until(*parts) if positive else Release(*parts)
    if isinstance(phi, Release):
        parts = (_nnf(phi.left, positive), _nnf(phi.right, positive))
        return Release(*parts) if positive else Until(*parts)
    # The freeze quantifier binds deterministically, so negation commutes
    # with it.
    return Freeze(phi.reg, _nnf(phi.body, positive))


def flat_violation(phi: Formula, parity: int = 0):
    """The first (subformula, polarity) pair breaking the flat fragment's
    rule, or None. Under an even number of negations the freeze quantifier
    must not occur in the first argument of an until or the second argument
    of a release; under an odd number, in the other argument."""
    if isinstance(phi, (Prop, RegTest)):
        return None
    if isinstance(phi, Neg):
        return flat_violation(phi.body, parity ^ 1)
    if isinstance(phi, (Next, Freeze)):
        return flat_violation(phi.body, parity)
    if isinstance(phi, (Until, Release)):
        if isinstance(phi, Until):
            guarded = phi.left if parity == 0 else phi.right
        else:
            guarded = phi.right if parity == 0 else phi.left
        if contains_freeze(guarded):
            return phi, ("positive" if parity == 0 else "negative")
    return (flat_violation(phi.left, parity)
            or flat_violation(phi.right, parity))


def is_flat(phi: Formula) -> bool:
    return flat_violation(phi) is None


def is_coflat(phi: Formula) -> bool:
    """Whether the negation of `phi` is flat."""
    return flat_violation(phi, parity=1) is None


def free_registers(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Prop):
        return frozenset()
    if isinstance(phi, RegTest):
        return frozenset((phi.reg,))
    if isinstance(phi, (Neg, Next)):
        return free_registers(phi.body)
    if isinstance(phi, Freeze):
        return free_registers(phi.body) - {phi.reg}
    return free_registers(phi.left) | free_registers(phi.right)


def is_sentence(phi: Formula) -> bool:
    """Whether every register test is in the scope of a freeze quantifier for
    its register."""
    return not free_registers(phi)


def all_registers(phi: Formula) -> set[str]:
    regs = set()
    for f in subformulas(phi):
        if isinstance(f, RegTest):
            regs.add(f.reg)
        elif isinstance(f, Freeze):
            regs.add(f.reg)
    return regs


def rename_registers(phi: Formula) -> Formula:
    """Give every freeze occurrence its own register, re-pointing bound tests
    to the innermost enclosing binder of their original name. Requires a
    sentence; evaluation-equivalent to the input."""
    taken = all_registers(phi)
    counter = itertools.count(1)

    def fresh(base: str) -> str:
        while True:
            candidate = f"{base}_{next(counter)}"
            if candidate not in taken:
                taken.add(candidate)
                return candidate

    def walk(f: Formula, env: dict) -> Formula:
        if isinstance(f, Prop):
            return f
        if isinstance(f, RegTest):
            if f.reg not in env:
                raise FormulaError(
                    f"free register test [{f.rel}{f.reg}]: not a sentence")
            return RegTest(f.rel, env[f.reg])
        if isinstance(f, Freeze):
            renamed = fresh(f.reg)
            return Freeze(renamed, walk(f.body, {**env, f.reg: renamed}))
        if isinstance(f, Neg):
            return Neg(walk(f.body, env))
        if isinstance(f, Next):
            return Next(walk(f.body, env))
        return type(f)(walk(f.left, env), walk(f.right, env))

    return walk(phi, {})


# ---------------------------------------------------------------------------
# Data words and evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LassoWord:
    """An ultimately periodic data word: a finite prefix followed by a
    forever-repeated loop of (proposition set, counter value) pairs, whose
    values rise by `gain` on each pass."""
    prefix: tuple[tuple[frozenset[str], int], ...]
    loop: tuple[tuple[frozenset[str], int], ...]
    gain: int = 0

    def __post_init__(self):
        if not self.loop:
            raise FormulaError("lasso words need a nonempty loop")
        if self.gain < 0:
            raise FormulaError("the loop gain must be non-negative")
        normalize = tuple(
            (frozenset(props), value) for props, value in self.prefix)
        object.__setattr__(self, "prefix", normalize)
        normalize = tuple(
            (frozenset(props), value) for props, value in self.loop)
        object.__setattr__(self, "loop", normalize)
        for props, value in (*self.prefix, *self.loop):
            if value < 0:
                raise FormulaError("counter values must be non-negative")

    def at(self, i: int) -> tuple[frozenset[str], int]:
        if i < len(self.prefix):
            return self.prefix[i]
        passes, j = divmod(i - len(self.prefix), len(self.loop))
        props, value = self.loop[j]
        return props, value + passes * self.gain

    def span(self) -> int:
        return len(self.prefix) + len(self.loop)


def evaluate(word: LassoWord, position: int, assignment, phi: Formula) -> bool:
    """Exact satisfaction of `phi` at `position` of `word` under the register
    assignment.

    A position in loop pass k reads as the same position in pass 0 with
    every register lowered by k * gain: all values shift alike, so every
    comparison reads the same. In the loop, a register below the least loop
    value compares like any value below it, so it is raised to one below
    that value. Registers thus only fall from pass to pass, and not below
    that floor, so until and release walk finitely many (position,
    registers) states before one repeats. Results are memoized per
    (position, subformula, values of its free registers)."""
    start = len(word.prefix)
    floor = min(value for _props, value in word.loop) - 1
    memo: dict = {}
    free_cache: dict = {}

    def free(f: Formula) -> frozenset[str]:
        got = free_cache.get(f)
        if got is None:
            got = free_cache[f] = free_registers(f)
        return got

    def canonical(i: int, nu: dict) -> tuple[int, dict]:
        """Position i under `nu` as a position of pass 0 or the prefix."""
        if i < start:
            return i, nu
        passes, j = divmod(i - start, len(word.loop))
        if word.gain:
            lower = passes * word.gain
            nu = {r: max(v - lower, floor) for r, v in nu.items()}
        return start + j, nu

    def state(f: Formula, i: int, nu: dict) -> tuple:
        return f, i, tuple(sorted((r, nu.get(r)) for r in free(f)))

    def sat(f: Formula, i: int, nu: dict) -> bool:
        i, nu = canonical(i, nu)
        key = state(f, i, nu)
        got = memo.get(key)
        if got is not None:
            return got
        result = _sat(f, i, nu)
        memo[key] = result
        return result

    def _sat(f: Formula, i: int, nu: dict) -> bool:
        if isinstance(f, Prop):
            return f.name in word.at(i)[0]
        if isinstance(f, RegTest):
            if f.reg not in nu:
                raise FormulaError(f"register {f.reg!r} is unassigned")
            value, bound = word.at(i)[1], nu[f.reg]
            if f.rel == "<":
                return value < bound
            if f.rel == "=":
                return value == bound
            return value > bound
        if isinstance(f, Neg):
            return not sat(f.body, i, nu)
        if isinstance(f, And):
            return sat(f.left, i, nu) and sat(f.right, i, nu)
        if isinstance(f, Or):
            return sat(f.left, i, nu) or sat(f.right, i, nu)
        if isinstance(f, Next):
            return sat(f.body, i + 1, nu)
        if isinstance(f, Freeze):
            return sat(f.body, i, {**nu, f.reg: word.at(i)[1]})
        # Until and release walk forward until a (position, registers)
        # state repeats. Until holds where its right side first holds, and
        # fails where its left side fails before that or when the walk
        # closes; release is its dual. Every state of the walk has the
        # result of its end, so all are memoized and a later walk stops at
        # the first of them it meets.
        until = isinstance(f, Until)
        walk = set()
        while True:
            i, nu = canonical(i, nu)
            here = state(f, i, nu)
            result = memo.get(here)
            if result is not None:
                break
            if here in walk:
                result = not until
                break
            walk.add(here)
            if sat(f.right, i, nu) == until:
                result = until
                break
            if sat(f.left, i, nu) != until:
                result = not until
                break
            i += 1
        for here in walk:
            memo[here] = result
        return result

    return sat(phi, position, dict(assignment))
