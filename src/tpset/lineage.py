"""Boolean lineage formulas over independent base atoms.

A lineage is a propositional formula whose leaves are atom identifiers.
Each atom stands for one base tuple and carries an independent marginal
probability. Formulas are plain immutable trees; the module deliberately
performs no algebraic simplification anywhere, so the shape a caller
builds is the shape that gets stored, printed and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from typing import Mapping, Optional, Union

__all__ = [
    "Atom",
    "Not",
    "And",
    "Or",
    "Lineage",
    "ProbAssignment",
    "LineageError",
    "LineageSyntaxError",
    "MissingAtomError",
    "RepeatBudgetError",
    "MAX_REPEATED_ATOMS",
    "and_fn",
    "and_not_fn",
    "or_fn",
    "base_atoms",
    "atom_occurrences",
    "is_one_occurrence_form",
    "canonicalize",
    "syntactic_equiv",
    "probability",
    "parse_lineage",
    "print_lineage",
]

# atom id -> marginal probability, each in (0, 1]
ProbAssignment = Mapping[str, float]

# Exact evaluation of a formula with k repeated atoms costs 2^k conditional
# passes. 2^25 is a few seconds of work; beyond that we refuse rather than
# silently hang.
MAX_REPEATED_ATOMS = 25


class LineageError(ValueError):
    """Base class for lineage failures."""


class LineageSyntaxError(LineageError):
    """Raised by the text parser; carries a 1-based column position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"column {position}: {message}")
        self.position = position


class MissingAtomError(LineageError):
    """An atom in the formula has no probability in the assignment."""


class RepeatBudgetError(LineageError):
    """Too many distinct repeated atoms for exact evaluation."""


@dataclass(frozen=True, slots=True)
class Atom:
    id: str


@dataclass(frozen=True, slots=True)
class Not:
    child: "Lineage"


@dataclass(frozen=True, slots=True)
class And:
    left: "Lineage"
    right: "Lineage"


@dataclass(frozen=True, slots=True)
class Or:
    left: "Lineage"
    right: "Lineage"


Lineage = Union[Atom, Not, And, Or]


# ---------------------------------------------------------------------------
# concatenation functions
#
# These combine the lineages of two aligned tuples. Absence of a tuple is
# modelled as None, never as a formula, and the combinators below are the
# only places that interpret None. All three build the result purely
# syntactically.
# ---------------------------------------------------------------------------


def and_fn(lam1: Optional[Lineage], lam2: Optional[Lineage]) -> Lineage:
    """Conjunction. Both sides must be present."""
    if lam1 is None or lam2 is None:
        raise LineageError("and_fn requires both lineages to be present")
    return And(lam1, lam2)


def and_not_fn(lam1: Optional[Lineage], lam2: Optional[Lineage]) -> Lineage:
    """First side minus the second. lam2 may be absent; lam1 may not."""
    if lam1 is None:
        raise LineageError("and_not_fn requires the first lineage to be present")
    if lam2 is None:
        return lam1
    return And(lam1, Not(lam2))


def or_fn(lam1: Optional[Lineage], lam2: Optional[Lineage]) -> Lineage:
    """Disjunction. A lone side passes through unchanged."""
    if lam1 is None:
        if lam2 is None:
            raise LineageError("or_fn requires at least one lineage")
        return lam2
    if lam2 is None:
        return lam1
    return Or(lam1, lam2)


# ---------------------------------------------------------------------------
# structure queries
# ---------------------------------------------------------------------------


def _postfix(lam: Lineage) -> list:
    # The formula in postfix order: atom ids, and the classes Not, And
    # and Or for the operators. Built over an explicit stack, since
    # composed query results nest deeper than the recursion limit.
    code: list = []
    stack: list = [lam]
    while stack:
        node = stack.pop()
        if type(node) is Atom:
            code.append(node.id)
        elif type(node) is type:
            code.append(node)
        elif type(node) is Not:
            stack += (Not, node.child)
        else:
            stack += (type(node), node.right, node.left)
    return code


def _count_ids(code: list) -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in code:
        if type(op) is str:
            counts[op] = counts.get(op, 0) + 1
    return counts


def _count_atoms(lam: Lineage) -> dict[str, int]:
    return _count_ids(_postfix(lam))


def base_atoms(lam: Lineage) -> frozenset[str]:
    """The set of atom ids occurring in the formula."""
    return frozenset(_count_atoms(lam))


def atom_occurrences(lam: Lineage) -> int:
    """Total number of atom leaves, counting repeats."""
    return sum(_count_atoms(lam).values())


def is_one_occurrence_form(lam: Lineage) -> bool:
    """True when no atom id occurs more than once."""
    counts = _count_atoms(lam)
    return all(c == 1 for c in counts.values())


# ---------------------------------------------------------------------------
# canonical form and syntactic equivalence
# ---------------------------------------------------------------------------


def canonicalize(lam: Lineage) -> Lineage:
    """Normalize for comparison: flatten nested chains of the same
    commutative operator and sort the collected operands by a
    deterministic structural key. Negation is left where it stands.
    The result is a left-nested chain, so equal canonical forms are
    structurally equal trees.
    """
    return _canonical(lam)[1]


def _operands(node: Union[And, Or]) -> list[Lineage]:
    # the maximal subtrees under a chain of node's operator
    parts: list[Lineage] = []
    stack: list[Lineage] = [node]
    while stack:
        top = stack.pop()
        if type(top) is type(node):
            stack += (top.left, top.right)
        else:
            parts.append(top)
    return parts


_KEY_TOKEN = {Not: "!(", And: "&(", Or: "|("}


def _canonical(lam: Lineage) -> tuple[str, Lineage]:
    """The structural key and the canonical form. The key is the
    preorder serialization of the canonical tree, so equal keys mean
    equal trees. Postorder over an explicit stack, where an (operator,
    operand count) item combines the operands' results."""
    out: list[tuple[str, Lineage]] = []
    stack: list = [lam]
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            op, n = item
            canon = sorted(out[-n:], key=itemgetter(0))
            del out[-n:]
            trees = [c for _, c in canon]
            tree = Not(trees[0]) if op is Not else reduce(op, trees)
            tokens = [_KEY_TOKEN[op]] * max(1, n - 1)
            out.append(("\x00".join(tokens + [k for k, _ in canon]), tree))
        elif type(item) is Atom:
            out.append(("a:" + item.id, item))
        else:
            parts = [item.child] if type(item) is Not else _operands(item)
            stack.append((type(item), len(parts)))
            stack += parts
    return out[0]


def syntactic_equiv(lam1: Optional[Lineage], lam2: Optional[Lineage]) -> bool:
    """Equivalence up to flattening/reordering of & and | chains.

    Sound but deliberately incomplete: logically equal formulas with
    different structure (say distributed vs factored) compare unequal.
    Both-absent compares equal; absent never equals a formula.
    """
    if lam1 is None or lam2 is None:
        return lam1 is None and lam2 is None
    if lam1 is lam2:
        return True
    # canonical forms keep every leaf, so differing atom counts settle it
    if _count_atoms(lam1) != _count_atoms(lam2):
        return False
    return _canonical(lam1)[0] == _canonical(lam2)[0]


# ---------------------------------------------------------------------------
# probability
# ---------------------------------------------------------------------------


def probability(lam: Lineage, probs: ProbAssignment) -> float:
    """Exact marginal probability of the formula under independent atoms.

    One-occurrence formulas evaluate in a single linear pass. Otherwise
    every atom that occurs more than once is pinned to true/false by
    Shannon expansion and the pinned residue (one-occurrence by
    construction) is evaluated linearly, which stays exact.
    """
    code = _postfix(lam)
    counts = _count_ids(code)
    try:
        # each atom is looked up once; the passes below read this dict
        vals = {a: probs[a] for a in counts}
    except KeyError:
        missing = sorted(a for a in counts if a not in probs)
        raise MissingAtomError(
            "no probability for atom(s): " + ", ".join(missing)
        ) from None
    repeated = sorted(a for a, c in counts.items() if c > 1)
    if len(repeated) > MAX_REPEATED_ATOMS:
        raise RepeatBudgetError(
            f"{len(repeated)} repeated atoms exceeds the exact-evaluation "
            f"budget of {MAX_REPEATED_ATOMS}"
        )
    return _shannon(code, vals, repeated)


def _shannon(code: list, vals: dict[str, float], repeated: list[str]) -> float:
    if not repeated:
        return _eval_pinned(code, vals)
    atom = repeated[0]
    p = vals[atom]
    vals[atom] = 1.0
    hi = _shannon(code, vals, repeated[1:])
    vals[atom] = 0.0
    lo = _shannon(code, vals, repeated[1:])
    vals[atom] = p
    return p * hi + (1.0 - p) * lo


def or_prob(p, q):
    """P(l1 or l2) of independent l1, l2. Unlike 1 - (1-p)(1-q), it
    never rounds a positive result to 0."""
    return p + q * (1.0 - p)


def _eval_pinned(code: list, vals: dict[str, float]) -> float:
    # Exact when every repeated atom is pinned to 0 or 1 in vals: the
    # remaining free atoms occur once each, so subformulas are
    # independent.
    out: list[float] = []
    for op in code:
        if op is And:
            q = out.pop()
            out[-1] *= q
        elif op is Or:
            q = out.pop()
            out[-1] = or_prob(out[-1], q)
        elif op is Not:
            out[-1] = 1.0 - out[-1]
        else:
            out.append(vals[op])
    return out[0]


# ---------------------------------------------------------------------------
# text form
#
#   or_expr  := and_expr ('|' and_expr)*
#   and_expr := unary ('&' unary)*
#   unary    := '!' unary | atom | '(' or_expr ')'
#
# & binds tighter than |, ! tighter than both, chains are left
# associative, whitespace is insignificant. Atom ids match
# [A-Za-z_][A-Za-z0-9_]*.
# ---------------------------------------------------------------------------


def parse_lineage(text: str) -> Lineage:
    """Parse the text form. Raises LineageSyntaxError with a 1-based
    column position on bad input."""
    parser = _Parser(text)
    node = parser.parse_or()
    parser.expect_end()
    return node


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based index into text

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def _fail(self, message: str) -> None:
        raise LineageSyntaxError(message, self.pos + 1)

    def parse_or(self) -> Lineage:
        node = self.parse_and()
        while self._peek() == "|":
            self.pos += 1
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Lineage:
        node = self.parse_unary()
        while self._peek() == "&":
            self.pos += 1
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Lineage:
        ch = self._peek()
        if ch == "!":
            self.pos += 1
            return Not(self.parse_unary())
        if ch == "(":
            self.pos += 1
            node = self.parse_or()
            if self._peek() != ")":
                self._fail("expected ')'")
            self.pos += 1
            return node
        if ch == "" or not (ch.isalpha() or ch == "_"):
            self._fail("expected an atom, '!' or '('")
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return Atom(self.text[start : self.pos])

    def expect_end(self) -> None:
        if self._peek() != "":
            self._fail("unexpected trailing input")


def print_lineage(lam: Lineage) -> str:
    """Render with minimal parentheses.

    Lower-precedence children are parenthesized, as is a same-operator
    right child, so left-nested chains print flat and the original tree
    shape survives a parse round trip.
    """
    # Preorder over an explicit stack of nodes and literal text.
    out: list[str] = []
    stack: list = [lam]
    while stack:
        node = stack.pop()
        if type(node) is str:
            out.append(node)
        elif type(node) is Atom:
            out.append(node.id)
        elif type(node) is Not:
            if type(node.child) is Atom:
                out.append("!" + node.child.id)
            else:
                stack += (")", node.child, "!(")
        else:
            op = type(node)
            # & binds tighter than |, and chains nest to the left
            wrap_left = op is And and type(node.left) is Or
            wrap_right = type(node.right) is Or or type(node.right) is op
            stack += (")", node.right, "(") if wrap_right else (node.right,)
            stack.append(" & " if op is And else " | ")
            stack += (")", node.left, "(") if wrap_left else (node.left,)
    return "".join(out)
