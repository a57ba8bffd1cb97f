"""Boolean lineage formulas over independent base atoms.

A lineage is a propositional formula whose leaves are atom identifiers.
Each atom stands for one base tuple and carries an independent marginal
probability. Formulas are plain immutable trees; the module deliberately
performs no algebraic simplification anywhere, so the shape a caller
builds is the shape that gets stored, printed and compared.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Union

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
# infix text: lineage and tpset query expressions both go through one
# shunting-yard routine, and callers fold its postfix over a stack
# ---------------------------------------------------------------------------


def tokenize(pattern: re.Pattern, text: str) -> list[tuple[str, int]]:
    """(token, 1-based position) pairs, then the end marker ("", end).
    pattern has two groups: the whitespace before a token, the token."""
    pairs = []
    pos = 1
    for space, tok in pattern.findall(text):
        pos += len(space)
        pairs.append((tok, pos))
        pos += len(tok)
    pairs.append(("", len(text) + 1))
    return pairs


def to_postfix(
    tokens: Iterable[tuple[str, int]],
    infix: Mapping[str, int],
    prefix: Optional[str],
    is_operand: Callable[[str], bool],
    error: Callable[[str, int], Exception],
) -> list[str]:
    """Reorder an infix token stream into postfix by shunting-yard.

    tokens end with the marker ("", end). infix maps each binary operator
    to its precedence (positive, higher binds tighter, left associative);
    prefix, if given, binds tightest; '(' and ')' group; every token
    is_operand accepts is an operand. Raises error(message, position) at
    the first token that cannot continue a well-formed expression.
    """
    out: list[str] = []
    # pending operators above a bottom marker; '(' and the marker have
    # precedence 0, so no binary operator pops them
    pending: list[tuple[float, str]] = [(0, "")]
    operand = True  # whether an operand comes next rather than an operator
    for tok, pos in tokens:
        if operand:
            if tok == "(":
                pending.append((0, tok))
            elif tok == prefix:
                pending.append((math.inf, tok))
            elif is_operand(tok):
                out.append(tok)
                operand = False
            else:
                raise error(f"unexpected '{tok}'" if tok else "unexpected end", pos)
        elif tok in infix:
            prec = infix[tok]
            while pending[-1][0] >= prec:
                out.append(pending.pop()[1])
            pending.append((prec, tok))
            operand = True
        else:
            # anything else closes the innermost '(' or ends the input
            while pending[-1][0]:
                out.append(pending.pop()[1])
            opener = pending[-1][1]
            if opener and tok == ")":
                pending.pop()
            elif opener:
                raise error("expected ')'", pos)
            elif tok:
                raise error(f"unexpected '{tok}'", pos)
            else:
                break
    return out


# The lineage operator table: & binds tighter than |, the prefix !
# tighter than both. An atom id starts with a character that is
# str.isalpha() or '_' and goes on with str.isalnum() or '_', as \w does.
_LINEAGE_TOKEN = re.compile(r"(\s*)(\w+|\S)")
_PRECEDENCE = {"|": 1, "&": 2}
_BINARY = {"|": Or, "&": And}
# A whole text that is one atom id with an ASCII first character; the
# tokenizer reads it as that one atom too.
_BARE_ATOM = re.compile(r"[A-Za-z_]\w*")


def _is_atom(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def parse_lineage(text: str) -> Lineage:
    """Parse the text form. Raises LineageSyntaxError with a 1-based
    column position on bad input."""
    if _BARE_ATOM.fullmatch(text):
        return Atom(text)
    tokens = tokenize(_LINEAGE_TOKEN, text)
    stack: list[Lineage] = []
    for tok in to_postfix(tokens, _PRECEDENCE, "!", _is_atom, LineageSyntaxError):
        if tok in _BINARY:
            right = stack.pop()
            stack[-1] = _BINARY[tok](stack[-1], right)
        elif tok == "!":
            stack[-1] = Not(stack[-1])
        else:
            stack.append(Atom(tok))
    return stack[0]


def needs_parens(op: type, child: type, right: bool = False) -> bool:
    """Whether a child node of class child prints in parentheses under
    an op node, as its right operand when right is set. Lower-precedence
    children are parenthesized, as is a same-operator right child, so
    left-nested chains print flat and the original tree shape survives a
    parse round trip. Only an atom follows '!' bare."""
    if op is Not:
        return child is not Atom
    if right:
        return child is Or or child is op
    # & binds tighter than |
    return op is And and child is Or


SEPARATOR = {And: " & ", Or: " | "}


def print_lineage(lam: Lineage) -> str:
    """Render with minimal parentheses (see needs_parens)."""
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
            if needs_parens(Not, type(node.child)):
                stack += (")", node.child, "!(")
            else:
                out.append("!" + node.child.id)
        else:
            op = type(node)
            left, right = node.left, node.right
            if needs_parens(op, type(right), right=True):
                stack += (")", right, "(")
            else:
                stack.append(right)
            stack.append(SEPARATOR[op])
            stack += (")", left, "(") if needs_parens(op, type(left)) else (left,)
    return "".join(out)
