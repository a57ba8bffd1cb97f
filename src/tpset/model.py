"""Core data model: facts, intervals, tuples, relations, windows.

A relation is stored column-wise in numpy arrays so the sweep kernel can
work on millions of rows, while rows materialize on demand as plain
frozen dataclasses for inspection and small-scale work. Time is discrete
(integer chronons) and every interval is half-open [ts, te).

Relations here are duplicate-free: no two tuples of the same fact may
have overlapping intervals. The invariant is checked explicitly by
validate_duplicate_free and enforced at the entry points that rely on it.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .lineage import Atom, Lineage, LineageError, ProbAssignment, base_atoms

__all__ = [
    "Fact",
    "Interval",
    "TpTuple",
    "TpRelation",
    "Window",
    "Leaf",
    "AtomTable",
    "RelationError",
    "AtomConflictError",
    "DuplicateFreeError",
    "validate_duplicate_free",
    "sort_relation",
]

# A fact is a tuple of attribute strings; all tuples of one relation
# share the same arity.
Fact = tuple[str, ...]


class RelationError(ValueError):
    """Malformed relation or misuse of an operation's precondition."""


class AtomConflictError(RelationError):
    """Row `row` gives its bare atom a second, different probability."""

    def __init__(self, row: int, atom: str, prev: float, p: float):
        super().__init__(
            f"atom {atom} already defined with probability {prev}, got {p}"
        )
        self.row = row


class DuplicateFreeError(RelationError):
    """Two tuples of the same fact overlap in time."""

    def __init__(self, first: "TpTuple", second: "TpTuple"):
        super().__init__(
            "duplicate-free violation: fact "
            + "|".join(first.fact)
            + f" has overlapping intervals {first.interval} and {second.interval}"
        )
        self.pair = (first, second)


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open chronon interval [ts, te), ts < te."""

    ts: int
    te: int

    def __post_init__(self):
        if not self.ts < self.te:
            raise ValueError(f"empty or inverted interval [{self.ts}, {self.te})")

    def __contains__(self, t: int) -> bool:
        return self.ts <= t < self.te

    def overlaps(self, other: "Interval") -> bool:
        return self.ts < other.te and other.ts < self.te

    def __str__(self) -> str:
        return f"[{self.ts}, {self.te})"


@dataclass(frozen=True, slots=True)
class TpTuple:
    """One temporal-probabilistic tuple."""

    fact: Fact
    lineage: Lineage
    interval: Interval
    p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"probability {self.p} outside (0, 1]")


@dataclass(frozen=True, slots=True)
class Window(object):
    """A maximal subinterval during which a fact is covered by fixed
    tuples of the two input relations. Either side's lineage may be
    absent (None), never both."""

    fact: Fact
    interval: Interval
    lam_r: Optional[Lineage]
    lam_s: Optional[Lineage]

    def __post_init__(self):
        if self.lam_r is None and self.lam_s is None:
            raise ValueError("window must be covered on at least one side")


# ---------------------------------------------------------------------------
# leaves and the lineage column
#
# Formula trees for millions of generated tuples would dwarf the numeric
# columns, so a relation's lineage is a column of node ids into a block:
# the Leaf of a base relation, which also owns the atoms its nodes define
# or mention, or the OpBlock a set operation appends over its operands'
# blocks. No block is ever copied: reordering or filtering a relation
# only re-indexes its node ids. Formulas, and the TSV writer's texts, are
# built block by block of rows in one bottom-up walk over the blocks.
# ---------------------------------------------------------------------------


class Leaf:
    """The lineage nodes of one base relation and the atoms they define
    or mention.

    Node k is formulas[k], or, when formulas is None, the generated atom
    '<prefix><k+1>' with probability p[k]. atoms maps each atom that a
    bare-atom node defines to its probability and each atom the formulas
    only mention to None; a generated leaf has its atoms in prefix and p
    instead. distinct: the nodes are pairwise distinct bare atoms."""

    __slots__ = ("formulas", "atoms", "distinct", "prefix", "p")

    def __init__(self, formulas, atoms, distinct, prefix=None, p=None):
        self.formulas, self.atoms, self.distinct = formulas, atoms, distinct
        self.prefix, self.p = prefix, p

    @staticmethod
    def generated(prefix: str, p: np.ndarray) -> "Leaf":
        return Leaf(None, {}, True, prefix, p)

    @staticmethod
    def from_rows(formulas: list, p: list, known: Optional[Mapping] = None) -> "Leaf":
        """The leaf of rows whose formula k has probability p[k], on top
        of the known atom probabilities. A row whose lineage is a bare
        atom defines that atom's probability; every other atom is
        mentioned. Raises AtomConflictError, which names the row, when a
        bare atom row contradicts an earlier row or a known value."""
        if not known and set(map(type, formulas)) <= {Atom}:
            atoms = dict(zip(map(attrgetter("id"), formulas), p))
            # one key per row exactly when no id repeats
            if len(atoms) == len(formulas):
                return Leaf(formulas, atoms, True)
        atoms = dict(known or {})
        for i, (lam, q) in enumerate(zip(formulas, p)):
            if type(lam) is Atom:
                prev = atoms.get(lam.id)
                if prev is None:
                    atoms[lam.id] = q
                elif prev != q:
                    raise AtomConflictError(i, lam.id, prev, q)
            else:
                for a in base_atoms(lam):
                    atoms.setdefault(a, None)
        ids = {lam.id for lam in formulas if type(lam) is Atom}
        return Leaf(formulas, atoms, len(ids) == len(formulas))


class OpBlock(NamedTuple):
    """The nodes of one set operation's result. Node k is
    concat(node left_ids[k] of left, node right_ids[k] of right), where
    -1 marks an absent side, passed to concat as None. concat is the
    operation's lineage concatenation, the concat field of its SetOpKind
    row."""

    concat: Callable[[Optional[Lineage], Optional[Lineage]], Lineage]
    left: "Block"
    left_ids: np.ndarray
    right: "Block"
    right_ids: np.ndarray


Block = Union[Leaf, OpBlock]

# Rows per block of the lineage fold and of the TSV reader and writer:
# enough that the per-block overhead is noise, few enough that a block's
# text and objects stay a few MB.
BLOCK_ROWS = 8192


def fold(block: Block, nodes: np.ndarray, leaf: Callable, join: Callable):
    """The value of the nodes (ids in block, none absent), built bottom
    up: leaf(leaf, ids) gives the value of a leaf's nodes ids, and
    join(concat, left_ids, right_ids, left, right) an operation's from
    the values of its present operand nodes, in order (-1 absent). The
    walk goes down an explicit stack, since composed queries nest deeper
    than the recursion limit."""
    done: list = []
    stack: list = [(block, nodes, False)]
    while stack:
        block, nodes, operands_done = stack.pop()
        if type(block) is Leaf:
            done.append(leaf(block, nodes))
        elif not operands_done:
            left, right = block.left_ids[nodes], block.right_ids[nodes]
            stack.append((block, (left, right), True))
            stack.append((block.right, right[right >= 0], False))
            stack.append((block.left, left[left >= 0], False))
        else:
            right_done = done.pop()
            done[-1] = join(block.concat, *nodes, done[-1], right_done)
    return done[0]


def _formulas(leaf: Leaf, ids: np.ndarray) -> list[Lineage]:
    if leaf.formulas is None:
        return [Atom(f"{leaf.prefix}{k + 1}") for k in ids.tolist()]
    return list(map(leaf.formulas.__getitem__, ids.tolist()))


def _concat(concat, left_ids, right_ids, left, right) -> list[Lineage]:
    lefts, rights = iter(left), iter(right)
    return [
        concat(next(lefts) if li >= 0 else None, next(rights) if ri >= 0 else None)
        for li, ri in zip(left_ids.tolist(), right_ids.tolist())
    ]


class LineageColumn:
    """Row i is node rows[i] of block, or node i when rows is None."""

    __slots__ = ("block", "n", "rows")

    def __init__(self, block: Block, n: int, rows: Optional[np.ndarray] = None):
        self.block, self.n, self.rows = block, n, rows

    def __len__(self) -> int:
        return self.n

    def get(self, i: int) -> Lineage:
        return next(self.lineages([i]))

    def lineages(self, idx) -> Iterator[Lineage]:
        """The formulas of rows idx, folded BLOCK_ROWS rows at a time."""
        idx = np.asarray(idx, dtype=np.int64)
        if len(idx) and not (idx.min() >= 0 and idx.max() < self.n):
            raise IndexError(f"rows outside [0, {self.n})")
        for lo in range(0, len(idx), BLOCK_ROWS):
            nodes = self.node_ids(idx[lo : lo + BLOCK_ROWS])
            yield from fold(self.block, nodes, _formulas, _concat)

    def take(self, idx: np.ndarray) -> "LineageColumn":
        idx = np.asarray(idx, dtype=np.int64)
        return LineageColumn(self.block, len(idx), self.node_ids(idx))

    def node_ids(self, idx: np.ndarray) -> np.ndarray:
        """Node ids of rows idx, -1 kept; idx itself unless a view, whose
        ids are int64 whatever the dtype of idx."""
        if self.rows is None:
            return idx
        ids = idx.astype(np.int64)
        present = idx >= 0
        ids[present] = self.rows[idx[present]]
        return ids


# ---------------------------------------------------------------------------
# atom table
#
# The engine asks two questions of its operands' atoms: may the two
# sides share an atom, and what is each atom's probability. A relation's
# table answers both from the leaves of its base relations, which it
# holds by identity and never copies.
# ---------------------------------------------------------------------------


_ORDINAL = re.compile("[1-9][0-9]*")


def _may_share(a: Leaf, b: Leaf) -> bool:
    """Whether leaves a and b may mention one atom. A generated leaf
    covers every id that starts with its prefix, because prefix+ordinal
    ids collide whenever one prefix extends the other by digits ('t' and
    't1'); a letter between seed and ordinal ('g1a', 'g12a') keeps
    generated prefixes apart."""
    if a.prefix is not None and b.prefix is not None:
        return a.prefix.startswith(b.prefix) or b.prefix.startswith(a.prefix)
    if b.prefix is not None:
        a, b = b, a
    if a.prefix is not None:
        return any(x.startswith(a.prefix) for x in b.atoms)
    return not a.atoms.keys().isdisjoint(b.atoms)


class AtomTable(Mapping):
    """The atoms a relation's lineage may mention, as an immutable
    mapping from atom id to probability: a view over the leaves of the
    relation's base relations.

    An atom that a leaf only mentions reads as absent (and probability()
    raises MissingAtomError for it) unless another leaf defines it, but
    it still counts for disjoint(). A generated leaf stands for its
    atoms '<prefix>k' with probability p[k-1], k = 1..len(p), without
    ever spelling them out.

    Two leaves giving one atom different probabilities is a modelling
    error: merge raises LineageError when both define it explicitly, and
    a lookup raises it for an atom that a generated leaf also covers.
    """

    __slots__ = ("leaves", "_dicts", "_generated")

    def __init__(self, leaves: Iterable[Leaf] = ()):
        self.leaves = tuple(leaves)
        # the lookup path reads one dict per explicit leaf, then loops
        # over the generated leaves
        self._dicts = tuple(x.atoms for x in self.leaves if x.prefix is None)
        self._generated = tuple(x for x in self.leaves if x.prefix is not None)

    def __getitem__(self, key: str) -> float:
        p = None
        for atoms in self._dicts:
            p = atoms.get(key)
            if p is not None:
                break
        for leaf in self._generated:
            prefix = leaf.prefix
            digits = key[len(prefix) :]
            if (
                key.startswith(prefix)
                and _ORDINAL.fullmatch(digits)
                and int(digits) <= len(leaf.p)
            ):
                q = float(leaf.p[int(digits) - 1])
                if p is not None and p != q:
                    raise LineageError(
                        f"atom {key} has conflicting probabilities {p} and {q}"
                    )
                p = q
        if p is None:
            raise KeyError(key)
        return p

    def __iter__(self) -> Iterator[str]:
        keys = [k for atoms in self._dicts for k, p in atoms.items() if p is not None]
        for leaf in self._generated:
            keys += (f"{leaf.prefix}{k}" for k in range(1, len(leaf.p) + 1))
        return iter(dict.fromkeys(keys))  # each key once

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def disjoint(self, other: "AtomTable") -> bool:
        """True only when no atom can be mentioned by both tables."""
        return not any(_may_share(a, b) for a in self.leaves for b in other.leaves)

    def merge(self, other: "AtomTable") -> "AtomTable":
        """The table over both tables' leaves, each leaf once (by
        identity), which copies no atoms. Raises LineageError when a new
        leaf gives an explicit atom another probability than one here."""
        new = tuple(b for b in other.leaves if all(b is not a for a in self.leaves))
        for mine, b in product(self._dicts, new):
            for key in mine.keys() & b.atoms.keys():
                p, q = mine[key], b.atoms[key]
                if p is not None and q is not None and p != q:
                    raise LineageError(
                        f"atom {key} has conflicting probabilities {p} and {q}"
                    )
        return AtomTable(self.leaves + new) if new else self


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


class TpRelation:
    """A temporal-probabilistic relation.

    Construction from rows goes through from_tuples; the engine builds
    results directly from columns. The distinct-fact table is always
    sorted lexicographically, so comparing fact codes compares facts.
    """

    __slots__ = (
        "_fact_table",
        "_codes",
        "_ts",
        "_te",
        "_p",
        "_lineage",
        "_atom_probs",
        "_is_sorted",
    )

    def __init__(
        self,
        fact_table: tuple[Fact, ...],
        codes: np.ndarray,
        ts: np.ndarray,
        te: np.ndarray,
        p: np.ndarray,
        lineage: LineageColumn,
        atom_probs: ProbAssignment,
        is_sorted: Optional[bool] = None,
    ):
        """An AtomTable atom_probs must cover every atom of the lineage
        column. Any other mapping is folded, as in from_tuples, into a
        new leaf of the rows' formulas, which then becomes the column."""
        if any(
            fact_table[i] >= fact_table[i + 1] for i in range(len(fact_table) - 1)
        ):
            raise RelationError("fact table must be strictly sorted")
        self._fact_table = fact_table
        self._codes = np.asarray(codes, dtype=np.int64)
        self._ts = np.asarray(ts, dtype=np.int64)
        self._te = np.asarray(te, dtype=np.int64)
        self._p = np.asarray(p, dtype=np.float64)
        n = len(self._codes)
        if not (len(self._ts) == len(self._te) == len(self._p) == len(lineage) == n):
            raise RelationError("column lengths differ")
        if not isinstance(atom_probs, AtomTable):
            formulas = list(lineage.lineages(np.arange(n)))
            leaf = Leaf.from_rows(formulas, self._p.tolist(), atom_probs)
            lineage, atom_probs = LineageColumn(leaf, n), AtomTable((leaf,))
        self._lineage = lineage
        self._atom_probs = atom_probs
        if is_sorted is None:
            is_sorted = bool(
                np.all(
                    (self._codes[:-1] < self._codes[1:])
                    | (
                        (self._codes[:-1] == self._codes[1:])
                        & (self._ts[:-1] <= self._ts[1:])
                    )
                )
            )
        self._is_sorted = is_sorted

    @staticmethod
    def from_tuples(
        rows: Iterable[TpTuple],
        atom_probs: Optional[ProbAssignment] = None,
        validate: bool = True,
    ) -> "TpRelation":
        """Build a relation from row objects.

        The rows become one leaf: an entry for every row whose lineage
        is a bare atom, and every atom the other rows mention. A plain
        mapping atom_probs is folded into that leaf; an AtomTable keeps
        its leaves, and the rows' leaf joins them (AtomTable.merge). A
        bare atom appearing twice with different probabilities is
        rejected (AtomConflictError).
        """
        rows = list(rows)
        arities = {len(t.fact) for t in rows}
        if len(arities) > 1:
            raise RelationError(f"mixed fact arities {sorted(arities)}")
        fact_table = tuple(sorted({t.fact for t in rows}))
        code_of = {f: i for i, f in enumerate(fact_table)}
        codes = np.fromiter(
            (code_of[t.fact] for t in rows), dtype=np.int64, count=len(rows)
        )
        ts = np.fromiter((t.interval.ts for t in rows), dtype=np.int64, count=len(rows))
        te = np.fromiter((t.interval.te for t in rows), dtype=np.int64, count=len(rows))
        p = np.fromiter((t.p for t in rows), dtype=np.float64, count=len(rows))
        formulas = [t.lineage for t in rows]
        if isinstance(atom_probs, AtomTable):
            leaf = Leaf.from_rows(formulas, p.tolist())
            table = atom_probs.merge(AtomTable((leaf,)))
        else:
            leaf = Leaf.from_rows(formulas, p.tolist(), atom_probs)
            table = AtomTable((leaf,))
        rel = TpRelation(
            fact_table, codes, ts, te, p, LineageColumn(leaf, len(rows)), table
        )
        if validate:
            bad = validate_duplicate_free(rel)
            if bad is not None:
                raise DuplicateFreeError(*bad)
        return rel

    # --- column access (read-only by convention) ---

    @property
    def fact_table(self) -> tuple[Fact, ...]:
        return self._fact_table

    @property
    def fact_codes(self) -> np.ndarray:
        return self._codes

    @property
    def ts_array(self) -> np.ndarray:
        return self._ts

    @property
    def te_array(self) -> np.ndarray:
        return self._te

    @property
    def p_array(self) -> np.ndarray:
        return self._p

    @property
    def lineage_column(self) -> LineageColumn:
        return self._lineage

    @property
    def atom_probs(self) -> "AtomTable":
        return self._atom_probs

    @property
    def is_sorted(self) -> bool:
        """Sorted by (fact lexicographically, ts ascending)."""
        return self._is_sorted

    @property
    def arity(self) -> Optional[int]:
        if not self._fact_table:
            return None
        return len(self._fact_table[0])

    # --- row access ---

    def __len__(self) -> int:
        return len(self._codes)

    def row(self, i: int) -> TpTuple:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        return next(self._rows([i % len(self)]))

    def __getitem__(self, i: int) -> TpTuple:
        return self.row(i)

    def __iter__(self) -> Iterator[TpTuple]:
        return self._rows(range(len(self)))

    def _rows(self, idx) -> Iterator[TpTuple]:
        for i, lam in zip(idx, self._lineage.lineages(idx)):
            yield TpTuple(
                self._fact_table[int(self._codes[i])],
                lam,
                Interval(int(self._ts[i]), int(self._te[i])),
                float(self._p[i]),
            )

    def __repr__(self) -> str:
        return (
            f"TpRelation({len(self)} tuples, {len(self._fact_table)} facts, "
            f"sorted={self._is_sorted})"
        )


def sort_relation(rel: TpRelation) -> TpRelation:
    """Stable sort by (fact lexicographically ascending, ts ascending)."""
    if rel.is_sorted:
        return rel
    # last lexsort key is the primary one
    order = np.lexsort((rel.ts_array, rel.fact_codes))
    return TpRelation(
        rel.fact_table,
        rel.fact_codes[order],
        rel.ts_array[order],
        rel.te_array[order],
        rel.p_array[order],
        rel.lineage_column.take(order),
        rel.atom_probs,
        is_sorted=True,
    )


def validate_duplicate_free(
    rel: TpRelation,
) -> Optional[tuple[TpTuple, TpTuple]]:
    """Check the duplicate-free invariant.

    Returns None when the relation is clean, otherwise the first
    offending pair in sorted order. Sorting by (fact, ts) makes the
    check an adjacent-pair scan: any overlap among tuples of one fact
    implies an adjacent overlap.
    """
    srel = sort_relation(rel)
    codes = srel.fact_codes
    if len(codes) < 2:
        return None
    hit = (codes[:-1] == codes[1:]) & (srel.te_array[:-1] > srel.ts_array[1:])
    where = np.flatnonzero(hit)
    if len(where) == 0:
        return None
    i = int(where[0])
    return srel.row(i), srel.row(i + 1)
