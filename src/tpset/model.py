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
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .lineage import Atom, Lineage, LineageError, ProbAssignment, base_atoms

__all__ = [
    "Fact",
    "Interval",
    "TpTuple",
    "TpRelation",
    "Window",
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
# lineage column
#
# Formula trees for millions of generated tuples would dwarf the numeric
# columns, so a relation's lineage is a column of node ids into a block
# and formulas are only materialized per row. A block is a list of
# formulas (node k is its item k), a generator prefix (node k is the
# atom '<prefix><k+1>') or the OpBlock a set operation appends over its
# operands' blocks. No block is ever copied: reordering or filtering a
# relation only re-indexes its node ids.
# ---------------------------------------------------------------------------


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


Block = Union[list, str, OpBlock]


def _generated_id(prefix: str, k: int) -> str:
    return f"{prefix}{k + 1}"


def _leaf(block: Block, k: int) -> Lineage:
    return Atom(_generated_id(block, k)) if type(block) is str else block[k]


class LineageColumn:
    """Row i is node rows[i] of block, or node i when rows is None."""

    __slots__ = ("block", "n", "rows", "_distinct")

    def __init__(self, block: Block, n: int, rows: Optional[np.ndarray] = None):
        self.block = block
        self.n = n
        self.rows = rows
        self._distinct: Optional[bool] = None

    def __len__(self) -> int:
        return self.n

    def get(self, i: int) -> Lineage:
        if not 0 <= i < self.n:
            raise IndexError(i)
        # Composed queries chain operations deeper than the recursion
        # limit, so the walk descends left first and stacks each
        # operation's concat below its right operand's (block, node)
        # pair. An operation over two leaf blocks concats at once, so
        # the common one-operation case never touches the stack.
        block, k = self.block, (i if self.rows is None else int(self.rows[i]))
        out: list[Optional[Lineage]] = []
        todo: list = []
        while True:
            if k < 0:
                out.append(None)
            elif type(block) is not OpBlock:
                out.append(_leaf(block, k))
            else:
                left, right = block.left, block.right
                li, ri = int(block.left_ids[k]), int(block.right_ids[k])
                if type(left) is OpBlock or type(right) is OpBlock:
                    todo += (block.concat, (right, ri))
                    block, k = left, li
                    continue
                lam = _leaf(left, li) if li >= 0 else None
                lam2 = _leaf(right, ri) if ri >= 0 else None
                out.append(block.concat(lam, lam2))
            while todo and type(todo[-1]) is not tuple:
                lam = out.pop()
                out[-1] = todo.pop()(out[-1], lam)
            if not todo:
                return out[0]
            block, k = todo.pop()

    def take(self, idx: np.ndarray) -> "LineageColumn":
        idx = np.asarray(idx, dtype=np.int64)
        view = LineageColumn(self.block, len(idx), self.node_ids(idx))
        view._distinct = self._distinct  # a property of the block
        return view

    def node_ids(self, idx: np.ndarray) -> np.ndarray:
        """Node ids of rows idx, -1 kept; idx itself unless a view, whose
        ids are int64 whatever the dtype of idx."""
        if self.rows is None:
            return idx
        ids = idx.astype(np.int64)
        present = idx >= 0
        ids[present] = self.rows[idx[present]]
        return ids

    def rows_distinct_hint(self) -> bool:
        """True only when distinct rows are guaranteed to carry pairwise
        non-equivalent formulas. False means unknown. Engine-internal
        takes use injective index arrays (sort permutations, strictly
        increasing group starts), so a view keeps its block's
        guarantee."""
        block = self.block
        if type(block) is not list:
            return type(block) is str
        if self._distinct is None:
            # bare atoms with no id repeated: rows are pairwise non-equivalent
            ids = {lam.id for lam in block if type(lam) is Atom}
            self._distinct = len(ids) == len(block)
        return self._distinct


# ---------------------------------------------------------------------------
# atom table
#
# The engine asks two questions of its operands' atoms: may the two
# sides share an atom, and what is each atom's probability. One table
# per relation answers both.
# ---------------------------------------------------------------------------


_ORDINAL = re.compile("[1-9][0-9]*")


class AtomTable(Mapping):
    """The atoms a relation's lineage may mention, as an immutable
    mapping from atom id to probability.

    Explicit atoms live in one dict; an atom mapped to None there is
    mentioned without a known probability, so it reads as absent (and
    probability() raises MissingAtomError for it) but still counts for
    disjoint(). A block (prefix, p) stands for the generator's atoms
    '<prefix>k' with probability p[k-1], k = 1..len(p), without ever
    spelling them out.

    Two sources giving one atom different probabilities is a modelling
    error: merge raises LineageError for explicit atoms, and a lookup
    raises it for an atom that a block also covers.
    """

    __slots__ = ("_atoms", "_blocks")

    def __init__(
        self,
        atoms: Optional[Mapping[str, Optional[float]]] = None,
        blocks: Iterable[tuple[str, np.ndarray]] = (),
    ):
        self._atoms: dict[str, Optional[float]] = dict(atoms or {})
        self._blocks = tuple(blocks)

    @staticmethod
    def from_rows(
        rows: Iterable[tuple[Lineage, float]],
        known: Optional[Mapping[str, float]] = None,
    ) -> "AtomTable":
        """The table of (lineage, probability) rows on top of the known
        atom probabilities. A row whose lineage is a bare atom defines
        that atom's probability; every other atom is mentioned. Raises
        AtomConflictError, which names the row, when a bare atom row
        contradicts an earlier row or a known value."""
        base = known if isinstance(known, AtomTable) else AtomTable(known)
        atoms = dict(base._atoms)
        for i, (lam, p) in enumerate(rows):
            if type(lam) is Atom:
                prev = atoms.get(lam.id)
                if prev is None:
                    atoms[lam.id] = p
                elif prev != p:
                    raise AtomConflictError(i, lam.id, prev, p)
            else:
                for a in base_atoms(lam):
                    atoms.setdefault(a, None)
        return AtomTable(atoms, base._blocks)

    def __getitem__(self, key: str) -> float:
        p = self._atoms.get(key)
        for prefix, block in self._blocks:
            digits = key[len(prefix) :]
            if (
                key.startswith(prefix)
                and _ORDINAL.fullmatch(digits)
                and int(digits) <= len(block)
            ):
                q = float(block[int(digits) - 1])
                if p is not None and p != q:
                    raise LineageError(
                        f"atom {key} has conflicting probabilities {p} and {q}"
                    )
                p = q
        if p is None:
            raise KeyError(key)
        return p

    def __iter__(self) -> Iterator[str]:
        keys = [key for key, p in self._atoms.items() if p is not None]
        for prefix, block in self._blocks:
            keys += (f"{prefix}{k}" for k in range(1, len(block) + 1))
        return iter(dict.fromkeys(keys))  # each key once

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def disjoint(self, other: "AtomTable") -> bool:
        """True only when no atom can be mentioned by both tables.

        A block covers every id that starts with its prefix, because
        prefix+ordinal ids collide whenever one prefix extends the
        other by digits ('t' and 't1'); a letter between seed and
        ordinal ('g1a', 'g12a') keeps generated prefixes apart."""
        if not self._atoms.keys().isdisjoint(other._atoms.keys()):
            return False
        for ids, blocks in ((self._atoms, other._blocks), (other._atoms, self._blocks)):
            for prefix, _ in blocks:
                if any(a.startswith(prefix) for a in ids):
                    return False
        return not any(
            pa.startswith(pb) or pb.startswith(pa)
            for pa, _ in self._blocks
            for pb, _ in other._blocks
        )

    def merge(self, other: "AtomTable") -> "AtomTable":
        """The table of both sides' atoms. Raises LineageError when the
        two give an explicit atom different probabilities."""
        if other is self:
            return self
        atoms = {**self._atoms, **other._atoms}
        for key in self._atoms.keys() & other._atoms.keys():
            mine, theirs = self._atoms[key], other._atoms[key]
            if mine is None or theirs is None:
                atoms[key] = theirs if mine is None else mine
            elif mine != theirs:
                raise LineageError(
                    f"atom {key} has conflicting probabilities {mine} and {theirs}"
                )
        blocks = self._blocks + tuple(
            b
            for b in other._blocks
            if not any(b[0] == a[0] and b[1] is a[1] for a in self._blocks)
        )
        return AtomTable(atoms, blocks)


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
        column; any other mapping is folded into the rows' table, as in
        from_tuples."""
        if any(
            fact_table[i] >= fact_table[i + 1] for i in range(len(fact_table) - 1)
        ):
            raise RelationError("fact table must be strictly sorted")
        self._fact_table = fact_table
        self._codes = np.asarray(codes, dtype=np.int64)
        self._ts = np.asarray(ts, dtype=np.int64)
        self._te = np.asarray(te, dtype=np.int64)
        self._p = np.asarray(p, dtype=np.float64)
        self._lineage = lineage
        n = len(self._codes)
        if not (len(self._ts) == len(self._te) == len(self._p) == len(lineage) == n):
            raise RelationError("column lengths differ")
        if not isinstance(atom_probs, AtomTable):
            rows = zip(map(lineage.get, range(n)), self._p.tolist())
            atom_probs = AtomTable.from_rows(rows, atom_probs)
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

        Its atom table is the given atom_probs plus an entry for every
        row whose lineage is a bare atom, and every atom the other rows
        mention. A bare atom appearing twice with different
        probabilities is rejected (AtomConflictError).
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
        rel = TpRelation(
            fact_table,
            codes,
            ts,
            te,
            p,
            LineageColumn([t.lineage for t in rows], len(rows)),
            AtomTable.from_rows(((t.lineage, t.p) for t in rows), atom_probs),
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
        if i < 0:
            i += len(self)
        return TpTuple(
            self._fact_table[int(self._codes[i])],
            self._lineage.get(i),
            Interval(int(self._ts[i]), int(self._te[i])),
            float(self._p[i]),
        )

    def __getitem__(self, i: int) -> TpTuple:
        return self.row(i)

    def __iter__(self) -> Iterator[TpTuple]:
        for i in range(len(self)):
            yield self.row(i)

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
