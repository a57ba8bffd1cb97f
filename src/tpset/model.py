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
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
# lineage columns
#
# Formula trees for millions of generated tuples would dwarf the numeric
# columns, so lineage is stored behind a small column interface and only
# materialized per row. Three layouts cover every relation the package
# builds: explicit objects, generated prefix+ordinal atoms, and lazy
# views over two parent columns produced by a set operation.
# ---------------------------------------------------------------------------


class LineageColumn:
    def __len__(self) -> int:
        raise NotImplementedError

    def get(self, i: int) -> Lineage:
        raise NotImplementedError

    def take(self, idx: np.ndarray) -> "LineageColumn":
        raise NotImplementedError

    def rows_distinct_hint(self) -> bool:
        """True only when distinct rows are guaranteed to carry pairwise
        non-equivalent formulas. False means unknown."""
        return False


class ObjectLineageColumn(LineageColumn):
    """Explicit formula objects, one per row."""

    def __init__(self, formulas: Sequence[Lineage]):
        self._arr = list(formulas)
        self._distinct: Optional[bool] = None

    def __len__(self) -> int:
        return len(self._arr)

    def get(self, i: int) -> Lineage:
        return self._arr[i]

    def take(self, idx: np.ndarray) -> "ObjectLineageColumn":
        return ObjectLineageColumn([self._arr[int(i)] for i in idx])

    def rows_distinct_hint(self) -> bool:
        # bare atoms with no id repeated: rows are pairwise non-equivalent
        if self._distinct is None:
            ids = {lam.id for lam in self._arr if type(lam) is Atom}
            self._distinct = len(ids) == len(self._arr)
        return self._distinct


class PrefixAtomColumn(LineageColumn):
    """Row i carries the bare atom '<prefix><i+1>'. Used by the data
    generator, where building millions of Atom objects up front would be
    pure waste."""

    def __init__(self, prefix: str, count: int):
        self.prefix = prefix
        self.count = count

    def __len__(self) -> int:
        return self.count

    def get(self, i: int) -> Lineage:
        if not 0 <= i < self.count:
            raise IndexError(i)
        return Atom(f"{self.prefix}{i + 1}")

    def take(self, idx: np.ndarray) -> "LineageColumn":
        return _GatherColumn(self, np.asarray(idx, dtype=np.int64))

    def rows_distinct_hint(self) -> bool:
        return True


class _GatherColumn(LineageColumn):
    """A reordered or filtered view of another column."""

    def __init__(self, base: LineageColumn, idx: np.ndarray):
        self._base = base
        self._idx = idx

    def __len__(self) -> int:
        return len(self._idx)

    def get(self, i: int) -> Lineage:
        return self._base.get(int(self._idx[i]))

    def take(self, idx: np.ndarray) -> "LineageColumn":
        return _GatherColumn(self._base, self._idx[np.asarray(idx, dtype=np.int64)])

    def rows_distinct_hint(self) -> bool:
        # engine-internal takes use injective index arrays (sort
        # permutations, strictly increasing group starts), so the base
        # column's guarantee carries over
        return self._base.rows_distinct_hint()


class OpLineageColumn(LineageColumn):
    """Lazy result column of a set operation. Row i is
    concat(left row left_idx[i], right row right_idx[i]), where -1 marks
    an absent side, passed to concat as None. concat is the operation's
    lineage concatenation, the concat field of its SetOpKind row."""

    def __init__(
        self,
        concat: Callable[[Optional[Lineage], Optional[Lineage]], Lineage],
        left: LineageColumn,
        right: LineageColumn,
        left_idx: np.ndarray,
        right_idx: np.ndarray,
    ):
        self.concat = concat
        self._left = left
        self._right = right
        self._li = np.asarray(left_idx, dtype=np.int64)
        self._ri = np.asarray(right_idx, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._li)

    def get(self, i: int) -> Lineage:
        # Composed queries chain op columns deeper than the recursion
        # limit, so walk them over a stack of (column, row) and concat
        # items. An op column over two other kinds of column concats at
        # once, which keeps the common one-operation case short.
        out: list[Optional[Lineage]] = []
        todo: list = [(self, i)]
        while todo:
            item = todo.pop()
            if type(item) is not tuple:
                lam = out.pop()
                out[-1] = item(out[-1], lam)
                continue
            col, i = item
            if i < 0 or type(col) is not OpLineageColumn:
                out.append(col.get(i) if i >= 0 else None)
            else:
                left, right = col._left, col._right
                li, ri = int(col._li[i]), int(col._ri[i])
                if type(left) is OpLineageColumn or type(right) is OpLineageColumn:
                    todo += (col.concat, (right, ri), (left, li))
                else:
                    lam = left.get(li) if li >= 0 else None
                    out.append(col.concat(lam, right.get(ri) if ri >= 0 else None))
        return out[0]

    def take(self, idx: np.ndarray) -> "OpLineageColumn":
        idx = np.asarray(idx, dtype=np.int64)
        return OpLineageColumn(
            self.concat, self._left, self._right, self._li[idx], self._ri[idx]
        )


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
            ObjectLineageColumn([t.lineage for t in rows]),
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
