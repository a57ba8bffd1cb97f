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

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .lineage import Atom, Lineage, LineageError, ProbAssignment

__all__ = [
    "Fact",
    "Interval",
    "TpTuple",
    "TpRelation",
    "Window",
    "RelationError",
    "DuplicateFreeError",
    "validate_duplicate_free",
    "sort_relation",
]

# A fact is a tuple of attribute strings; all tuples of one relation
# share the same arity.
Fact = tuple[str, ...]


class RelationError(ValueError):
    """Malformed relation or misuse of an operation's precondition."""


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

    def atom_space(self) -> "AtomSpace":
        raise NotImplementedError

    def rows_distinct_hint(self) -> bool:
        """True only when distinct rows are guaranteed to carry pairwise
        non-equivalent formulas. False means unknown."""
        return False


class ObjectLineageColumn(LineageColumn):
    """Explicit formula objects, one per row."""

    def __init__(self, formulas: Sequence[Lineage]):
        self._arr = list(formulas)
        self._space: Optional[AtomSpace] = None

    def __len__(self) -> int:
        return len(self._arr)

    def get(self, i: int) -> Lineage:
        return self._arr[i]

    def take(self, idx: np.ndarray) -> "ObjectLineageColumn":
        return ObjectLineageColumn([self._arr[int(i)] for i in idx])

    def atom_space(self) -> "AtomSpace":
        if self._space is None:
            from .lineage import base_atoms

            ids: set[str] = set()
            for lam in self._arr:
                ids |= base_atoms(lam)
            self._space = AtomSpace.from_set(frozenset(ids))
        return self._space


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

    def atom_space(self) -> "AtomSpace":
        return AtomSpace.from_prefix(self.prefix)

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

    def atom_space(self) -> "AtomSpace":
        return self._base.atom_space()

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
        li = int(self._li[i])
        ri = int(self._ri[i])
        return self.concat(
            self._left.get(li) if li >= 0 else None,
            self._right.get(ri) if ri >= 0 else None,
        )

    def take(self, idx: np.ndarray) -> "OpLineageColumn":
        idx = np.asarray(idx, dtype=np.int64)
        return OpLineageColumn(
            self.concat, self._left, self._right, self._li[idx], self._ri[idx]
        )

    def atom_space(self) -> "AtomSpace":
        return self._left.atom_space().union(self._right.atom_space())


class AtomSpace:
    """Conservative description of the atom ids a column can mention.
    Supports only the question that matters downstream: are two spaces
    provably disjoint? Anything unprovable answers False."""

    __slots__ = ("_sets", "_prefixes")

    def __init__(self, sets: frozenset[str], prefixes: frozenset[str]):
        self._sets = sets
        self._prefixes = prefixes

    @staticmethod
    def from_set(ids: frozenset[str]) -> "AtomSpace":
        return AtomSpace(ids, frozenset())

    @staticmethod
    def from_prefix(prefix: str) -> "AtomSpace":
        return AtomSpace(frozenset(), frozenset([prefix]))

    def union(self, other: "AtomSpace") -> "AtomSpace":
        return AtomSpace(
            self._sets | other._sets, self._prefixes | other._prefixes
        )

    def provably_disjoint(self, other: "AtomSpace") -> bool:
        if self._sets & other._sets:
            return False
        for a, b in (
            (self._prefixes, other._prefixes),
            (other._prefixes, self._prefixes),
        ):
            for pa in a:
                for pb in b:
                    # prefix+ordinal ids can collide whenever one prefix
                    # extends the other by digits
                    if pa.startswith(pb) or pb.startswith(pa):
                        return False
        for ids, prefixes in (
            (self._sets, other._prefixes),
            (other._sets, self._prefixes),
        ):
            for atom in ids:
                for prefix in prefixes:
                    if atom.startswith(prefix):
                        return False
        return True


# ---------------------------------------------------------------------------
# probability environments
# ---------------------------------------------------------------------------


class PrefixProbEnv(Mapping):
    """Probability lookup for a generated relation: atom '<prefix>k'
    maps to p[k-1] without ever building a dict of millions of keys."""

    def __init__(self, prefix: str, p: np.ndarray):
        self._prefix = prefix
        self._p = p

    def _ordinal(self, key: str) -> Optional[int]:
        if not key.startswith(self._prefix):
            return None
        suffix = key[len(self._prefix) :]
        if not suffix.isdigit():
            return None
        k = int(suffix)
        if not 1 <= k <= len(self._p):
            return None
        return k - 1

    def __getitem__(self, key: str) -> float:
        i = self._ordinal(key)
        if i is None:
            raise KeyError(key)
        return float(self._p[i])

    def __contains__(self, key) -> bool:
        return isinstance(key, str) and self._ordinal(key) is not None

    def __iter__(self) -> Iterator[str]:
        for k in range(len(self._p)):
            yield f"{self._prefix}{k + 1}"

    def __len__(self) -> int:
        return len(self._p)


class MergedProbEnv(Mapping):
    """Union of two environments. A key present in both with different
    values is a modelling error and fails loudly on lookup."""

    def __init__(self, first: Mapping, second: Mapping):
        self._first = first
        self._second = second

    def __getitem__(self, key: str) -> float:
        in1 = key in self._first
        in2 = key in self._second
        if in1 and in2:
            v1 = self._first[key]
            v2 = self._second[key]
            if v1 != v2:
                raise LineageError(
                    f"atom {key} has conflicting probabilities {v1} and {v2}"
                )
            return v1
        if in1:
            return self._first[key]
        if in2:
            return self._second[key]
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        return key in self._first or key in self._second

    def __iter__(self) -> Iterator[str]:
        seen = set()
        for k in self._first:
            seen.add(k)
            yield k
        for k in self._second:
            if k not in seen:
                yield k

    def __len__(self) -> int:
        return sum(1 for _ in self)


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
        atom_probs: Mapping,
        is_sorted: Optional[bool] = None,
    ):
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
        self._atom_probs = atom_probs
        n = len(self._codes)
        if not (len(self._ts) == len(self._te) == len(self._p) == len(lineage) == n):
            raise RelationError("column lengths differ")
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

        The probability environment is the given atom_probs plus an
        entry for every row whose lineage is a bare atom. A bare atom
        appearing twice with different probabilities is rejected.
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
        env: dict[str, float] = dict(atom_probs) if atom_probs else {}
        for t in rows:
            if isinstance(t.lineage, Atom):
                prev = env.get(t.lineage.id)
                if prev is None:
                    env[t.lineage.id] = t.p
                elif prev != t.p:
                    raise RelationError(
                        f"atom {t.lineage.id} appears with probabilities "
                        f"{prev} and {t.p}"
                    )
        rel = TpRelation(
            fact_table,
            codes,
            ts,
            te,
            p,
            ObjectLineageColumn([t.lineage for t in rows]),
            env,
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
    def atom_probs(self) -> Mapping:
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
