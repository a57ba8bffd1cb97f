"""Temporal-probabilistic set operations.

Each operation is the window sweep plus one row of the operator table,
SetOpKind. A row holds the operation's name, its window filter (which
windows survive, from the presence of each side), its lineage
concatenation and its independent-probability formula:

  kind          filter    concat          independent p
  intersection  r and s   l1 and l2       p1 p2
  union         r or s    l1 or l2        1 - (1-p1)(1-p2)
  difference    r         l1 and not l2   p1 (1-p2)

A lone side's lineage and probability pass through unchanged. The
engine, the snapshot oracle and the lazy OpLineageColumn all read the
same row.

Output probabilities are exact. When the two inputs provably share no
atom ids, the independent formula works directly on the operand tuple
probabilities, which is what makes the million-tuple benchmarks
feasible; otherwise each output formula is evaluated against the merged
probability environment, which handles deliberately repeated atoms at
exponential cost in the number of repeats.

Outputs are snapshot-correct: adjacent output tuples of one fact whose
lineages are syntactically equivalent get merged, because per-snapshot
semantics cannot tell them apart. The merge pass is skipped when it is
provably a no-op.
"""

from __future__ import annotations

import enum

import numpy as np

from .lineage import (
    LineageError,
    and_fn,
    and_not_fn,
    or_fn,
    probability,
    syntactic_equiv,
)
from .model import (
    LineageColumn,
    MergedProbEnv,
    OpLineageColumn,
    RelationError,
    DuplicateFreeError,
    TpRelation,
    sort_relation,
    validate_duplicate_free,
)
from .sweep import window_table

__all__ = [
    "SetOpKind",
    "apply_setop",
    "intersect",
    "union",
    "except_",
]


# independent_prob formulas. A lone side passes its probability through
# by np.where instead of being folded in as p=0: 1-(1-p) is not bit-equal
# to p, and underflows to 0 for tiny p.


def _or_prob(pr, ps, r_present, s_present):
    return np.where(
        r_present & s_present,
        1.0 - (1.0 - pr) * (1.0 - ps),
        np.where(r_present, pr, ps),
    )


def _and_not_prob(pr, ps, r_present, s_present):
    return np.where(s_present, pr * (1.0 - ps), pr)


class SetOpKind(enum.Enum):
    """The operator table: one row per operation, see the module
    docstring. window_filter works elementwise on bool arrays and on
    plain bools alike."""

    def __new__(cls, value, window_filter, concat, independent_prob):
        row = object.__new__(cls)
        row._value_ = value
        row.window_filter = window_filter
        row.concat = concat
        row.independent_prob = independent_prob
        return row

    INTERSECTION = (
        "intersect",
        lambda r, s: r & s,
        and_fn,
        lambda pr, ps, r_present, s_present: pr * ps,
    )
    UNION = ("union", lambda r, s: r | s, or_fn, _or_prob)
    DIFFERENCE = ("except", lambda r, s: r, and_not_fn, _and_not_prob)


def _check_operands(r: TpRelation, s: TpRelation) -> tuple[TpRelation, TpRelation]:
    if r.arity is not None and s.arity is not None and r.arity != s.arity:
        raise RelationError(
            f"operand fact arities differ: {r.arity} vs {s.arity}"
        )
    r = sort_relation(r)
    s = sort_relation(s)
    for rel in (r, s):
        bad = validate_duplicate_free(rel)
        if bad is not None:
            raise DuplicateFreeError(*bad)
    return r, s


def _gather(p: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # Safe gather: absent sides (-1) read row 0, or 0.0 from an empty
    # relation; independent_prob discards those values.
    if len(p) == 0:
        return np.zeros(len(idx), dtype=np.float64)
    return p[np.maximum(idx, 0)]


def apply_setop(kind: SetOpKind, r: TpRelation, s: TpRelation) -> TpRelation:
    """Evaluate one set operation. Operands may arrive unsorted; the
    result is sorted, duplicate-free and carries the merged probability
    environment of its operands."""
    r, s = _check_operands(r, s)
    wt = window_table(r, s)

    keep = kind.window_filter(wt.r_idx >= 0, wt.s_idx >= 0)
    codes = wt.fact_codes[keep]
    ts = wt.ts[keep]
    te = wt.te[keep]
    ri = wt.r_idx[keep]
    si = wt.s_idx[keep]
    col: LineageColumn = OpLineageColumn(
        kind.concat, r.lineage_column, s.lineage_column, ri, si
    )
    env = _merge_envs(r.atom_probs, s.atom_probs)

    disjoint = r.lineage_column.atom_space().provably_disjoint(
        s.lineage_column.atom_space()
    )
    if disjoint:
        p = kind.independent_prob(
            _gather(r.p_array, ri), _gather(s.p_array, si), ri >= 0, si >= 0
        )
    else:
        p = np.fromiter(
            (probability(col.get(i), env) for i in range(len(ri))),
            dtype=np.float64,
            count=len(ri),
        )

    # A window whose lineage holds in no world of positive measure (for
    # example r minus r, where it reads x and not-x) has no valid
    # representation as a tuple; such rows are dropped.
    pos = p > 0.0
    if not bool(pos.all()):
        idx = np.flatnonzero(pos)
        codes = codes[idx]
        ts = ts[idx]
        te = te[idx]
        p = p[idx]
        col = col.take(idx)

    # Merging equivalent adjacent outputs is provably impossible when
    # the sides share no atoms and neither repeats a formula across its
    # own rows, because adjacent windows always change the covering
    # tuple on some side.
    if not (
        disjoint
        and r.lineage_column.rows_distinct_hint()
        and s.lineage_column.rows_distinct_hint()
    ):
        codes, ts, te, p, col = _coalesce(codes, ts, te, p, col)

    return TpRelation(
        wt.fact_table, codes, ts, te, p, col, env, is_sorted=True
    )


def intersect(r: TpRelation, s: TpRelation) -> TpRelation:
    return apply_setop(SetOpKind.INTERSECTION, r, s)


def union(r: TpRelation, s: TpRelation) -> TpRelation:
    return apply_setop(SetOpKind.UNION, r, s)


def except_(r: TpRelation, s: TpRelation) -> TpRelation:
    """Temporal-probabilistic difference r minus s."""
    return apply_setop(SetOpKind.DIFFERENCE, r, s)


def _merge_envs(e1, e2):
    if isinstance(e1, dict) and isinstance(e2, dict):
        out = dict(e1)
        for k, v in e2.items():
            if k in out and out[k] != v:
                raise LineageError(
                    f"atom {k} has conflicting probabilities {out[k]} and {v}"
                )
            out[k] = v
        return out
    return MergedProbEnv(e1, e2)


def _coalesce(codes, ts, te, p, col: LineageColumn):
    """Merge runs of contiguous same-fact rows with equivalent lineages.

    Candidates are found vectorized; the (potentially costly)
    equivalence test runs only per candidate boundary.
    """
    n = len(codes)
    if n < 2:
        return codes, ts, te, p, col
    cand = (codes[:-1] == codes[1:]) & (te[:-1] == ts[1:])
    cand_idx = np.flatnonzero(cand)
    if len(cand_idx) == 0:
        return codes, ts, te, p, col
    merge_prev = np.zeros(n, dtype=bool)
    for i in cand_idx:
        if syntactic_equiv(col.get(int(i)), col.get(int(i) + 1)):
            merge_prev[i + 1] = True
    if not merge_prev.any():
        return codes, ts, te, p, col
    starts = np.flatnonzero(~merge_prev)
    ends = np.append(starts[1:], n) - 1
    return (
        codes[starts],
        ts[starts],
        te[ends],
        p[starts],
        col.take(starts),
    )
