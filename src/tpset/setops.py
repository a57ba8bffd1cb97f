"""Temporal-probabilistic set operations.

Each operation is the window sweep plus one row of the operator table,
SetOpKind. A row holds the operation's name, its window filter (which
windows survive, from the presence of each side), its lineage
concatenation and its independent-probability formula:

  kind          filter    concat          independent p
  intersection  r and s   l1 and l2       p1 p2
  union         r or s    l1 or l2        p1 + p2 (1-p1)
  difference    r         l1 and not l2   p1 (1-p2)

A lone side's lineage and probability pass through unchanged. The
engine, the snapshot oracle and each result's lineage block
(model.OpBlock, over the window index arrays) read the same row.

Output probabilities are exact. When the operands' atom tables
(model.AtomTable) provably share no atom, the independent formula works
directly on the operand tuple probabilities, which is what makes the
million-tuple benchmarks feasible; otherwise each output formula is
evaluated against the result's table, a view over both operands' base
relation leaves, which handles deliberately repeated atoms at
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
    and_fn,
    and_not_fn,
    or_fn,
    or_prob,
    probability,
    syntactic_equiv,
)
from .model import (
    Leaf,
    LineageColumn,
    OpBlock,
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
# by np.where instead of being folded in as p=0, so it stays bit-equal.
# Both sides present use the evaluator's own disjunction formula.


def _or_prob(pr, ps, r_present, s_present):
    return np.where(
        r_present & s_present, or_prob(pr, ps), np.where(r_present, pr, ps)
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
    result is sorted, duplicate-free and carries the atom table over
    both operands' leaves."""
    r, s = _check_operands(r, s)
    wt = window_table(r, s)

    # Take the columns and drop the table, so that each filtered copy
    # frees its source; a filter that keeps every window (union) copies
    # nothing.
    fact_table = wt.fact_table
    codes, ts, te, ri, si = wt.fact_codes, wt.ts, wt.te, wt.r_idx, wt.s_idx
    del wt
    keep = kind.window_filter(ri >= 0, si >= 0)
    if not keep.all():
        codes = codes[keep]
        ts = ts[keep]
        te = te[keep]
        ri = ri[keep]
        si = si[keep]
    del keep
    rcol, scol = r.lineage_column, s.lineage_column
    block = OpBlock(
        kind.concat, rcol.block, rcol.node_ids(ri), scol.block, scol.node_ids(si)
    )
    col = LineageColumn(block, len(ri))
    env = r.atom_probs.merge(s.atom_probs)
    disjoint = r.atom_probs.disjoint(s.atom_probs)
    if disjoint:
        p = kind.independent_prob(
            _gather(r.p_array, ri), _gather(s.p_array, si), ri >= 0, si >= 0
        )
    else:
        p = np.fromiter(
            (probability(lam, env) for lam in col.lineages(np.arange(len(ri)))),
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
    # the sides share no atoms and each is a leaf of distinct bare atoms
    # (engine-internal takes are injective), because adjacent windows
    # always change the covering tuple on some side.
    if not (
        disjoint
        and all(type(b) is Leaf and b.distinct for b in (rcol.block, scol.block))
    ):
        codes, ts, te, p, col = _coalesce(codes, ts, te, p, col)

    return TpRelation(fact_table, codes, ts, te, p, col, env, is_sorted=True)


def intersect(r: TpRelation, s: TpRelation) -> TpRelation:
    return apply_setop(SetOpKind.INTERSECTION, r, s)


def union(r: TpRelation, s: TpRelation) -> TpRelation:
    return apply_setop(SetOpKind.UNION, r, s)


def except_(r: TpRelation, s: TpRelation) -> TpRelation:
    """Temporal-probabilistic difference r minus s."""
    return apply_setop(SetOpKind.DIFFERENCE, r, s)


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
    # one fold over each candidate row and its successor, read in pairs
    lams = col.lineages(np.column_stack((cand_idx, cand_idx + 1)).ravel())
    for i, lam, lam2 in zip(cand_idx.tolist(), lams, lams):
        if syntactic_equiv(lam, lam2):
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
