"""Snapshot-by-snapshot reference evaluation.

Sequenced semantics defines a set operation's result through its
snapshots: slice both relations at a chronon, combine the slices as
ordinary probabilistic sets, and let maximal runs of equivalent results
form the output tuples. Doing that literally, one chronon at a time, is
hopelessly slow but almost impossible to get wrong, which makes it the
yardstick the sweep-based engine is measured against in the tests.

The scan is bounded: relations whose facts together span more than
SPAN_LIMIT chronons are rejected rather than ground through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lineage import Lineage, probability, syntactic_equiv
from .model import (
    DuplicateFreeError,
    Fact,
    Interval,
    RelationError,
    TpRelation,
    TpTuple,
)
from .setops import SetOpKind, _check_operands, _merge_envs

__all__ = [
    "SPAN_LIMIT",
    "SpanLimitError",
    "Snapshot",
    "timeslice",
    "snapshot_setop",
    "oracle_setop",
]

SPAN_LIMIT = 100_000


class SpanLimitError(RelationError):
    """The chronon scan would be too large to run."""


@dataclass(frozen=True)
class Snapshot:
    """All facts alive at one chronon, with their lineages. Duplicate
    freeness guarantees at most one entry per fact."""

    at: int
    entries: dict[Fact, Lineage]


def timeslice(rel: TpRelation, t: int) -> Snapshot:
    """The snapshot of a relation at chronon t."""
    mask = (rel.ts_array <= t) & (t < rel.te_array)
    entries: dict[Fact, Lineage] = {}
    for i in np.flatnonzero(mask):
        fact = rel.fact_table[int(rel.fact_codes[i])]
        if fact in entries:
            raise DuplicateFreeError(rel.row(int(i)), rel.row(int(i)))
        entries[fact] = rel.lineage_column.get(int(i))
    return Snapshot(t, entries)


def snapshot_setop(kind: SetOpKind, snap_r: Snapshot, snap_s: Snapshot) -> Snapshot:
    """Combine two snapshots of the same chronon as plain probabilistic
    sets, using the operation's filter and lineage concatenation."""
    if snap_r.at != snap_s.at:
        raise ValueError(
            f"snapshots taken at different chronons: {snap_r.at} vs {snap_s.at}"
        )
    out: dict[Fact, Lineage] = {}
    for fact in snap_r.entries.keys() | snap_s.entries.keys():
        lam_r = snap_r.entries.get(fact)
        lam_s = snap_s.entries.get(fact)
        if kind.window_filter(lam_r is not None, lam_s is not None):
            out[fact] = kind.concat(lam_r, lam_s)
    return Snapshot(snap_r.at, out)


def _rows_by_fact(rel: TpRelation) -> dict[Fact, list[TpTuple]]:
    grouped: dict[Fact, list[TpTuple]] = {}
    for row in rel:
        grouped.setdefault(row.fact, []).append(row)
    return grouped


def oracle_setop(kind: SetOpKind, r: TpRelation, s: TpRelation) -> TpRelation:
    """Evaluate a set operation the slow, literal way.

    For every fact the full chronon range is walked one step at a time;
    runs with an unchanged covering pair share a lineage, and adjacent
    runs whose lineages are equivalent merge, mirroring the definition
    of coalesced output. Probabilities are evaluated per output row
    against the merged atom environment.
    """
    r, s = _check_operands(r, s)
    by_fact_r = _rows_by_fact(r)
    by_fact_s = _rows_by_fact(s)
    facts = sorted(by_fact_r.keys() | by_fact_s.keys())

    spans: dict[Fact, tuple[int, int]] = {}
    total = 0
    for fact in facts:
        rows = by_fact_r.get(fact, []) + by_fact_s.get(fact, [])
        lo = min(t.interval.ts for t in rows)
        hi = max(t.interval.te for t in rows)
        spans[fact] = (lo, hi)
        total += hi - lo
    if total > SPAN_LIMIT:
        raise SpanLimitError(
            f"combined fact spans cover {total} chronons, over the scan "
            f"limit of {SPAN_LIMIT}"
        )

    env = _merge_envs(dict(r.atom_probs), dict(s.atom_probs))
    out: list[TpTuple] = []
    for fact in facts:
        lo, hi = spans[fact]
        rows_r = by_fact_r.get(fact, [])
        rows_s = by_fact_s.get(fact, [])
        out.extend(_scan_fact(kind, fact, lo, hi, rows_r, rows_s, env))
    return TpRelation.from_tuples(out, atom_probs=env)


def _scan_fact(
    kind: SetOpKind,
    fact: Fact,
    lo: int,
    hi: int,
    rows_r: list[TpTuple],
    rows_s: list[TpTuple],
    env,
) -> list[TpTuple]:
    # Pass 1: chronon walk. Consecutive chronons with an unchanged
    # covering pair form one run; (-1, -1) runs are coverage gaps.
    runs: list[list] = []  # [ts, te, (cov_r, cov_s)]
    i_r = i_s = 0
    for t in range(lo, hi):
        while i_r < len(rows_r) and rows_r[i_r].interval.te <= t:
            i_r += 1
        while i_s < len(rows_s) and rows_s[i_s].interval.te <= t:
            i_s += 1
        cov_r = i_r if i_r < len(rows_r) and rows_r[i_r].interval.ts <= t else -1
        cov_s = i_s if i_s < len(rows_s) and rows_s[i_s].interval.ts <= t else -1
        pair = (cov_r, cov_s)
        if runs and runs[-1][2] == pair:
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1, pair])

    # Pass 2: filter, concatenate, and merge adjacent runs that the
    # per-snapshot view cannot distinguish. A dropped run in between
    # leaves a hole, so contiguity is checked explicitly.
    merged: list[tuple[int, int, Lineage]] = []
    for ts, te, (cov_r, cov_s) in runs:
        if cov_r < 0 and cov_s < 0:
            continue  # coverage gap, not a window
        if not kind.window_filter(cov_r >= 0, cov_s >= 0):
            continue
        lam = kind.concat(
            rows_r[cov_r].lineage if cov_r >= 0 else None,
            rows_s[cov_s].lineage if cov_s >= 0 else None,
        )
        # zero-probability rows hold in no world of positive measure and
        # cannot be represented (p must be positive); skip them
        if probability(lam, env) == 0.0:
            continue
        if merged and merged[-1][1] == ts and syntactic_equiv(merged[-1][2], lam):
            merged[-1] = (merged[-1][0], te, merged[-1][2])
        else:
            merged.append((ts, te, lam))

    return [
        TpTuple(fact, lam, Interval(ts, te), probability(lam, env))
        for ts, te, lam in merged
    ]
