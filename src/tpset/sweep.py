"""Window sweep over two sorted relations.

Given duplicate-free relations r and s sorted by (fact, ts), the sweep
splits the timeline of every fact into maximal subintervals during which
the covering tuple on each side stays fixed (and at least one side is
covered). These windows are what the set operations filter and combine.

Two implementations, one contract:

* a resumable iterator (init_status / next_window) that advances one
  window per call and carries its whole state in a small status value,
* a vectorized kernel (window_table) that computes all windows at once
  with numpy and is the production path for large inputs.

The iterator is the specification-in-code; the kernel must agree with
it window for window, in the same (fact, ts) order, and the tests hold
it to that.

The kernel's event points are the distinct (fact, time) keys of every
tuple start and end on both sides. Each side is sorted by (fact, ts)
and duplicate-free, so its start keys form one ascending run and so do
its end keys (a tuple of a fact ends before the next one of that fact
starts). The four key arrays therefore concatenate into four sorted
runs: a stable sort (timsort for int64) merges them in a near-linear
pass, and dropping each key equal to its predecessor leaves the event
points in order. That is the paper's single pass over sorted event
points, with no hash table. Correctness does not depend on the runs:
the sort is a full sort on any input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    Fact,
    Interval,
    RelationError,
    TpRelation,
    TpTuple,
    Window,
    sort_relation,
    validate_duplicate_free,
)

__all__ = [
    "SweepStatus",
    "init_status",
    "next_window",
    "windows",
    "WindowTable",
    "window_table",
]


@dataclass(frozen=True)
class SweepStatus:
    """Complete state of a sweep between two next_window calls.

    The cursors are (relation, position) pairs; a valid tuple is one
    whose interval still reaches past the last emitted window end and
    therefore keeps covering the current fact's region.
    """

    r_rel: TpRelation
    s_rel: TpRelation
    r_pos: int
    s_pos: int
    prev_win_te: Optional[int]
    curr_fact: Optional[Fact]
    r_valid: Optional[TpTuple]
    s_valid: Optional[TpTuple]

    @property
    def r_next(self) -> Optional[TpTuple]:
        return self.r_rel.row(self.r_pos) if self.r_pos < len(self.r_rel) else None

    @property
    def s_next(self) -> Optional[TpTuple]:
        return self.s_rel.row(self.s_pos) if self.s_pos < len(self.s_rel) else None

    @property
    def exhausted(self) -> bool:
        return (
            self.r_valid is None
            and self.s_valid is None
            and self.r_pos >= len(self.r_rel)
            and self.s_pos >= len(self.s_rel)
        )


def init_status(r: TpRelation, s: TpRelation) -> SweepStatus:
    """Start a sweep. Both relations must already be sorted by
    (fact, ts) and duplicate-free; violations raise."""
    for name, rel in (("left", r), ("right", s)):
        if not rel.is_sorted:
            raise RelationError(f"{name} relation is not sorted by (fact, ts)")
        bad = validate_duplicate_free(rel)
        if bad is not None:
            raise RelationError(
                f"{name} relation violates the duplicate-free invariant: "
                f"{bad[0].fact} at {bad[0].interval} and {bad[1].interval}"
            )
    return SweepStatus(r, s, 0, 0, None, None, None, None)


def next_window(status: SweepStatus) -> tuple[Optional[Window], SweepStatus]:
    """Advance the sweep by one window.

    Returns (window, new_status), or (None, status) once no window can
    be formed any more. The input status is never mutated, so a caller
    can fork or replay a sweep from any point.
    """
    r_cur = status.r_next
    s_cur = status.s_next
    r_valid = status.r_valid
    s_valid = status.s_valid
    r_pos = status.r_pos
    s_pos = status.s_pos

    if r_valid is not None or s_valid is not None:
        # A valid tuple survived the previous window, so the region
        # continues seamlessly from its end.
        fact = status.curr_fact
        win_ts = status.prev_win_te
    else:
        # New region: start at the smallest (fact, ts) among the cursor
        # tuples, preferring the left side on full ties.
        if r_cur is None and s_cur is None:
            return None, status
        if s_cur is None or (
            r_cur is not None
            and (r_cur.fact, r_cur.interval.ts) <= (s_cur.fact, s_cur.interval.ts)
        ):
            fact = r_cur.fact
            win_ts = r_cur.interval.ts
        else:
            fact = s_cur.fact
            win_ts = s_cur.interval.ts

    # Promote cursor tuples that begin covering this fact exactly at the
    # window start. Duplicate-freeness guarantees the slot is free: a
    # same-fact cursor tuple cannot start under a still-valid one.
    if r_valid is None and r_cur is not None:
        if r_cur.fact == fact and r_cur.interval.ts == win_ts:
            r_valid = r_cur
            r_pos += 1
    if s_valid is None and s_cur is not None:
        if s_cur.fact == fact and s_cur.interval.ts == win_ts:
            s_valid = s_cur
            s_pos += 1

    # The window ends where a covering tuple runs out or the next tuple
    # of the same fact begins. Cursor tuples of other facts are not
    # boundary candidates.
    candidates = []
    if r_valid is not None:
        candidates.append(r_valid.interval.te)
    if s_valid is not None:
        candidates.append(s_valid.interval.te)
    r_after = status.r_rel.row(r_pos) if r_pos < len(status.r_rel) else None
    s_after = status.s_rel.row(s_pos) if s_pos < len(status.s_rel) else None
    if r_after is not None and r_after.fact == fact:
        candidates.append(r_after.interval.ts)
    if s_after is not None and s_after.fact == fact:
        candidates.append(s_after.interval.ts)
    win_te = min(candidates)

    window = Window(
        fact,
        Interval(win_ts, win_te),
        r_valid.lineage if r_valid is not None else None,
        s_valid.lineage if s_valid is not None else None,
    )

    # Tuples ending exactly at the boundary stop covering.
    if r_valid is not None and r_valid.interval.te == win_te:
        r_valid = None
    if s_valid is not None and s_valid.interval.te == win_te:
        s_valid = None

    return window, SweepStatus(
        status.r_rel,
        status.s_rel,
        r_pos,
        s_pos,
        win_te,
        fact,
        r_valid,
        s_valid,
    )


def windows(r: TpRelation, s: TpRelation) -> list[Window]:
    """All windows of the two relations in (fact, ts) order. Sorts the
    inputs internally when needed."""
    status = init_status(sort_relation(r), sort_relation(s))
    out: list[Window] = []
    while True:
        win, status = next_window(status)
        if win is None:
            return out
        out.append(win)


# ---------------------------------------------------------------------------
# vectorized kernel
# ---------------------------------------------------------------------------


@dataclass
class WindowTable:
    """Columnar window set. r_idx/s_idx give the covering row in the
    sorted input relations r_rel/s_rel, -1 where a side is absent."""

    fact_table: tuple[Fact, ...]
    fact_codes: np.ndarray
    ts: np.ndarray
    te: np.ndarray
    r_idx: np.ndarray
    s_idx: np.ndarray
    r_rel: TpRelation
    s_rel: TpRelation

    def __len__(self) -> int:
        return len(self.fact_codes)

    @property
    def both_count(self) -> int:
        return int(np.count_nonzero((self.r_idx >= 0) & (self.s_idx >= 0)))

    def to_windows(self) -> list[Window]:
        out = []
        for i in range(len(self)):
            ri = int(self.r_idx[i])
            si = int(self.s_idx[i])
            out.append(
                Window(
                    self.fact_table[int(self.fact_codes[i])],
                    Interval(int(self.ts[i]), int(self.te[i])),
                    self.r_rel.lineage_column.get(ri) if ri >= 0 else None,
                    self.s_rel.lineage_column.get(si) if si >= 0 else None,
                )
            )
        return out


def _merged_fact_table(
    r: TpRelation, s: TpRelation
) -> tuple[tuple[Fact, ...], np.ndarray, np.ndarray]:
    merged = tuple(sorted(set(r.fact_table) | set(s.fact_table)))
    code_of = {f: i for i, f in enumerate(merged)}
    remap_r = np.fromiter(
        (code_of[f] for f in r.fact_table), dtype=np.int64, count=len(r.fact_table)
    )
    remap_s = np.fromiter(
        (code_of[f] for f in s.fact_table), dtype=np.int64, count=len(s.fact_table)
    )
    rc = remap_r[r.fact_codes] if len(r) else np.empty(0, dtype=np.int64)
    sc = remap_s[s.fact_codes] if len(s) else np.empty(0, dtype=np.int64)
    return merged, rc, sc


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys in ascending order.

    Not numpy.unique: on NumPy >= 2.3 it takes a hash-based path that is
    ~18x slower than this on the kernel's event keys (4M keys).
    """
    out = np.sort(keys, kind="stable")
    keep = np.ones(len(out), dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def window_table(r: TpRelation, s: TpRelation) -> WindowTable:
    """Compute the full window set column-wise, in (fact, ts) order.

    Encodes (fact, time) pairs into single int64 keys, one per tuple
    start and end on each side. The four key arrays are each one sorted
    run (see the module docstring), so a stable sort merges them and an
    adjacent-difference mask drops repeated keys, leaving the sorted
    distinct event points. Every gap between adjacent points of one
    fact that at least one input tuple covers is a window. Covering
    rows are found with one binary-search pass per side. When the time
    span times the fact count would overflow int64 keys, the time axis
    is first rank-compressed through the same sorted dedup.
    """
    r = sort_relation(r)
    s = sort_relation(s)
    merged, rc, sc = _merged_fact_table(r, s)
    n_r, n_s = len(r), len(s)
    empty = np.empty(0, dtype=np.int64)
    if n_r == 0 and n_s == 0:
        return WindowTable(merged, empty, empty, empty, empty, empty, r, s)

    all_ts = np.concatenate([r.ts_array, s.ts_array])
    all_te = np.concatenate([r.te_array, s.te_array])
    tmin = int(all_ts.min())
    tmax = int(all_te.max())
    span = (tmax - tmin) + 2
    compressed: Optional[np.ndarray] = None
    if len(merged) * span >= 2**62:
        # Degenerate spreads (huge chronon values, tiny tuple count):
        # rank-compress the time axis so keys stay in range.
        compressed = _sorted_distinct(np.concatenate([all_ts, all_te]))
        span = len(compressed) + 1
        rk_ts = rc * span + np.searchsorted(compressed, r.ts_array)
        rk_te = rc * span + np.searchsorted(compressed, r.te_array)
        sk_ts = sc * span + np.searchsorted(compressed, s.ts_array)
        sk_te = sc * span + np.searchsorted(compressed, s.te_array)
    else:
        rk_ts = rc * span + (r.ts_array - tmin)
        rk_te = rc * span + (r.te_array - tmin)
        sk_ts = sc * span + (s.ts_array - tmin)
        sk_te = sc * span + (s.te_array - tmin)
    del all_ts, all_te

    pts = _sorted_distinct(np.concatenate([rk_ts, rk_te, sk_ts, sk_te]))
    fid = pts // span
    adj = fid[:-1] == fid[1:]
    seg_start = pts[:-1][adj]
    seg_end = pts[1:][adj]
    seg_fact = fid[:-1][adj]
    del pts, fid, adj

    def covering(side_ts_key, side_te_key, side_codes):
        # candidate: the last tuple starting at or before the segment;
        # it covers iff it is the same fact and ends past the start
        i = np.searchsorted(side_ts_key, seg_start, side="right") - 1
        ic = np.maximum(i, 0)
        ok = (
            (i >= 0)
            & (side_codes[ic] == seg_fact)
            & (side_te_key[ic] > seg_start)
        )
        return np.where(ok, i, -1)

    r_idx = covering(rk_ts, rk_te, rc) if n_r else np.full(len(seg_start), -1)
    s_idx = covering(sk_ts, sk_te, sc) if n_s else np.full(len(seg_start), -1)
    keep = (r_idx >= 0) | (s_idx >= 0)

    seg_fact = seg_fact[keep]
    start_off = seg_start[keep] - seg_fact * span
    end_off = seg_end[keep] - seg_fact * span
    if compressed is not None:
        ts = compressed[start_off]
        te = compressed[end_off]
    else:
        ts = start_off + tmin
        te = end_off + tmin
    return WindowTable(merged, seg_fact, ts, te, r_idx[keep], s_idx[keep], r, s)
