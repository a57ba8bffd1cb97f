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
tuple start and end on both sides, one integer per pair: int32 when the
fact count times the time span fits, which the paper's layouts do, and
int64 otherwise. Each side is sorted by (fact, ts) and duplicate-free,
so its start keys form one ascending run and so do its end keys (a
tuple of a fact ends before the next one of that fact starts). The
four key arrays therefore concatenate into four sorted runs: a stable
sort (timsort for int32 and int64) merges them in a near-linear pass,
and dropping each key equal to its predecessor leaves the event points
in order. That is the paper's single pass over sorted event points,
with no hash table. Correctness does not depend on the runs: the sort
is a full sort on any input. Each temporary is dropped at its last
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    DuplicateFreeError,
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
    """Columnar window set, in (fact, ts) order.

    ts/te are int64 chronons. fact_codes index fact_table; r_idx/s_idx
    give the covering row in the sorted input relations r_rel/s_rel, -1
    where a side is absent. These three are int32 when the kernel's keys
    fit int32 (see window_table), int64 otherwise.
    """

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
        lams_r = self.r_rel.lineage_column.lineages(self.r_idx[self.r_idx >= 0])
        lams_s = self.s_rel.lineage_column.lineages(self.s_idx[self.s_idx >= 0])
        out = []
        for i, r_on, s_on in zip(range(len(self)), self.r_idx >= 0, self.s_idx >= 0):
            out.append(
                Window(
                    self.fact_table[int(self.fact_codes[i])],
                    Interval(int(self.ts[i]), int(self.te[i])),
                    next(lams_r) if r_on else None,
                    next(lams_s) if s_on else None,
                )
            )
        return out


def _merged_fact_table(
    r: TpRelation, s: TpRelation
) -> tuple[tuple[Fact, ...], np.ndarray, np.ndarray]:
    """The sorted union of both fact tables, and each side's map from
    its own fact codes to merged ones."""
    merged = tuple(sorted(set(r.fact_table) | set(s.fact_table)))
    code_of = {f: i for i, f in enumerate(merged)}
    remap_r = np.fromiter(
        (code_of[f] for f in r.fact_table), dtype=np.int64, count=len(r.fact_table)
    )
    remap_s = np.fromiter(
        (code_of[f] for f in s.fact_table), dtype=np.int64, count=len(s.fact_table)
    )
    return merged, remap_r, remap_s


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys in ascending order. Sorts keys in
    place.

    Not numpy.unique: on NumPy >= 2.3 it takes a hash-based path that is
    ~18x slower than this on the kernel's event keys (4M keys).
    """
    keys.sort(kind="stable")
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def window_table(r: TpRelation, s: TpRelation) -> WindowTable:
    """Compute the full window set column-wise, in (fact, ts) order.

    Encodes each (fact, time) pair as one integer key, fact * span +
    (time - tmin), for every tuple start and end on each side. The keys
    are int32 when fact count times span is below 2**31, and int64
    otherwise. A duplicate-free side with ts < te holds at most that
    many tuples, so the same test bounds the row indices. Tuples of one
    fact that overlap raise DuplicateFreeError.

    The four key arrays are each one sorted run (see the module
    docstring), so a stable sort merges them and an adjacent-difference
    mask drops repeated keys, leaving the sorted distinct event points.
    Every gap between adjacent points that at least one input tuple
    covers is a window. Covering rows are found with one binary-search
    pass per side. When the time span times the fact count would
    overflow int64 keys, the time axis is first rank-compressed through
    the same sorted dedup, and the keys stay int64.
    """
    r = sort_relation(r)
    s = sort_relation(s)
    merged, remap_r, remap_s = _merged_fact_table(r, s)
    sides = [rel for rel in (r, s) if len(rel)]
    if not sides:
        empty = np.empty(0, dtype=np.int64)
        return WindowTable(merged, empty, empty, empty, empty, empty, r, s)

    tmin = min(int(rel.ts_array.min()) for rel in sides)
    tmax = max(int(rel.te_array.max()) for rel in sides)
    span = (tmax - tmin) + 2
    kt = np.int32 if len(merged) * span < 2**31 else np.int64
    compressed: Optional[np.ndarray] = None
    if len(merged) * span >= 2**62:
        # Degenerate spreads (huge chronon values, tiny tuple count):
        # rank-compress the time axis so keys stay in range.
        compressed = _sorted_distinct(
            np.concatenate([a for rel in sides for a in (rel.ts_array, rel.te_array)])
        )
        span = len(compressed) + 1

    def key(t: np.ndarray, base: np.ndarray) -> np.ndarray:
        # built in int64 and narrowed only then, so no chronon is ever
        # computed in int32
        k = t - tmin if compressed is None else np.searchsorted(compressed, t)
        k += base
        return k.astype(kt, copy=False)

    def side_keys(rel: TpRelation, remap: np.ndarray):
        # Start keys, and end keys behind one sentinel below every key:
        # k_te[j + 1] is row j's end key.
        base = (remap * span)[rel.fact_codes]
        k_ts = key(rel.ts_array, base)
        k_te = np.empty(len(rel) + 1, dtype=kt)
        k_te[0] = np.iinfo(kt).min
        k_te[1:] = key(rel.te_array, base)
        # Each fact's keys lie below the next fact's, so this adjacent
        # test is exact across facts, as in validate_duplicate_free.
        over = k_te[1:-1] > k_ts[1:]
        if over.any():
            i = int(over.argmax())
            raise DuplicateFreeError(rel.row(i), rel.row(i + 1))
        return k_ts, k_te

    rk_ts, rk_te = side_keys(r, remap_r)
    sk_ts, sk_te = side_keys(s, remap_s)
    pts = _sorted_distinct(np.concatenate([rk_ts, rk_te[1:], sk_ts, sk_te[1:]]))
    seg_start = pts[:-1]

    def covering(k_ts, k_te):
        # i - 1 is the last row starting at or before the segment; it
        # covers the segment iff it ends past the segment's start. Such
        # an end key lies in the segment's own fact, because each
        # fact's keys lie in their own span; so a gap between two facts
        # is never covered, and the sentinel answers for i == 0.
        i = np.searchsorted(k_ts, seg_start, side="right").astype(kt, copy=False)
        uncovered = k_te[i] <= seg_start
        i -= 1
        i[uncovered] = -1
        return i

    r_idx = covering(rk_ts, rk_te)
    s_idx = covering(sk_ts, sk_te)
    del rk_ts, rk_te, sk_ts, sk_te
    keep = r_idx >= 0
    keep |= s_idx >= 0
    r_idx = r_idx[keep]
    s_idx = s_idx[keep]
    start = seg_start[keep]
    end = pts[1:][keep]
    del pts, seg_start, keep

    def chronons(keys):
        off = keys % span
        if compressed is not None:
            return compressed[off]
        t = off.astype(np.int64)
        t += tmin
        return t

    return WindowTable(
        merged, start // span, chronons(start), chronons(end), r_idx, s_idx, r, s
    )
