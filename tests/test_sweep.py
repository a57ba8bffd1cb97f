"""Window sweep: golden window sets, resumable cursor, vectorized kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel
from tpset import (
    Atom,
    DuplicateFreeError,
    Interval,
    RelationError,
    SetOpKind,
    TpRelation,
    TpTuple,
    Window,
    apply_setop,
    init_status,
    next_window,
    oracle_setop,
    overlapping_factor,
    sort_relation,
    syntactic_equiv,
    window_table,
    windows,
)


def win_key(w: Window) -> tuple:
    return (w.fact, w.interval.ts, w.interval.te, repr(w.lam_r), repr(w.lam_s))


def as_rows(ws: list[Window]) -> list[tuple]:
    return [(w.fact[0], w.interval.ts, w.interval.te, w.lam_r, w.lam_s) for w in ws]


A = Atom


class TestGoldenWindows:
    def test_windows_a_c(self, rel_a, rel_c):
        got = as_rows(windows(rel_a, rel_c))
        expected = [
            ("chips", 4, 5, A("a2"), A("c3")),
            ("chips", 5, 7, A("a2"), None),
            ("chips", 7, 9, None, A("c4")),
            ("dates", 1, 3, A("a3"), None),
            ("milk", 1, 2, None, A("c1")),
            ("milk", 2, 4, A("a1"), A("c1")),
            ("milk", 4, 6, A("a1"), None),
            ("milk", 6, 8, A("a1"), A("c2")),
            ("milk", 8, 10, A("a1"), None),
        ]
        assert len(got) == 9
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    def test_windows_a_b(self, rel_a, rel_b):
        got = as_rows(windows(rel_a, rel_b))
        expected = [
            ("chips", 3, 4, None, A("b2")),
            ("chips", 4, 6, A("a2"), A("b2")),
            ("chips", 6, 7, A("a2"), None),
            ("dates", 1, 3, A("a3"), None),
            ("milk", 2, 5, A("a1"), None),
            ("milk", 5, 9, A("a1"), A("b1")),
            ("milk", 9, 10, A("a1"), None),
        ]
        assert len(got) == 7
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    def test_windows_are_emitted_fact_major_and_time_ordered(self, rel_a, rel_c):
        ws = windows(rel_a, rel_c)
        keys = [(w.fact, w.interval.ts) for w in ws]
        assert keys == sorted(keys)

    def test_milk_trace_c_against_a(self, rel_a, rel_c):
        # step-by-step region for one fact: sweep starts on the earlier
        # tuple, pairs both sides while they overlap, and drains the
        # longer side after the shorter ends
        milk = [w for w in windows(rel_c, rel_a) if w.fact == ("milk",)]
        assert as_rows(milk) == [
            ("milk", 1, 2, A("c1"), None),
            ("milk", 2, 4, A("c1"), A("a1")),
            ("milk", 4, 6, None, A("a1")),
            ("milk", 6, 8, A("c2"), A("a1")),
            ("milk", 8, 10, None, A("a1")),
        ]

    def test_count_bound_on_goldens(self, rel_a, rel_b, rel_c):
        # endpoints of r plus endpoints of s minus number of distinct facts
        for r, s in [(rel_a, rel_c), (rel_a, rel_b), (rel_c, rel_b)]:
            facts = {t.fact for t in r} | {t.fact for t in s}
            bound = 2 * len(r) + 2 * len(s) - len(facts)
            assert len(windows(r, s)) <= bound
        assert len(windows(rel_a, rel_c)) == 9  # bound here is 11


class TestCursorApi:
    def test_exhausted_immediately_on_empty(self):
        e = TpRelation.from_tuples([])
        st0 = init_status(e, e)
        win, st1 = next_window(st0)
        assert win is None
        assert st1.exhausted

    def test_unsorted_operand_rejected(self):
        bad = rel(
            [("milk", "x1", 5, 6, 0.5), ("milk", "x2", 1, 2, 0.5)]
        )
        ok = rel([("milk", "y1", 0, 1, 0.5)])
        with pytest.raises(RelationError, match="not sorted"):
            init_status(bad, ok)
        with pytest.raises(RelationError, match="not sorted"):
            init_status(ok, bad)
        init_status(sort_relation(bad), ok)  # fine once sorted

    def test_duplicate_ridden_operand_rejected(self):
        rows = [
            TpTuple(("f",), Atom("x1"), Interval(0, 9), 0.5),
            TpTuple(("f",), Atom("x2"), Interval(1, 2), 0.5),
        ]
        bad = TpRelation.from_tuples(rows, validate=False)
        ok = rel([("f", "y1", 0, 1, 0.5)])
        with pytest.raises(RelationError):
            init_status(bad, ok)

    def test_status_is_immutable_and_replayable(self, rel_a, rel_c):
        st0 = init_status(sort_relation(rel_a), sort_relation(rel_c))
        # drive to the middle, then replay the same status twice
        st_mid = st0
        for _ in range(4):
            _, st_mid = next_window(st_mid)
        w1, n1 = next_window(st_mid)
        w2, n2 = next_window(st_mid)
        assert w1 == w2
        assert n1 == n2
        # and the original start still yields the full set
        out = []
        cur = st0
        while True:
            w, cur = next_window(cur)
            if w is None:
                break
            out.append(w)
        assert len(out) == 9

    def test_stream_ends_with_persistent_none(self, rel_a, rel_b):
        cur = init_status(sort_relation(rel_a), sort_relation(rel_b))
        seen = 0
        while True:
            w, cur = next_window(cur)
            if w is None:
                break
            seen += 1
        assert seen == 7
        w, cur2 = next_window(cur)
        assert w is None and cur2.exhausted

    def test_windows_sorts_internally(self, rel_c, rel_a):
        # rel_c is in presentation order (milk before chips)
        assert not rel_c.is_sorted
        assert len(windows(rel_c, rel_a)) == 9


# independent reference: per-fact chronon scan over a small domain
def chronon_windows(r: TpRelation, s: TpRelation) -> list[tuple]:
    facts = sorted({t.fact for t in r} | {t.fact for t in s})
    out = []
    for f in facts:
        rt = [t for t in r if t.fact == f]
        st_ = [t for t in s if t.fact == f]
        pts = [t.interval.ts for t in rt + st_] + [t.interval.te for t in rt + st_]
        if not pts:
            continue
        lo, hi = min(pts), max(pts)
        runs = []
        for t in range(lo, hi):
            cr = [x for x in rt if t in x.interval]
            cs = [x for x in st_ if t in x.interval]
            assert len(cr) <= 1 and len(cs) <= 1
            pair = (
                cr[0].lineage if cr else None,
                cs[0].lineage if cs else None,
            )
            if pair == (None, None):
                runs.append(None)
            elif runs and runs[-1] is not None and runs[-1][3] == pair and runs[-1][2] == t:
                runs[-1] = (runs[-1][0], runs[-1][1], t + 1, pair)
            else:
                runs.append((f[0], t, t + 1, pair))
        for run in runs:
            if run is not None:
                name, ts, te, pair = run
                out.append((name, ts, te, pair[0], pair[1]))
    return out


def random_relation(rng: np.random.Generator, prefix: str, n_facts: int, n_tuples: int) -> TpRelation:
    rows = []
    used: dict[tuple, list] = {}
    i = 0
    attempts = 0
    while len(rows) < n_tuples and attempts < n_tuples * 40:
        attempts += 1
        f = (f"f{rng.integers(0, n_facts)}",)
        ts = int(rng.integers(0, 48))
        te = ts + int(rng.integers(1, 6))
        iv = Interval(ts, te)
        if any(iv.overlaps(other) for other in used.get(f, [])):
            continue
        used.setdefault(f, []).append(iv)
        i += 1
        rows.append(TpTuple(f, Atom(f"{prefix}{i}"), iv, round(0.1 + 0.8 * rng.random(), 6)))
    return TpRelation.from_tuples(rows)


class TestRandomizedAgainstChrononScan:
    @pytest.mark.parametrize("seed", range(25))
    def test_windows_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        r = random_relation(rng, "r", 1 + seed % 4, int(rng.integers(0, 14)))
        s = random_relation(rng, "s", 1 + seed % 4, int(rng.integers(0, 14)))
        got = sorted(as_rows(windows(r, s)), key=repr)
        want = sorted(chronon_windows(r, s), key=repr)
        assert got == want

    @pytest.mark.parametrize("seed", range(25))
    def test_count_bound_random(self, seed):
        rng = np.random.default_rng(1000 + seed)
        r = random_relation(rng, "r", 1 + seed % 5, int(rng.integers(1, 16)))
        s = random_relation(rng, "s", 1 + seed % 5, int(rng.integers(1, 16)))
        facts = {t.fact for t in r} | {t.fact for t in s}
        if not facts:
            pytest.skip("degenerate draw")
        ws = windows(r, s)
        assert len(ws) <= 2 * len(r) + 2 * len(s) - len(facts)


# Time bases the kernel's keys must survive: zero, just below the int32
# limit, far below zero, and far past the int32 limit.
TIME_BASES = [0, 2**31 - 5, -(2**40), 2**62]


@st.composite
def repeated_key_pairs(draw) -> tuple[TpRelation, TpRelation]:
    """Two relations on the grid base..base+8, base from TIME_BASES,
    built to repeat event keys: each fact's tuples are cut from one
    sorted point set, so covered pieces sit gap-0 next to each other,
    both sides draw from the same few points, several facts share
    them, and sometimes a side is empty."""
    base = draw(st.sampled_from(TIME_BASES))
    n_facts = draw(st.integers(1, 3))
    sides = []
    for prefix in ("r", "s"):
        rows = []
        for f in range(n_facts):
            cuts = sorted(draw(st.sets(st.integers(0, 8), max_size=7)))
            covered = draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
            for ts, te, keep in zip(cuts, cuts[1:], covered):
                if keep:
                    iv = Interval(base + ts, base + te)
                    rows.append(TpTuple((f"f{f}",), A(f"{prefix}{len(rows)}"), iv, 0.5))
        sides.append(TpRelation.from_tuples(rows))
    emptied = draw(st.sampled_from([None, 0, 1]))
    if emptied is not None:
        sides[emptied] = TpRelation.from_tuples([])
    return sides[0], sides[1]


class TestVectorKernel:
    def test_row_order_matches_iterator_on_goldens(self, rel_a, rel_b, rel_c):
        for r, s in [(rel_a, rel_c), (rel_a, rel_b), (rel_c, rel_b), (rel_b, rel_b)]:
            assert as_rows(window_table(r, s).to_windows()) == as_rows(windows(r, s))

    @pytest.mark.parametrize("seed", range(30))
    def test_row_order_matches_iterator_random(self, seed):
        rng = np.random.default_rng(7000 + seed)
        r = random_relation(rng, "r", 1 + seed % 6, int(rng.integers(0, 20)))
        s = random_relation(rng, "s", 1 + seed % 6, int(rng.integers(0, 20)))
        assert as_rows(window_table(r, s).to_windows()) == as_rows(windows(r, s))

    @given(repeated_key_pairs())
    @settings(max_examples=150, deadline=None)
    def test_row_order_matches_iterator_on_repeated_keys(self, pair):
        r, s = pair
        assert as_rows(window_table(r, s).to_windows()) == as_rows(windows(r, s))

    @given(repeated_key_pairs())
    @settings(max_examples=60, deadline=None)
    def test_operations_match_oracle_on_repeated_keys(self, pair):
        assert_ops_match_oracle(*pair)

    def test_matches_iterator_on_goldens(self, rel_a, rel_b, rel_c):
        for r, s in [(rel_a, rel_c), (rel_a, rel_b), (rel_c, rel_b), (rel_b, rel_b)]:
            wt = window_table(r, s)
            assert sorted(as_rows(wt.to_windows()), key=repr) == sorted(
                as_rows(windows(r, s)), key=repr
            )

    def test_both_count(self, rel_a, rel_c):
        wt = window_table(rel_a, rel_c)
        assert wt.both_count == 3
        assert len(wt.ts) == 9

    def test_empty_operands(self):
        e = TpRelation.from_tuples([])
        wt = window_table(e, e)
        assert len(wt.ts) == 0
        assert wt.to_windows() == []

    def test_one_empty_side_passes_other_through(self, rel_a):
        e = TpRelation.from_tuples([])
        wt = window_table(rel_a, e)
        rows = as_rows(wt.to_windows())
        assert rows == [
            ("chips", 4, 7, A("a2"), None),
            ("dates", 1, 3, A("a3"), None),
            ("milk", 2, 10, A("a1"), None),
        ]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_iterator_random(self, seed):
        rng = np.random.default_rng(7000 + seed)
        r = random_relation(rng, "r", 1 + seed % 6, int(rng.integers(0, 20)))
        s = random_relation(rng, "s", 1 + seed % 6, int(rng.integers(0, 20)))
        wt = window_table(r, s)
        assert sorted(as_rows(wt.to_windows()), key=repr) == sorted(
            as_rows(windows(r, s)), key=repr
        )

    def test_wide_time_values_use_compressed_keys(self):
        big = 2**61
        r = TpRelation.from_tuples(
            [
                TpTuple(("f",), Atom("r1"), Interval(-big, -big + 5), 0.5),
                TpTuple(("f",), Atom("r2"), Interval(big - 5, big), 0.5),
            ]
        )
        s = TpRelation.from_tuples(
            [TpTuple(("f",), Atom("s1"), Interval(-big + 2, -big + 9), 0.5)]
        )
        rows = as_rows(window_table(r, s).to_windows())
        assert rows == [
            ("f", -big, -big + 2, A("r1"), None),
            ("f", -big + 2, -big + 5, A("r1"), A("s1")),
            ("f", -big + 5, -big + 9, None, A("s1")),
            ("f", big - 5, big, A("r2"), None),
        ]

    def test_wide_time_values_with_shared_endpoints(self):
        # the rank-compressed branch dedups the time axis too: here the
        # sides share endpoints and r has gap-0 neighbours
        big = 2**61
        r = TpRelation.from_tuples(
            [
                TpTuple(("f",), Atom("r1"), Interval(-big, -big + 5), 0.5),
                TpTuple(("f",), Atom("r2"), Interval(-big + 5, -big + 9), 0.5),
                TpTuple(("f",), Atom("r3"), Interval(big - 5, big), 0.5),
            ]
        )
        s = TpRelation.from_tuples(
            [
                TpTuple(("f",), Atom("s1"), Interval(-big, -big + 5), 0.5),
                TpTuple(("f",), Atom("s2"), Interval(-big + 9, -big + 12), 0.5),
                TpTuple(("f",), Atom("s3"), Interval(big - 5, big), 0.5),
            ]
        )
        rows = as_rows(window_table(r, s).to_windows())
        assert rows == [
            ("f", -big, -big + 5, A("r1"), A("s1")),
            ("f", -big + 5, -big + 9, A("r2"), None),
            ("f", -big + 9, -big + 12, None, A("s2")),
            ("f", big - 5, big, A("r3"), A("s3")),
        ]
        assert rows == as_rows(windows(r, s))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_window_invariants_hold(self, seed):
        rng = np.random.default_rng(seed)
        r = random_relation(rng, "r", 1 + seed % 3, int(rng.integers(0, 10)))
        s = random_relation(rng, "s", 1 + seed % 3, int(rng.integers(0, 10)))
        ws = windows(r, s)
        by_fact: dict = {}
        for w in ws:
            assert w.lam_r is not None or w.lam_s is not None
            by_fact.setdefault(w.fact, []).append(w)
        for f, group in by_fact.items():
            group.sort(key=lambda w: w.interval.ts)
            for w1, w2 in zip(group, group[1:]):
                assert w1.interval.te <= w2.interval.ts
                if w1.interval.te == w2.interval.ts:
                    # maximality: adjacent windows must differ somewhere
                    assert (w1.lam_r, w1.lam_s) != (w2.lam_r, w2.lam_s)


def assert_ops_match_oracle(r: TpRelation, s: TpRelation) -> None:
    """Every operation equals the chronon-walking oracle, row for row
    and lineage for lineage, and keeps int64 columns."""
    for kind in SetOpKind:
        fast = apply_setop(kind, r, s)
        slow = oracle_setop(kind, r, s)
        assert [(t.fact, t.interval, t.p) for t in fast] == [
            (t.fact, t.interval, t.p) for t in slow
        ], kind
        for tf, tw in zip(fast, slow):
            assert syntactic_equiv(tf.lineage, tw.lineage)
        for col in (fast.fact_codes, fast.ts_array, fast.te_array):
            assert col.dtype == np.int64


def placed(prefix: str, rows, offsets: dict) -> TpRelation:
    """rows: (fact, ts, te); each fact's times shifted by its offset."""
    return TpRelation.from_tuples(
        [
            TpTuple(
                (f,),
                Atom(f"{prefix}{i}"),
                Interval(offsets[f] + ts, offsets[f] + te),
                0.25 + 0.5 * (i % 2),
            )
            for i, (f, ts, te) in enumerate(rows)
        ]
    )


# gap-0 neighbours, shared endpoints, a lone left tail and a lone right
# tuple, on two facts
LEFT_ROWS = [("f", 0, 3), ("f", 3, 6), ("f", 9, 12), ("g", 0, 4), ("g", 6, 8)]
RIGHT_ROWS = [("f", 2, 3), ("f", 5, 10), ("g", 4, 6), ("g", 7, 9)]


class TestNarrowedKernel:
    """The kernel's keys and row indices are int32 exactly when fact
    count times span (tmax - tmin + 2) is below 2**31; chronons never
    pass through int32."""

    @pytest.mark.parametrize("base", [2**31 - 5, -(2**40), 2**62 - 20])
    def test_time_bases(self, base):
        offsets = {"f": base, "g": base}
        r, s = placed("r", LEFT_ROWS, offsets), placed("s", RIGHT_ROWS, offsets)
        wt = window_table(r, s)
        assert wt.r_idx.dtype == wt.s_idx.dtype == wt.fact_codes.dtype == np.int32
        assert wt.ts.dtype == wt.te.dtype == np.int64
        assert as_rows(wt.to_windows()) == as_rows(windows(r, s))
        assert_ops_match_oracle(r, s)

    @pytest.mark.parametrize(
        "span,key_dtype", [(2**30 - 1, np.int32), (2**30, np.int64)]
    )
    def test_fact_count_times_span_at_the_int32_limit(self, span, key_dtype):
        # two facts; g's last end sits at tmin + span - 2
        offsets = {"f": 7, "g": 7 + span - 2 - 9}
        r, s = placed("r", LEFT_ROWS, offsets), placed("s", RIGHT_ROWS, offsets)
        wt = window_table(r, s)
        assert wt.r_idx.dtype == wt.s_idx.dtype == wt.fact_codes.dtype == key_dtype
        assert int(wt.te.max()) - int(wt.ts.min()) == span - 2
        assert as_rows(wt.to_windows()) == as_rows(windows(r, s))
        assert_ops_match_oracle(r, s)

    def test_rank_compressed_branch(self):
        offsets = {"f": 2**62, "g": 2**63 - 20}
        r, s = placed("r", LEFT_ROWS, offsets), placed("s", RIGHT_ROWS, offsets)
        wt = window_table(r, s)
        assert wt.r_idx.dtype == wt.fact_codes.dtype == np.int64
        assert int(wt.ts.min()) == 2**62
        assert as_rows(wt.to_windows()) == as_rows(windows(r, s))
        assert_ops_match_oracle(r, s)

    def test_side_starting_after_a_segment(self):
        # s starts after r's first segment, so that segment looks up
        # s's row -1, the padded sentinel; on g, the last s start at or
        # before r's first segment is f's, which ends before g's keys
        r = rel([("f", "r1", 0, 2, 0.5), ("g", "r2", 0, 2, 0.5)])
        s = rel([("f", "s1", 3, 5, 0.5), ("g", "s2", 1, 3, 0.5)])
        rows = as_rows(window_table(r, s).to_windows())
        assert rows == [
            ("f", 0, 2, A("r1"), None),
            ("f", 3, 5, None, A("s1")),
            ("g", 0, 1, A("r2"), None),
            ("g", 1, 2, A("r2"), A("s2")),
            ("g", 2, 3, None, A("s2")),
        ]
        assert rows == as_rows(windows(r, s))
        assert_ops_match_oracle(r, s)

    @pytest.mark.parametrize("empty_side", [0, 1])
    def test_one_side_empty(self, empty_side):
        pair = [
            placed("r", LEFT_ROWS, {"f": -(2**40), "g": 0}),
            TpRelation.from_tuples([]),
        ]
        if empty_side == 0:
            pair.reverse()
        r, s = pair
        assert as_rows(window_table(r, s).to_windows()) == as_rows(windows(r, s))
        assert_ops_match_oracle(r, s)


class TestOverlapRejected:
    """The kernel rejects tuples of one fact that overlap instead of
    returning windows that lose one of them."""

    def overlapping(self):
        return rel([("f", "x1", 0, 5, 0.5), ("f", "x2", 2, 7, 0.5)], validate=False)

    def test_left_side(self):
        s = rel([("f", "y1", 1, 3, 0.5)])
        with pytest.raises(DuplicateFreeError) as err:
            window_table(self.overlapping(), s)
        assert [t.interval for t in err.value.pair] == [Interval(0, 5), Interval(2, 7)]
        with pytest.raises(DuplicateFreeError):
            overlapping_factor(self.overlapping(), s)
        with pytest.raises(RelationError):
            windows(self.overlapping(), s)

    def test_right_side_and_equal_starts(self):
        r = rel([("f", "y1", 1, 3, 0.5)])
        s = rel(
            [("g", "z0", 0, 1, 0.5), ("g", "z1", 4, 6, 0.5), ("g", "z2", 4, 5, 0.5)],
            validate=False,
        )
        with pytest.raises(DuplicateFreeError) as err:
            window_table(r, s)
        assert {t.interval for t in err.value.pair} == {Interval(4, 6), Interval(4, 5)}

    def test_first_pair_is_named(self):
        r = rel(
            [
                ("f", "a", 0, 3, 0.5),
                ("f", "b", 2, 4, 0.5),
                ("g", "c", 0, 9, 0.5),
                ("g", "d", 1, 2, 0.5),
            ],
            validate=False,
        )
        with pytest.raises(DuplicateFreeError) as err:
            window_table(r, TpRelation.from_tuples([]))
        assert [t.lineage for t in err.value.pair] == [A("a"), A("b")]

    def test_touching_tuples_and_other_facts_pass(self):
        # an end equal to the next start, and one fact ending after the
        # next fact's first start, are not overlaps
        r = rel([("f", "a", 0, 3, 0.5), ("f", "b", 3, 9, 0.5), ("g", "c", 1, 2, 0.5)])
        assert as_rows(window_table(r, r).to_windows()) == as_rows(windows(r, r))
