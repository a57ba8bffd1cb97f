"""Set operations: golden results, algebraic identities, coalescing, envs."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import rel, rows_key
from tpset import (
    And,
    Atom,
    Interval,
    LineageError,
    MissingAtomError,
    Not,
    Or,
    RelationError,
    SetOpKind,
    TpRelation,
    TpTuple,
    apply_setop,
    except_,
    intersect,
    parse_lineage,
    probability,
    syntactic_equiv,
    union,
    validate_duplicate_free,
    windows,
)


def rows_of(r: TpRelation) -> list[tuple]:
    return [(t.fact[0], t.interval.ts, t.interval.te, t.lineage, t.p) for t in r]


def assert_same_relation(got: TpRelation, want_rows: list[tuple], tol=1e-9):
    """want_rows: (fact, ts, te, lineage-string, p); lineage up to equiv."""
    got_rows = rows_of(got)
    assert len(got_rows) == len(want_rows)
    for (gf, gts, gte, glam, gp), (wf, wts, wte, wlam, wp) in zip(
        got_rows, sorted(want_rows)
    ):
        assert (gf, gts, gte) == (wf, wts, wte)
        assert syntactic_equiv(glam, parse_lineage(wlam)), (
            f"{gf} [{gts},{gte}): got {glam!r}"
        )
        assert abs(gp - wp) < tol


class TestGoldenFigures:
    def test_intersect_a_c(self, rel_a, rel_c):
        assert_same_relation(
            intersect(rel_a, rel_c),
            [
                ("chips", 4, 5, "a2 & c3", 0.56),
                ("milk", 2, 4, "a1 & c1", 0.18),
                ("milk", 6, 8, "a1 & c2", 0.21),
            ],
        )

    def test_except_a_c(self, rel_a, rel_c):
        assert_same_relation(
            except_(rel_a, rel_c),
            [
                ("chips", 4, 5, "a2 & !c3", 0.24),
                ("chips", 5, 7, "a2", 0.8),
                ("dates", 1, 3, "a3", 0.6),
                ("milk", 2, 4, "a1 & !c1", 0.12),
                ("milk", 4, 6, "a1", 0.3),
                ("milk", 6, 8, "a1 & !c2", 0.09),
                ("milk", 8, 10, "a1", 0.3),
            ],
        )

    def test_union_a_c(self, rel_a, rel_c):
        assert_same_relation(
            union(rel_a, rel_c),
            [
                ("chips", 4, 5, "a2 | c3", 0.94),
                ("chips", 5, 7, "a2", 0.8),
                ("chips", 7, 9, "c4", 0.8),
                ("dates", 1, 3, "a3", 0.6),
                ("milk", 1, 2, "c1", 0.6),
                ("milk", 2, 4, "a1 | c1", 0.72),
                ("milk", 4, 6, "a1", 0.3),
                ("milk", 6, 8, "a1 | c2", 0.79),
                ("milk", 8, 10, "a1", 0.3),
            ],
        )

    def test_composed_difference_of_union(self, rel_a, rel_b, rel_c):
        # c minus (a union b): the five-row result with its nested
        # negated-union lineages
        out = except_(rel_c, union(rel_a, rel_b))
        assert_same_relation(
            out,
            [
                ("chips", 4, 5, "c3 & !(a2 | b2)", 0.014),
                ("chips", 7, 9, "c4", 0.8),
                ("milk", 1, 2, "c1", 0.6),
                ("milk", 2, 4, "c1 & !a1", 0.42),
                ("milk", 6, 8, "c2 & !(a1 | b1)", 0.196),
            ],
        )

    def test_stored_probability_matches_reevaluation(self, rel_a, rel_b, rel_c):
        for out in [
            intersect(rel_a, rel_c),
            union(rel_a, rel_c),
            except_(rel_a, rel_c),
            except_(rel_c, union(rel_a, rel_b)),
        ]:
            env = out.atom_probs
            for t in out:
                assert abs(t.p - probability(t.lineage, env)) < 1e-12


class TestIdentities:
    def test_union_with_empty_preserves_lineage_objects(self, rel_c):
        e = TpRelation.from_tuples([])
        out = union(rel_c, e)
        src = {(t.fact, t.interval.ts): t.lineage for t in rel_c}
        assert len(out) == len(rel_c)
        for t in out:
            assert t.lineage is src[(t.fact, t.interval.ts)]

    def test_union_empty_left(self, rel_b):
        e = TpRelation.from_tuples([])
        out = union(e, rel_b)
        assert rows_key(out) == rows_key(rel_b)

    def test_except_with_empty_right(self, rel_a):
        e = TpRelation.from_tuples([])
        assert rows_key(except_(rel_a, e)) == rows_key(rel_a)

    def test_except_empty_left_is_empty(self, rel_a):
        e = TpRelation.from_tuples([])
        assert len(except_(e, rel_a)) == 0

    def test_intersect_with_empty_is_empty(self, rel_a):
        e = TpRelation.from_tuples([])
        assert len(intersect(rel_a, e)) == 0
        assert len(intersect(e, rel_a)) == 0

    def test_intersect_self_keeps_marginals(self):
        r = rel([("f", "x", 0, 9, 0.4)])
        out = intersect(r, r)
        assert len(out) == 1
        t = out[0]
        # lineage is x AND x; its probability is still 0.4, not 0.16
        assert t.lineage == And(Atom("x"), Atom("x"))
        assert abs(t.p - 0.4) < 1e-12

    def test_union_self_keeps_marginals(self, rel_a):
        out = union(rel_a, rel_a)
        assert len(out) == len(rel_a)
        for t, src in zip(out, sorted(rel_a, key=lambda t: (t.fact, t.interval.ts))):
            assert t.lineage == Or(src.lineage, src.lineage)
            assert abs(t.p - src.p) < 1e-12

    def test_except_self_is_empty(self):
        # r minus r: every chronon's lineage reads x and not-x, which
        # holds in no world; such rows cannot carry a valid probability
        # and are dropped
        r = rel([("f", "x", 0, 9, 0.4)])
        assert len(except_(r, r)) == 0

    def test_certain_subtrahend_erases_overlap(self):
        # subtracting an atom with probability exactly 1 leaves a
        # zero-probability overlap row, which is dropped; the flanks stay
        r = rel([("f", "x", 0, 9, 0.4)])
        s = rel([("f", "y", 3, 5, 1.0)])
        out = except_(r, s)
        assert [(t.interval.ts, t.interval.te) for t in out] == [(0, 3), (5, 9)]
        assert all(t.lineage == Atom("x") for t in out)


class TestValidationAndShape:
    def test_arity_mismatch(self, rel_a):
        two = TpRelation.from_tuples(
            [TpTuple(("x", "y"), Atom("q1"), Interval(0, 1), 0.5)]
        )
        with pytest.raises(RelationError):
            intersect(rel_a, two)

    def test_unsorted_inputs_accepted(self, rel_c, rel_a):
        assert not rel_c.is_sorted
        out = intersect(rel_c, rel_a)
        assert len(out) == 3

    def test_duplicate_ridden_input_rejected(self, rel_a):
        rows = [
            TpTuple(("f",), Atom("x1"), Interval(0, 9), 0.5),
            TpTuple(("f",), Atom("x2"), Interval(1, 2), 0.5),
        ]
        bad = TpRelation.from_tuples(rows, validate=False)
        with pytest.raises(RelationError):
            union(rel_a, bad)

    @pytest.mark.parametrize("kind", list(SetOpKind))
    def test_output_is_sorted_and_duplicate_free(self, kind, rel_a, rel_c):
        out = apply_setop(kind, rel_a, rel_c)
        assert out.is_sorted
        assert validate_duplicate_free(out) is None

    @pytest.mark.parametrize("kind", list(SetOpKind))
    def test_no_mergeable_adjacency_left_in_output(self, kind, rel_a, rel_b, rel_c):
        # change preservation: consecutive same-fact contiguous rows must
        # not carry equivalent lineages
        for r, s in [(rel_a, rel_c), (rel_c, rel_b), (rel_a, rel_b)]:
            rows = list(apply_setop(kind, r, s))
            for t1, t2 in zip(rows, rows[1:]):
                if t1.fact == t2.fact and t1.interval.te == t2.interval.ts:
                    assert not syntactic_equiv(t1.lineage, t2.lineage)


class TestCoalescing:
    def test_union_merges_contiguous_same_atom_rows(self):
        r = rel([("f", "x", 0, 5, 0.4), ("f", "x", 5, 9, 0.4)])
        e = TpRelation.from_tuples([])
        out = union(r, e)
        assert rows_of(out) == [("f", 0, 9, Atom("x"), 0.4)]

    def test_intersect_merges_under_covering_side(self):
        r = rel([("f", "x", 0, 5, 0.4), ("f", "x", 5, 9, 0.4)])
        s = rel([("f", "y", 0, 9, 0.5)])
        out = intersect(r, s)
        assert len(out) == 1
        t = out[0]
        assert (t.interval.ts, t.interval.te) == (0, 9)
        assert syntactic_equiv(t.lineage, And(Atom("x"), Atom("y")))
        assert abs(t.p - 0.2) < 1e-12

    def test_distinct_atoms_stay_separate(self):
        r = rel([("f", "x1", 0, 5, 0.4), ("f", "x2", 5, 9, 0.4)])
        s = rel([("f", "y", 0, 9, 0.5)])
        out = intersect(r, s)
        assert len(out) == 2

    def test_except_merges_when_subtrahend_absent(self):
        r = rel([("f", "x", 0, 5, 0.4), ("f", "x", 5, 9, 0.4)])
        out = except_(r, rel([("g", "z", 0, 1, 0.5)]))
        assert [(t.fact[0], t.interval.ts, t.interval.te) for t in out] == [
            ("f", 0, 9)
        ]


def _apply_via_sweep(kind: SetOpKind, r: TpRelation, s: TpRelation) -> list[tuple]:
    """Reference evaluation over the step-by-step sweep iterator: filter
    and concatenate every window, then merge contiguous same-fact rows
    with equivalent lineages. Returns (fact, interval, lineage) rows
    without probabilities."""
    merged: list[tuple] = []
    for win in windows(r, s):
        if not kind.window_filter(win.lam_r is not None, win.lam_s is not None):
            continue
        row = (win.fact, win.interval, kind.concat(win.lam_r, win.lam_s))
        if (
            merged
            and merged[-1][0] == row[0]
            and merged[-1][1].te == row[1].ts
            and syntactic_equiv(merged[-1][2], row[2])
        ):
            prev = merged.pop()
            merged.append((prev[0], Interval(prev[1].ts, row[1].te), prev[2]))
        else:
            merged.append(row)
    return merged


def assert_matches_sweep_rows(out: TpRelation, ref) -> None:
    got = [(t.fact, t.interval.ts, t.interval.te, t.lineage) for t in out]
    want = [(f, iv.ts, iv.te, lam) for f, iv, lam in ref]
    assert len(got) == len(want)
    for g, w in zip(sorted(got, key=lambda x: x[:3]), sorted(want, key=lambda x: x[:3])):
        assert g[:3] == w[:3]
        assert syntactic_equiv(g[3], w[3])


class TestReferenceDriverAgreement:
    CASES = [
        ("rel_a", "rel_c"),
        ("rel_a", "rel_b"),
        ("rel_c", "rel_b"),
    ]

    @pytest.mark.parametrize("kind", list(SetOpKind))
    @pytest.mark.parametrize("left,right", CASES)
    def test_vectorized_equals_stepwise(self, kind, left, right, request):
        r = request.getfixturevalue(left)
        s = request.getfixturevalue(right)
        assert_matches_sweep_rows(
            apply_setop(kind, r, s), _apply_via_sweep(kind, r, s)
        )

    def test_long_tuple_against_many_short(self):
        # one 100-chronon tuple minus three islands: the sweep must keep
        # consuming right-side tuples after its own cursor is exhausted
        r = rel([("f", "r1", 0, 100, 0.5)])
        s = rel(
            [
                ("f", "s1", 10, 20, 0.5),
                ("f", "s2", 30, 40, 0.5),
                ("f", "s3", 50, 60, 0.5),
            ]
        )
        out = except_(r, s)
        spans = [(t.interval.ts, t.interval.te) for t in out]
        assert spans == [
            (0, 10),
            (10, 20),
            (20, 30),
            (30, 40),
            (40, 50),
            (50, 60),
            (60, 100),
        ]
        assert_matches_sweep_rows(
            out, _apply_via_sweep(SetOpKind.DIFFERENCE, r, s)
        )

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("kind", list(SetOpKind))
    def test_random_agreement(self, kind, seed):
        from test_sweep import random_relation

        rng = np.random.default_rng(3000 + seed)
        r = random_relation(rng, "r", 1 + seed % 4, int(rng.integers(0, 12)))
        s = random_relation(rng, "s", 1 + seed % 4, int(rng.integers(0, 12)))
        assert_matches_sweep_rows(
            apply_setop(kind, r, s), _apply_via_sweep(kind, r, s)
        )


# Presence patterns (left side, right side) each operation's window
# filter admits.
ADMITTED = {
    SetOpKind.INTERSECTION: [(True, True)],
    SetOpKind.DIFFERENCE: [(True, True), (True, False)],
    SetOpKind.UNION: [(True, True), (True, False), (False, True)],
}
TABLE_P = [0.3, 0.7, 1.0, 1e-5]


class TestOperatorTable:
    @pytest.mark.parametrize("s_present", [True, False])
    @pytest.mark.parametrize("r_present", [True, False])
    @pytest.mark.parametrize("kind", list(SetOpKind))
    def test_window_filter_on_bools_and_arrays(self, kind, r_present, s_present):
        on_bools = kind.window_filter(r_present, s_present)
        on_arrays = kind.window_filter(np.array([r_present]), np.array([s_present]))
        assert on_bools == ((r_present, s_present) in ADMITTED[kind])
        assert on_arrays.tolist() == [on_bools]

    @pytest.mark.parametrize("ps", TABLE_P)
    @pytest.mark.parametrize("pr", TABLE_P)
    @pytest.mark.parametrize(
        "kind,r_present,s_present",
        [(k, r, s) for k, patterns in ADMITTED.items() for r, s in patterns],
    )
    def test_independent_prob_is_probability_of_concat(
        self, kind, r_present, s_present, pr, ps
    ):
        # bit for bit: the vectorized formula and the lineage evaluator
        # must do the same float arithmetic
        lam = kind.concat(
            Atom("x") if r_present else None, Atom("y") if s_present else None
        )
        got = kind.independent_prob(
            np.array([pr]), np.array([ps]), np.array([r_present]), np.array([s_present])
        )
        assert got.tolist() == [probability(lam, {"x": pr, "y": ps})]


class TestProbabilityEnvironments:
    def test_conflicting_atom_probability_rejected(self):
        r = rel([("f", "x", 0, 5, 0.4)])
        s = rel([("f", "x", 3, 8, 0.5)])
        with pytest.raises(LineageError):
            intersect(r, s)

    def test_shared_atom_same_probability_ok(self):
        r = rel([("f", "x", 0, 5, 0.4)])
        s = rel([("f", "x", 3, 8, 0.4)])
        out = intersect(r, s)
        assert len(out) == 1
        assert abs(out[0].p - 0.4) < 1e-12  # x AND x

    def test_disjoint_composite_needs_no_atom_probabilities(self):
        # sides sharing no atoms multiply the stored row probabilities;
        # the atoms inside the composite formula are never looked up
        r = TpRelation.from_tuples(
            [TpTuple(("f",), And(Atom("u1"), Atom("u2")), Interval(0, 5), 0.3)]
        )
        s = rel([("f", "y", 2, 8, 0.5)])
        out = intersect(r, s)
        assert len(out) == 1
        assert abs(out[0].p - 0.15) < 1e-12

    def test_missing_atom_when_sides_share_ids(self):
        # a shared atom id forces full evaluation, which needs every
        # atom's probability; u2 has none
        r = TpRelation.from_tuples(
            [TpTuple(("f",), And(Atom("u1"), Atom("u2")), Interval(0, 5), 0.3)]
        )
        s = rel([("f", "u1", 2, 8, 0.5)])
        with pytest.raises(MissingAtomError):
            intersect(r, s)

    def test_composite_with_explicit_env_works(self):
        r = TpRelation.from_tuples(
            [TpTuple(("f",), And(Atom("u1"), Atom("u2")), Interval(0, 5), 0.35)],
            atom_probs={"u1": 0.5, "u2": 0.7},
        )
        s = rel([("f", "y", 2, 8, 0.5)])
        out = intersect(r, s)
        assert len(out) == 1
        assert abs(out[0].p - 0.35 * 0.5) < 1e-12
