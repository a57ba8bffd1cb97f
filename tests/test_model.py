"""Core types: intervals, tuples, columnar relations, validation, sort."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import rel
from tpset import (
    And,
    Atom,
    DuplicateFreeError,
    Interval,
    LineageError,
    Not,
    Or,
    RelationError,
    TpRelation,
    TpTuple,
    and_fn,
    and_not_fn,
    or_fn,
    sort_relation,
    validate_duplicate_free,
)
from tpset.model import (
    AtomSpace,
    MergedProbEnv,
    ObjectLineageColumn,
    OpLineageColumn,
    PrefixAtomColumn,
    PrefixProbEnv,
)


class TestInterval:
    def test_rejects_empty_and_inverted(self):
        with pytest.raises(ValueError):
            Interval(5, 5)
        with pytest.raises(ValueError):
            Interval(7, 3)

    def test_half_open_membership(self):
        iv = Interval(2, 10)
        assert 2 in iv
        assert 9 in iv
        assert 10 not in iv
        assert 1 not in iv

    def test_overlaps(self):
        assert Interval(1, 5).overlaps(Interval(4, 8))
        assert not Interval(1, 5).overlaps(Interval(5, 8))  # adjacency

    def test_str(self):
        assert str(Interval(2, 10)) == "[2, 10)"


class TestTpTuple:
    def test_probability_bounds(self):
        iv = Interval(0, 1)
        TpTuple(("f",), Atom("x"), iv, 1.0)  # 1.0 allowed
        with pytest.raises(ValueError):
            TpTuple(("f",), Atom("x"), iv, 0.0)
        with pytest.raises(ValueError):
            TpTuple(("f",), Atom("x"), iv, 1.0000001)


class TestFromTuples:
    def test_mixed_arity_rejected(self):
        with pytest.raises(RelationError):
            TpRelation.from_tuples(
                [
                    TpTuple(("f",), Atom("x"), Interval(0, 1), 0.5),
                    TpTuple(("f", "g"), Atom("y"), Interval(0, 1), 0.5),
                ]
            )

    def test_env_derived_from_bare_atoms(self):
        r = rel([("f", "x1", 0, 5, 0.4), ("g", "x2", 0, 5, 0.7)])
        assert dict(r.atom_probs) == {"x1": 0.4, "x2": 0.7}

    def test_composite_rows_contribute_no_env(self):
        r = TpRelation.from_tuples(
            [TpTuple(("f",), And(Atom("x"), Atom("y")), Interval(0, 1), 0.3)]
        )
        assert dict(r.atom_probs) == {}

    def test_repeated_bare_atom_same_probability_ok(self):
        r = rel([("f", "x", 0, 5, 0.4), ("f", "x", 5, 9, 0.4)])
        assert dict(r.atom_probs) == {"x": 0.4}

    def test_repeated_bare_atom_conflicting_probability(self):
        with pytest.raises(RelationError):
            rel([("f", "x", 0, 5, 0.4), ("f", "x", 5, 9, 0.5)])

    def test_explicit_env_merges(self):
        r = rel([("f", "x", 0, 5, 0.4)], atom_probs={"z": 0.9})
        assert dict(r.atom_probs) == {"z": 0.9, "x": 0.4}

    def test_empty(self):
        r = TpRelation.from_tuples([])
        assert len(r) == 0
        assert r.arity is None
        assert r.is_sorted

    def test_row_materialization(self):
        r = rel([("milk", "a1", 2, 10, 0.3)])
        t = r[0]
        assert t == TpTuple(("milk",), Atom("a1"), Interval(2, 10), 0.3)
        assert r[-1] == t
        with pytest.raises(IndexError):
            r.row(1)


class TestSort:
    def test_fact_then_ts(self):
        # relation c built in presentation order; sorted order interleaves
        c = rel(
            [
                ("milk", "c1", 1, 4, 0.6),
                ("milk", "c2", 6, 8, 0.7),
                ("chips", "c3", 4, 5, 0.7),
                ("chips", "c4", 7, 9, 0.8),
            ]
        )
        assert not c.is_sorted
        sc = sort_relation(c)
        assert sc.is_sorted
        assert [(t.fact[0], t.interval.ts, t.interval.te) for t in sc] == [
            ("chips", 4, 5),
            ("chips", 7, 9),
            ("milk", 1, 4),
            ("milk", 6, 8),
        ]

    def test_sorted_input_returned_as_is(self):
        r = rel([("a", "x", 0, 1, 0.5), ("b", "y", 0, 1, 0.5)])
        assert sort_relation(r) is r

    def test_stable_on_equal_keys(self):
        # two tuples at the same (fact, ts) only exist in invalid
        # relations; stability is still promised for the sort itself
        rows = [
            TpTuple(("f",), Atom("x1"), Interval(3, 5), 0.5),
            TpTuple(("f",), Atom("x2"), Interval(3, 4), 0.5),
        ]
        r = TpRelation.from_tuples(rows, validate=False)
        sc = sort_relation(sort_relation(r))
        assert [t.lineage.id for t in sc] == ["x1", "x2"]

    def test_multi_attribute_facts_sort_lexicographically(self):
        rows = [
            TpTuple(("b", "x"), Atom("p1"), Interval(0, 1), 0.5),
            TpTuple(("a", "z"), Atom("p2"), Interval(0, 1), 0.5),
            TpTuple(("a", "y"), Atom("p3"), Interval(0, 1), 0.5),
        ]
        sc = sort_relation(TpRelation.from_tuples(rows))
        assert [t.fact for t in sc] == [("a", "y"), ("a", "z"), ("b", "x")]


class TestValidateDuplicateFree:
    def test_overlap_reported_with_first_pair(self):
        rows = [
            TpTuple(("milk",), Atom("x1"), Interval(1, 5), 0.5),
            TpTuple(("milk",), Atom("x2"), Interval(4, 8), 0.5),
        ]
        r = TpRelation.from_tuples(rows, validate=False)
        bad = validate_duplicate_free(r)
        assert bad is not None
        first, second = bad
        assert first.interval == Interval(1, 5)
        assert second.interval == Interval(4, 8)

    def test_from_tuples_raises_by_default(self):
        with pytest.raises(DuplicateFreeError):
            rel([("milk", "x1", 1, 5, 0.5), ("milk", "x2", 4, 8, 0.5)])

    def test_adjacent_intervals_are_fine(self):
        r = rel([("milk", "x1", 1, 5, 0.5), ("milk", "x2", 5, 8, 0.5)])
        assert validate_duplicate_free(r) is None

    def test_same_interval_different_facts_fine(self):
        r = rel([("milk", "x1", 1, 5, 0.5), ("beer", "x2", 1, 5, 0.5)])
        assert validate_duplicate_free(r) is None

    def test_containment_detected(self):
        rows = [
            TpTuple(("f",), Atom("x1"), Interval(0, 10), 0.5),
            TpTuple(("f",), Atom("x2"), Interval(3, 4), 0.5),
        ]
        r = TpRelation.from_tuples(rows, validate=False)
        assert validate_duplicate_free(r) is not None

    def test_first_pair_in_sorted_order(self):
        rows = [
            TpTuple(("z",), Atom("x1"), Interval(0, 9), 0.5),
            TpTuple(("z",), Atom("x2"), Interval(1, 2), 0.5),
            TpTuple(("a",), Atom("x3"), Interval(0, 3), 0.5),
            TpTuple(("a",), Atom("x4"), Interval(2, 4), 0.5),
        ]
        r = TpRelation.from_tuples(rows, validate=False)
        bad = validate_duplicate_free(r)
        assert bad[0].fact == ("a",)


class TestLineageColumns:
    def test_prefix_column(self):
        col = PrefixAtomColumn("g7a", 3)
        assert col.get(0) == Atom("g7a1")
        assert col.get(2) == Atom("g7a3")
        with pytest.raises(IndexError):
            col.get(3)
        assert col.rows_distinct_hint()

    def test_prefix_take_preserves_mapping(self):
        col = PrefixAtomColumn("t", 4).take(np.array([2, 0]))
        assert col.get(0) == Atom("t3")
        assert col.get(1) == Atom("t1")
        assert col.rows_distinct_hint()

    def test_object_column(self):
        col = ObjectLineageColumn([Atom("x"), And(Atom("x"), Atom("y"))])
        assert col.get(1) == And(Atom("x"), Atom("y"))
        assert not col.rows_distinct_hint()

    @pytest.mark.parametrize(
        "concat,li,ri,expected",
        [
            (and_fn, 0, 1, And(Atom("l1"), Atom("r2"))),
            (and_not_fn, 0, 1, And(Atom("l1"), Not(Atom("r2")))),
            (and_not_fn, 0, -1, Atom("l1")),
            (or_fn, 0, 1, Or(Atom("l1"), Atom("r2"))),
        ],
        # name each concatenation by the connective it builds
        ids=lambda v: {and_fn: "and", and_not_fn: "andnot", or_fn: "or"}.get(v),
    )
    def test_op_column(self, concat, li, ri, expected):
        left = ObjectLineageColumn([Atom("l1"), Atom("l2")])
        right = ObjectLineageColumn([Atom("r1"), Atom("r2")])
        col = OpLineageColumn(
            concat, left, right, np.array([li]), np.array([ri])
        )
        assert col.get(0) == expected

    def test_or_column_single_side_is_identity(self):
        lam = And(Atom("x"), Atom("y"))
        left = ObjectLineageColumn([lam])
        right = ObjectLineageColumn([])
        col = OpLineageColumn(or_fn, left, right, np.array([0]), np.array([-1]))
        assert col.get(0) is lam


class TestAtomSpace:
    def test_sets(self):
        s1 = AtomSpace.from_set(frozenset({"a1", "a2"}))
        s2 = AtomSpace.from_set(frozenset({"b1"}))
        s3 = AtomSpace.from_set(frozenset({"a2", "c1"}))
        assert s1.provably_disjoint(s2)
        assert not s1.provably_disjoint(s3)

    def test_prefixes(self):
        pa = AtomSpace.from_prefix("a")
        pb = AtomSpace.from_prefix("b")
        pt = AtomSpace.from_prefix("t")
        pt1 = AtomSpace.from_prefix("t1")
        assert pa.provably_disjoint(pb)
        # t1.. ids are a subset of t.. ids: not provable
        assert not pt.provably_disjoint(pt1)
        assert not pt.provably_disjoint(pt)

    def test_seed_derived_prefixes_do_not_nest(self):
        # g1a vs g12a: the letter between seed and ordinal blocks nesting
        assert AtomSpace.from_prefix("g1a").provably_disjoint(
            AtomSpace.from_prefix("g12a")
        )

    def test_set_vs_prefix(self):
        ids = AtomSpace.from_set(frozenset({"b1", "c1"}))
        assert not ids.provably_disjoint(AtomSpace.from_prefix("b"))
        assert ids.provably_disjoint(AtomSpace.from_prefix("a"))

    def test_union(self):
        u = AtomSpace.from_set(frozenset({"a1"})).union(
            AtomSpace.from_prefix("b")
        )
        assert not u.provably_disjoint(AtomSpace.from_prefix("b"))
        assert not u.provably_disjoint(AtomSpace.from_set(frozenset({"a1"})))
        assert u.provably_disjoint(AtomSpace.from_set(frozenset({"c9"})))


class TestProbEnvs:
    def test_prefix_env(self):
        env = PrefixProbEnv("t", np.array([0.25, 0.5]))
        assert env["t1"] == 0.25
        assert env["t2"] == 0.5
        assert "t3" not in env
        assert "t0" not in env
        assert "tx" not in env
        assert "s1" not in env
        assert dict(env) == {"t1": 0.25, "t2": 0.5}

    def test_merged_env(self):
        env = MergedProbEnv({"a": 0.1}, {"b": 0.2})
        assert env["a"] == 0.1
        assert env["b"] == 0.2
        assert "c" not in env
        assert sorted(env) == ["a", "b"]
        assert len(env) == 2

    def test_merged_env_conflict_fails_on_lookup(self):
        env = MergedProbEnv({"a": 0.1}, {"a": 0.2})
        with pytest.raises(LineageError):
            env["a"]

    def test_merged_env_agreeing_duplicate(self):
        env = MergedProbEnv({"a": 0.1}, {"a": 0.1})
        assert env["a"] == 0.1
