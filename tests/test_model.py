"""Core types: intervals, tuples, columnar relations, validation, sort."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import rel, rows_key
from tpset import (
    And,
    Atom,
    DuplicateFreeError,
    GenParams,
    Interval,
    LineageError,
    Not,
    Or,
    RelationError,
    SetOpKind,
    TpRelation,
    TpTuple,
    and_fn,
    and_not_fn,
    apply_setop,
    except_,
    generate,
    or_fn,
    sort_relation,
    union,
    validate_duplicate_free,
)
from tpset.lineage import print_lineage
from tpset.model import AtomTable, Leaf, LineageColumn, OpBlock
from tpset.oracle import oracle_setop
from tpset.sweep import window_table, windows
from tpset.tsvio import write_relation


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


def leaf(*formulas) -> Leaf:
    return Leaf.from_rows(list(formulas), [0.5] * len(formulas))


def generated(prefix: str, n: int) -> Leaf:
    return Leaf.generated(prefix, np.full(n, 0.5))


class TestLineageColumns:
    def test_generated_rows(self):
        col = LineageColumn(generated("g7a", 3), 3)
        assert col.get(0) == Atom("g7a1")
        assert col.get(2) == Atom("g7a3")
        with pytest.raises(IndexError):
            col.get(3)
        assert col.block.distinct

    def test_generated_take_preserves_mapping(self):
        col = LineageColumn(generated("t", 4), 4).take(np.array([2, 0]))
        assert col.get(0) == Atom("t3")
        assert col.get(1) == Atom("t1")
        assert col.block.distinct

    def test_formula_list(self):
        col = LineageColumn(leaf(Atom("x"), And(Atom("x"), Atom("y"))), 2)
        assert col.get(1) == And(Atom("x"), Atom("y"))
        assert not col.block.distinct

    def test_formula_list_of_distinct_bare_atoms(self):
        assert leaf(Atom("x"), Atom("y")).distinct
        assert not leaf(Atom("x"), Atom("y"), Atom("x")).distinct

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
    def test_operation_block(self, concat, li, ri, expected):
        left = leaf(Atom("l1"), Atom("l2"))
        right = leaf(Atom("r1"), Atom("r2"))
        block = OpBlock(concat, left, np.array([li]), right, np.array([ri]))
        assert LineageColumn(block, 1).get(0) == expected

    def test_or_block_single_side_is_identity(self):
        lam = And(Atom("x"), Atom("y"))
        block = OpBlock(or_fn, leaf(lam), np.array([0]), leaf(), np.array([-1]))
        assert LineageColumn(block, 1).get(0) is lam

    @pytest.mark.parametrize(
        "col",
        [
            LineageColumn(leaf(Atom("x"), Atom("y")), 2),
            LineageColumn(leaf(Atom("x"), Atom("y")), 2).take(np.array([1, 0])),
            LineageColumn(generated("g", 2), 2),
            LineageColumn(generated("g", 4), 4).take(np.array([3, 1])),
            LineageColumn(
                OpBlock(
                    or_fn,
                    generated("a", 2),
                    np.array([0, 1]),
                    generated("b", 2),
                    np.array([1, -1]),
                ),
                2,
            ),
        ],
        ids=["list", "list-view", "generated", "generated-view", "operation"],
    )
    @pytest.mark.parametrize("i", [-1, -3, 2, 5])
    def test_get_outside_rows_raises(self, col, i):
        with pytest.raises(IndexError):
            col.get(i)

    def test_take_of_take_reads_the_materialized_rows(self):
        # two chained operations, then two chained takes of the result
        x = leaf(Atom("x1"), Atom("x2"), Atom("x3"))
        inner = OpBlock(
            or_fn, x, np.array([0, 1, 2, 2]), generated("y", 3), np.array([2, 1, 0, -1])
        )
        li, ri = np.array([3, 0, 1, 2, 3]), np.array([-1, 0, 1, 2, 3])
        outer = OpBlock(and_not_fn, inner, li, generated("z", 4), ri)
        col = LineageColumn(outer, 5)
        rows = [col.get(i) for i in range(5)]
        first, second = np.array([4, 0, 2, 3]), np.array([3, 1, 2])
        view = col.take(first).take(second)
        assert type(view.block) is OpBlock and view.block is outer
        assert [view.get(i) for i in range(3)] == [rows[first[j]] for j in second]


def node_formula(block, k):
    """Node k of block, built recursively: the reference for the fold."""
    if type(block) is Leaf:
        if block.formulas is None:
            return Atom(f"{block.prefix}{k + 1}")
        return block.formulas[k]
    li, ri = int(block.left_ids[k]), int(block.right_ids[k])
    return block.concat(
        node_formula(block.left, li) if li >= 0 else None,
        node_formula(block.right, ri) if ri >= 0 else None,
    )


def across_blocks() -> LineageColumn:
    # two generated leaves under one union, 2 x 8,192 + 3 rows, every
    # 7th row without its right side
    n = 2 * 8192 + 3
    right = np.arange(n)[::-1].copy()
    right[::7] = -1
    return LineageColumn(
        OpBlock(or_fn, generated("a", n), np.arange(n), generated("b", n), right), n
    )


def sample_columns() -> dict[str, LineageColumn]:
    x = leaf(Atom("x1"), And(Atom("x1"), Atom("y")), Atom("x2"))
    inner = OpBlock(
        or_fn, x, np.array([0, 1, 2, 2]), generated("y", 3), np.array([2, 1, 0, -1])
    )
    outer = OpBlock(
        and_not_fn, inner, np.array([3, 0, 1, 2, 3]), generated("z", 4),
        np.array([-1, 0, 1, 2, 3]),
    )
    r = rel([("f", "r1", 0, 5, 0.4), ("f", "r2", 5, 9, 0.5), ("g", "r3", 1, 3, 0.6)])
    s = rel([("f", "s1", 2, 7, 0.3)])
    absent = union(r, except_(s, s)).lineage_column
    return {
        "list": LineageColumn(x, 3),
        "list-view": LineageColumn(x, 3).take(np.array([2, 2, 0])),
        "generated": LineageColumn(generated("g", 4), 4),
        "generated-view": LineageColumn(generated("g", 4), 4).take(np.array([3, 1])),
        "operation": LineageColumn(outer, 5),
        "operation-view": LineageColumn(outer, 5).take(np.array([4, 0, 2])),
        "absent-side": absent,
        "absent-side-view": absent.take(np.array([2, 0])),
        "across-blocks": across_blocks(),
        "across-blocks-view": across_blocks().take(np.arange(2 * 8192 + 3)[::-1]),
    }


class TestLineageFold:
    """LineageColumn.lineages folds rows block by block; get is one row
    of it."""

    @pytest.mark.parametrize("name", list(sample_columns()))
    def test_lineages_equal_get_and_the_recursive_reference(self, name):
        col = sample_columns()[name]
        idx = np.arange(len(col))
        got = list(col.lineages(idx))
        assert got == [col.get(i) for i in idx]
        nodes = idx if col.rows is None else col.rows
        assert got == [node_formula(col.block, int(k)) for k in nodes]

    def test_rows_out_of_order_and_repeated(self):
        col = sample_columns()["operation"]
        idx = np.array([4, 0, 4, 2, 2])
        assert list(col.lineages(idx)) == [col.get(i) for i in idx]

    def test_absent_side_has_minus_one_ids(self):
        col = sample_columns()["absent-side"]
        assert type(col.block) is OpBlock and (col.block.right_ids < 0).all()

    def test_empty_rows(self):
        for col in sample_columns().values():
            assert list(col.lineages(np.array([], dtype=np.int64))) == []

    @pytest.mark.parametrize("i", [-1, 5])
    def test_rows_outside_the_column_raise(self, i):
        col = sample_columns()["operation"]
        with pytest.raises(IndexError):
            list(col.lineages([0, i]))

    def test_chain_of_1200_unions(self):
        # deeper than the recursion limit, so compared as text
        out = rel([("milk", "x0", 0, 5, 0.5)])
        for i in range(1, 1200):
            out = union(out, rel([("milk", f"x{i}", 0, 5, 0.5)]))
        col = out.lineage_column
        (lam,) = col.lineages([0])
        chain = " | ".join(f"x{i}" for i in range(1200))
        assert print_lineage(lam) == print_lineage(col.get(0)) == chain

    def test_iteration_equals_rows(self):
        out = union(except_(rel_abc("a"), rel_abc("b")), intersect_abc())
        assert len(out) > 3
        assert list(out) == [out.row(i) for i in range(len(out))]
        assert out.row(-1) == out.row(len(out) - 1)


def rel_abc(name: str) -> TpRelation:
    # each name shifts its intervals, so windows cover one side or both
    k = "abc".index(name)
    return rel(
        [
            ("milk", f"{name}1", 1 + k, 6 + k, 0.3),
            ("milk", f"{name}2", 6 + k, 9 + k, 0.6),
            ("chips", f"{name}3", 2 - k, 7 - k, 0.8),
        ]
    )


def intersect_abc() -> TpRelation:
    return apply_setop(SetOpKind.INTERSECTION, rel_abc("a"), rel_abc("c"))


class TestNoSingleRowGet:
    """Every path that reads many rows' lineage goes through the fold,
    never through LineageColumn.get, one row at a time."""

    @pytest.fixture(autouse=True)
    def no_get(self, monkeypatch):
        def get(self, i):
            raise AssertionError("LineageColumn.get called")

        monkeypatch.setattr(LineageColumn, "get", get)

    def test_per_row_probability_path(self):
        left, right = except_(rel_abc("a"), rel_abc("b")), intersect_abc()
        # both sides reach a's leaf, so the tables are not disjoint
        assert not left.atom_probs.disjoint(right.atom_probs)
        out = union(left, right)
        assert rows_key(out) == rows_key(oracle_setop(SetOpKind.UNION, left, right))

    def test_coalesce_with_a_merge(self):
        r = rel([("f", "x", 0, 5, 0.4), ("f", "x", 5, 9, 0.4)])
        out = union(r, TpRelation.from_tuples([]))
        assert len(out) == 1 and (out.ts_array[0], out.te_array[0]) == (0, 9)

    def test_dump_of_a_composed_result(self):
        out = union(except_(rel_abc("a"), rel_abc("b")), intersect_abc())
        assert write_relation(out).count("\n") == len(out) + 1

    def test_iteration(self):
        out = union(except_(rel_abc("a"), rel_abc("b")), intersect_abc())
        assert len(list(out)) == len(out)

    def test_to_windows(self):
        r, s = except_(rel_abc("a"), rel_abc("b")), rel_abc("c")
        wins = window_table(r, s).to_windows()
        assert any(w.lam_r is None for w in wins) and any(w.lam_s is None for w in wins)
        assert wins == windows(r, s)


def table(atoms: dict) -> AtomTable:
    """The table of one leaf that defines or mentions exactly atoms."""
    return AtomTable((Leaf([], atoms, True),))


def block(prefix: str, p=(0.5,)) -> AtomTable:
    return AtomTable((Leaf.generated(prefix, np.array(p)),))


class TestAtomTableDisjoint:
    def test_sets(self):
        t1 = table({"a1": 0.1, "a2": 0.2})
        t2 = table({"b1": 0.3})
        t3 = table({"a2": 0.2, "c1": 0.4})
        assert t1.disjoint(t2)
        assert not t1.disjoint(t3)

    def test_prefixes(self):
        assert block("a").disjoint(block("b"))
        # t1.. ids are a subset of t.. ids: not provable
        assert not block("t").disjoint(block("t1"))
        assert not block("t1").disjoint(block("t"))
        assert not block("t").disjoint(block("t"))

    def test_seed_derived_prefixes_do_not_nest(self):
        # g1a vs g12a: the letter between seed and ordinal blocks nesting
        assert block("g1a").disjoint(block("g12a"))

    def test_ids_vs_prefix(self):
        ids = table({"b1": 0.1, "c1": 0.2})
        assert not ids.disjoint(block("b"))
        assert not block("b").disjoint(ids)
        assert ids.disjoint(block("a"))

    def test_merge_then_disjoint(self):
        u = table({"a1": 0.1}).merge(block("b"))
        assert not u.disjoint(block("b"))
        assert not u.disjoint(table({"a1": 0.1}))
        assert u.disjoint(table({"c9": 0.1}))

    def test_mentioned_atom_without_probability(self):
        t = table({"u1": None, "x": 0.5})
        assert "u1" not in t
        with pytest.raises(KeyError):
            t["u1"]
        assert dict(t) == {"x": 0.5}
        assert len(t) == 1
        assert not t.disjoint(table({"u1": 0.3}))
        assert not table({"u1": None}).disjoint(table({"u1": None}))
        # merging supplies the missing probability from the other side
        assert t.merge(table({"u1": 0.3}))["u1"] == 0.3
        assert table({"u1": 0.3}).merge(t)["u1"] == 0.3


class TestLeavesByIdentity:
    def test_operation_result_holds_its_operands_leaves(self, rel_a, rel_c):
        for kind in SetOpKind:
            out = apply_setop(kind, rel_a, rel_c)
            for r in (rel_a, rel_c):
                assert r.lineage_column.block in out.atom_probs.leaves
            assert len(out.atom_probs.leaves) == 2

    def test_deep_query_over_two_relations_keeps_two_leaves(self):
        # b - (a - (b - (a - ... a))), 1000 differences deep
        a = rel([("milk", "x", 0, 5, 0.5)])
        b = rel([("milk", "y", 0, 5, 0.5)])
        out = a
        for i in range(1000):
            out = except_(b if i % 2 == 0 else a, out)
        leaves = out.atom_probs.leaves
        assert len(leaves) == 2
        assert {id(x) for x in leaves} == {
            id(a.lineage_column.block),
            id(b.lineage_column.block),
        }

    def test_generated_relation_column_is_its_tables_leaf(self):
        g = generate(GenParams(100, 4, 3, 1, seed=2))
        assert g.atom_probs.leaves == (g.lineage_column.block,)
        assert g.lineage_column.block.prefix == "g2a"

    def test_merge_copies_no_leaf(self):
        x, y = table({"x": 0.5}), block("t")
        u = x.merge(y)
        assert u.leaves[0] is x.leaves[0] and u.leaves[1] is y.leaves[0]
        assert u.merge(x) is u
        assert x.merge(x) is x


class TestAtomTableFromTuples:
    def test_a_generated_table_keeps_its_atoms(self):
        g = generate(GenParams(1000, 10, 3, 1, seed=3))
        mentions = TpRelation.from_tuples(
            [TpTuple(("f9",), And(Atom("u"), Atom("v")), Interval(0, 1), 0.3)]
        )
        known = union(g, mentions).atom_probs
        r = TpRelation.from_tuples(
            [TpTuple(("f",), Atom("x"), Interval(0, 1), 0.25)], atom_probs=known
        )
        t = r.atom_probs
        assert len(t) == 1001
        assert t["x"] == 0.25
        for k in (0, 500, 999):
            assert t[g[k].lineage.id] == g[k].p
        for miss in ("g3a0", "g3a1001", "u", "v"):
            assert miss not in t
        assert not t.disjoint(g.atom_probs)
        assert not t.disjoint(rel([("f", "u", 0, 1, 0.5)]).atom_probs)
        assert not t.disjoint(rel([("f", "x", 0, 1, 0.25)]).atom_probs)
        assert t.disjoint(rel([("f", "z", 0, 1, 0.5)]).atom_probs)


class TestAtomTableLookups:
    def test_block(self):
        t = block("t", [0.25, 0.5])
        assert t["t1"] == 0.25
        assert t["t2"] == 0.5
        for miss in ("t3", "t0", "t01", "tx", "t", "s1"):
            assert miss not in t
        assert dict(t) == {"t1": 0.25, "t2": 0.5}

    def test_merged(self):
        t = table({"a": 0.1}).merge(table({"b": 0.2}))
        assert t["a"] == 0.1
        assert t["b"] == 0.2
        assert "c" not in t
        assert sorted(t) == ["a", "b"]
        assert len(t) == 2

    def test_merged_block_and_ids(self):
        t = block("t", [0.25, 0.5]).merge(table({"a": 0.1, "t2": 0.5}))
        assert dict(t) == {"a": 0.1, "t1": 0.25, "t2": 0.5}
        assert len(t) == 3

    def test_conflicting_explicit_probability_raises_at_merge(self):
        with pytest.raises(LineageError):
            table({"a": 0.1}).merge(table({"a": 0.2}))

    def test_conflict_with_a_block_raises_on_lookup(self):
        t = block("t", [0.25]).merge(table({"t1": 0.3}))
        with pytest.raises(LineageError):
            t["t1"]

    def test_agreeing_duplicate(self):
        t = table({"a": 0.1}).merge(table({"a": 0.1}))
        assert t["a"] == 0.1
        assert block("t", [0.25]).merge(table({"t1": 0.25}))["t1"] == 0.25

    def test_relation_table_mentions_compound_atoms(self):
        r = TpRelation.from_tuples(
            [TpTuple(("f",), And(Atom("x"), Atom("y")), Interval(0, 1), 0.3)]
        )
        assert dict(r.atom_probs) == {}
        assert not r.atom_probs.disjoint(table({"y": 0.5}))

    def test_constructor_folds_a_plain_mapping_into_the_table(self):
        col = LineageColumn(leaf(Atom("x"), And(Atom("y"), Atom("z"))), 2)
        r = TpRelation(
            (("f",),), [0, 0], [0, 1], [1, 2], [0.4, 0.3], col, {"z": 0.9}
        )
        assert isinstance(r.atom_probs, AtomTable)
        assert dict(r.atom_probs) == {"x": 0.4, "z": 0.9}
        assert not r.atom_probs.disjoint(table({"y": None}))
