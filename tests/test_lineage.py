"""Lineage formulas: combinators, normal form, probability, grammar."""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enum_probability
from tpset import (
    MAX_REPEATED_ATOMS,
    And,
    Atom,
    LineageError,
    LineageSyntaxError,
    MissingAtomError,
    Not,
    Or,
    RepeatBudgetError,
    and_fn,
    and_not_fn,
    atom_occurrences,
    base_atoms,
    canonicalize,
    is_one_occurrence_form,
    or_fn,
    parse_lineage,
    print_lineage,
    probability,
    syntactic_equiv,
)

a1, b1, c1, c2 = Atom("a1"), Atom("b1"), Atom("c1"), Atom("c2")


# --- strategies --------------------------------------------------------------

ATOM_IDS = [f"x{i}" for i in range(8)]


def formulas(ids=ATOM_IDS, max_leaves=12):
    return st.recursive(
        st.sampled_from(ids).map(Atom),
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda lr: And(*lr)),
            st.tuples(inner, inner).map(lambda lr: Or(*lr)),
        ),
        max_leaves=max_leaves,
    )


def env_for(lam):
    # deterministic non-degenerate probabilities per atom (stable across
    # processes, unlike hash())
    return {
        atom: 0.15 + 0.8 * ((zlib.crc32(atom.encode()) % 97) / 97.0)
        for atom in base_atoms(lam)
    }


# --- concatenation functions -------------------------------------------------


class TestConcat:
    def test_and_builds_conjunction(self):
        assert and_fn(a1, c1) == And(a1, c1)

    def test_and_requires_both(self):
        with pytest.raises(LineageError):
            and_fn(a1, None)
        with pytest.raises(LineageError):
            and_fn(None, c1)

    def test_and_not_negates_second(self):
        assert and_not_fn(c2, Or(a1, b1)) == And(c2, Not(Or(a1, b1)))

    def test_and_not_absent_second_is_identity(self):
        assert and_not_fn(a1, None) is a1

    def test_and_not_requires_first(self):
        with pytest.raises(LineageError):
            and_not_fn(None, c1)

    def test_or_builds_disjunction(self):
        assert or_fn(a1, b1) == Or(a1, b1)

    def test_or_single_side_passes_through_unchanged(self):
        assert or_fn(a1, None) is a1
        assert or_fn(None, b1) is b1

    def test_or_requires_one(self):
        with pytest.raises(LineageError):
            or_fn(None, None)

    def test_no_simplification(self):
        # x and x stays a two-leaf conjunction
        assert and_fn(a1, a1) == And(a1, a1)
        assert atom_occurrences(and_fn(a1, a1)) == 2


# --- structure queries -------------------------------------------------------


def test_base_atoms():
    assert base_atoms(and_not_fn(c2, Or(a1, b1))) == {"c2", "a1", "b1"}
    assert base_atoms(a1) == {"a1"}


def test_atom_occurrences_counts_repeats():
    lam = Or(And(a1, b1), And(a1, c1))
    assert atom_occurrences(lam) == 4
    assert base_atoms(lam) == {"a1", "b1", "c1"}


def test_is_one_occurrence_form():
    assert is_one_occurrence_form(And(a1, c1))
    assert is_one_occurrence_form(and_not_fn(c2, Or(a1, b1)))
    assert not is_one_occurrence_form(Or(And(a1, b1), And(a1, c1)))


@given(formulas(), formulas())
def test_concat_preserves_occurrence_count(lhs, rhs):
    for fn in (and_fn, and_not_fn, or_fn):
        assert atom_occurrences(fn(lhs, rhs)) == atom_occurrences(
            lhs
        ) + atom_occurrences(rhs)


# --- canonical form and equivalence ------------------------------------------


class TestEquiv:
    def test_commutativity(self):
        assert syntactic_equiv(And(a1, b1), And(b1, a1))
        assert syntactic_equiv(Or(a1, b1), Or(b1, a1))

    def test_chain_reassociation(self):
        assert syntactic_equiv(And(a1, And(b1, c1)), And(And(c1, a1), b1))

    def test_different_operator(self):
        assert not syntactic_equiv(And(a1, b1), Or(a1, b1))

    def test_distribution_not_recognized(self):
        # logically equal, structurally different: stays unequal
        lhs = And(a1, Or(b1, c1))
        rhs = Or(And(a1, b1), And(a1, c1))
        assert not syntactic_equiv(lhs, rhs)

    def test_absent(self):
        assert syntactic_equiv(None, None)
        assert not syntactic_equiv(None, a1)
        assert not syntactic_equiv(a1, None)

    def test_repeats_matter(self):
        assert not syntactic_equiv(And(a1, a1), a1)

    @given(formulas())
    def test_canonicalize_idempotent(self, lam):
        canon = canonicalize(lam)
        assert canonicalize(canon) == canon

    @given(formulas())
    def test_equiv_reflexive(self, lam):
        assert syntactic_equiv(lam, lam)

    def test_deep_alternating_chain_is_equiv_to_itself(self):
        # 3000 levels alternating & and |, built twice as separate objects
        assert syntactic_equiv(alternating_chain(3000), alternating_chain(3000))
        assert not syntactic_equiv(
            alternating_chain(3000), alternating_chain(2999)
        )
        canon = canonicalize(alternating_chain(3000))
        assert syntactic_equiv(canon, alternating_chain(3000))

    @given(formulas(max_leaves=8))
    def test_equiv_never_exceeds_truth(self, lam):
        # equivalence must imply equal probability in every environment
        mirrored = _mirror(lam)
        assert syntactic_equiv(lam, mirrored)
        env = env_for(lam)
        assert abs(
            enum_probability(lam, env) - enum_probability(mirrored, env)
        ) < 1e-12


def or_chain(n: int):
    """Left-nested x0 | x1 | ... | x(n-1)."""
    lam = Atom("x0")
    for i in range(1, n):
        lam = Or(lam, Atom(f"x{i}"))
    return lam


def alternating_chain(n: int):
    """n levels deep, each level's operator the other one of its child."""
    lam = Atom("x0")
    for i in range(1, n + 1):
        lam = (And if i % 2 else Or)(lam, Atom(f"x{i}"))
    return lam


def _mirror(lam):
    if isinstance(lam, Atom):
        return lam
    if isinstance(lam, Not):
        return Not(_mirror(lam.child))
    return type(lam)(_mirror(lam.right), _mirror(lam.left))


# --- probability -------------------------------------------------------------


class TestProbability:
    def test_conjunction_of_independents(self):
        assert probability(And(a1, c1), {"a1": 0.3, "c1": 0.6}) == pytest.approx(
            0.18, abs=1e-12
        )

    def test_negated_disjunction(self):
        env = {"c2": 0.7, "a1": 0.3, "b1": 0.6}
        lam = and_not_fn(c2, Or(a1, b1))
        assert probability(lam, env) == pytest.approx(0.196, abs=1e-12)

    def test_repeated_atom_is_exact(self):
        env = {"a1": 0.3}
        assert probability(Or(a1, a1), env) == pytest.approx(0.3, abs=1e-12)
        assert probability(And(a1, a1), env) == pytest.approx(0.3, abs=1e-12)
        assert probability(And(a1, Not(a1)), env) == pytest.approx(0.0, abs=1e-12)

    def test_missing_atom(self):
        with pytest.raises(MissingAtomError):
            probability(And(a1, c1), {"a1": 0.3})

    def test_repeat_budget(self):
        lam = None
        for i in range(MAX_REPEATED_ATOMS + 1):
            x = Atom(f"r{i}")
            pair = Or(x, x)
            lam = pair if lam is None else And(lam, pair)
        env = {f"r{i}": 0.5 for i in range(MAX_REPEATED_ATOMS + 1)}
        with pytest.raises(RepeatBudgetError):
            probability(lam, env)

    def test_many_repeated_atoms_still_exact(self):
        # 12 repeated atoms: 4096 expansion branches, still exact
        k = 12
        lam = None
        for i in range(k):
            x = Atom(f"r{i}")
            pair = Or(x, x)
            lam = pair if lam is None else And(lam, pair)
        env = {f"r{i}": 0.5 for i in range(k)}
        assert probability(lam, env) == pytest.approx(0.5**k, rel=1e-9)

    def test_deep_or_chain(self):
        p = 0.001
        env = {f"x{i}": p for i in range(3000)}
        assert abs(probability(or_chain(3000), env) - (1 - (1 - p) ** 3000)) < 1e-9

    def test_disjunction_of_tiny_probabilities_stays_positive(self):
        # 1 - (1-p)(1-q) rounds to 0.0 for p = q = 1e-200
        assert probability(Or(a1, b1), {"a1": 1e-200, "b1": 1e-200}) == 2e-200

    @given(formulas(max_leaves=10))
    @settings(max_examples=150)
    def test_matches_enumeration(self, lam):
        env = env_for(lam)
        assert probability(lam, env) == pytest.approx(
            enum_probability(lam, env), abs=1e-12
        )

    @given(formulas(max_leaves=8))
    def test_fast_path_agrees_with_pinned_expansion(self, lam):
        # P(l or l) forces the repeated-atom expansion over every atom of
        # l; it must reproduce the direct evaluation of l exactly
        env = env_for(lam)
        assert probability(Or(lam, lam), env) == pytest.approx(
            probability(lam, env), abs=1e-12
        )


# --- text form ----------------------------------------------------------------


class TestGrammar:
    @pytest.mark.parametrize(
        "text,tree",
        [
            ("a1", a1),
            ("!a1", Not(a1)),
            ("a1 & b1", And(a1, b1)),
            ("a1 | b1", Or(a1, b1)),
            ("a1 & b1 | c1", Or(And(a1, b1), c1)),
            ("a1 | b1 & c1", Or(a1, And(b1, c1))),
            ("!a1 & b1", And(Not(a1), b1)),
            ("!(a1 & b1)", Not(And(a1, b1))),
            ("c2 & !(a1 | b1)", And(c2, Not(Or(a1, b1)))),
            ("(a1 | b1) & c1", And(Or(a1, b1), c1)),
            ("a1 & (b1 & c1)", And(a1, And(b1, c1))),
            ("a1 & b1 & c1", And(And(a1, b1), c1)),
            ("_x & x2_y", And(Atom("_x"), Atom("x2_y"))),
        ],
    )
    def test_parse(self, text, tree):
        assert parse_lineage(text) == tree

    def test_whitespace_insignificant(self):
        assert parse_lineage(" a1&! ( b1 |c1 ) ") == And(a1, Not(Or(b1, c1)))

    @pytest.mark.parametrize(
        "text,expected",
        [
            (And(c2, Not(Or(a1, b1))), "c2 & !(a1 | b1)"),
            (Or(And(a1, b1), c1), "a1 & b1 | c1"),
            (And(Or(a1, b1), c1), "(a1 | b1) & c1"),
            (And(a1, And(b1, c1)), "a1 & (b1 & c1)"),
            (And(And(a1, b1), c1), "a1 & b1 & c1"),
            (Not(Not(a1)), "!(!a1)"),
            (Not(a1), "!a1"),
        ],
    )
    def test_print(self, text, expected):
        assert print_lineage(text) == expected

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 1),
            ("a &", 4),
            ("& a", 1),
            ("a b", 3),
            ("(a", 3),
            ("a & $", 5),
            ("(a | b) )", 9),
            ("1x", 1),
            ("a)", 2),
            ("()", 2),
            ("!", 2),
            ("a & (b", 7),
            ("(a b", 4),
            ("a\u00b7b", 2),
            ("\u00b2a", 1),
        ],
    )
    def test_syntax_error_positions(self, text, position):
        with pytest.raises(LineageSyntaxError) as err:
            parse_lineage(text)
        assert err.value.position == position

    @given(formulas())
    def test_round_trip_preserves_structure(self, lam):
        assert parse_lineage(print_lineage(lam)) == lam

    def test_atom_alphabet(self):
        # first character isalpha() or '_', then isalnum() or '_'; a
        # superscript digit continues an atom but cannot start one
        assert parse_lineage("a\u00b2") == Atom("a\u00b2")
        assert parse_lineage("_1 | a1") == Or(Atom("_1"), a1)

    @pytest.mark.parametrize(
        "text,tree",
        [
            ("a1", a1),
            ("_x", Atom("_x")),
            ("a\u00b2", Atom("a\u00b2")),
            ("\u00e91", Atom("\u00e91")),
            (" a1", a1),
            ("a1 ", a1),
            ("(a1)", a1),
        ],
    )
    def test_bare_atom_same_with_and_without_parentheses(self, text, tree):
        # a bare id may be matched whole, but the parenthesized form
        # always goes through the tokenizer; both must agree
        assert parse_lineage(text) == tree
        assert parse_lineage(f"({text})") == tree

    @pytest.mark.parametrize(
        "text,position",
        [("\u00b2a", 1), ("1a", 1), ("a-b", 2), ("", 1)],
    )
    def test_near_atoms_fail_where_the_tokenizer_stops(self, text, position):
        with pytest.raises(LineageSyntaxError) as err:
            parse_lineage(text)
        assert err.value.position == position
        with pytest.raises(LineageSyntaxError) as err:
            parse_lineage(f"({text})")
        assert err.value.position == position + 1

    @pytest.mark.parametrize(
        "text,printed",
        [
            ("!" * 3000 + "x", "!(" * 2999 + "!x" + ")" * 2999),
            ("(" * 3000 + "x" + ")" * 3000, "x"),
            ("!(" * 3000 + "x" + ")" * 3000, "!(" * 2999 + "!x" + ")" * 2999),
            ("x & (" * 3000 + "y" + ")" * 3000, "x & (" * 2999 + "x & y" + ")" * 2999),
        ],
        ids=["negations", "parentheses", "negated-groups", "right-nested-and"],
    )
    def test_parse_deep_nesting(self, text, printed):
        # compared as text: dataclass == recurses on deep trees
        assert print_lineage(parse_lineage(text)) == printed

    def test_parse_deep_or_chain(self):
        text = " | ".join(f"x{i}" for i in range(3000))
        assert print_lineage(parse_lineage(text)) == text

    def test_print_deep_or_chain(self):
        text = " | ".join(f"x{i}" for i in range(3000))
        assert print_lineage(or_chain(3000)) == text

    def test_golden_string_round_trip(self):
        text = "c2 & !(a1 | b1)"
        assert print_lineage(parse_lineage(text)) == text
