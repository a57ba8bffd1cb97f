"""TSV serialization: golden bytes, round trips, line-numbered errors."""

from __future__ import annotations

import io

import numpy as np
import pytest

import tpset.tsvio
from conftest import rel, rows_key
from tpset import (
    DuplicateFreeError,
    GenParams,
    TpRelation,
    TsvFormatError,
    dump_relation,
    except_,
    generate,
    intersect,
    parse_lineage,
    print_lineage,
    read_relation,
    sort_relation,
    union,
    write_relation,
)

GOLDEN_A = (
    "#fact:1\tlambda\tts\tte\tp\n"
    "chips\ta2\t4\t7\t0.800000000\n"
    "dates\ta3\t1\t3\t0.600000000\n"
    "milk\ta1\t2\t10\t0.300000000\n"
)


class TestWrite:
    def test_golden_bytes(self, rel_a):
        assert write_relation(sort_relation(rel_a)) == GOLDEN_A

    def test_unsorted_relation_keeps_storage_order(self, rel_a):
        text = write_relation(rel_a)
        assert text.splitlines()[1].startswith("milk\t")

    def test_empty_relation(self):
        assert write_relation(TpRelation.from_tuples([])) == "#fact:1\tlambda\tts\tte\tp\n"

    def test_reduced_no_prob(self, rel_a):
        text = write_relation(sort_relation(rel_a), with_prob=False)
        assert text.splitlines()[0] == "#fact:1\tlambda\tts\tte"
        assert text.splitlines()[1] == "chips\ta2\t4\t7"

    def test_reduced_no_lineage(self, rel_a):
        text = write_relation(sort_relation(rel_a), with_lineage=False)
        assert text.splitlines()[0] == "#fact:1\tts\tte\tp"
        assert text.splitlines()[1] == "chips\t4\t7\t0.800000000"

    def test_tab_in_fact_attribute_rejected(self):
        r = rel([("bad\tname", "x", 0, 1, 0.5)])
        with pytest.raises(ValueError, match="cannot be written"):
            write_relation(r)

    def test_dump_to_stream(self, rel_a):
        buf = io.StringIO()
        dump_relation(sort_relation(rel_a), buf)
        assert buf.getvalue() == GOLDEN_A


class TestRead:
    def test_golden(self):
        r, env = read_relation(io.StringIO(GOLDEN_A))
        assert len(r) == 3
        assert env == {"a1": 0.3, "a2": 0.8, "a3": 0.6}
        assert dict(r.atom_probs) == env
        t = r[2]
        assert t.fact == ("milk",)
        assert (t.interval.ts, t.interval.te) == (2, 10)
        assert t.p == 0.3

    def test_from_path(self, tmp_path):
        fp = tmp_path / "a.tsv"
        fp.write_text(GOLDEN_A, encoding="utf-8")
        r, _ = read_relation(fp)
        assert len(r) == 3

    def test_composite_lambda(self):
        text = (
            "#fact:1\tlambda\tts\tte\tp\n"
            "milk\tc2 & !(a1 | b1)\t6\t8\t0.196000000\n"
        )
        r, env = read_relation(io.StringIO(text))
        assert r[0].lineage == parse_lineage("c2 & !(a1 | b1)")
        assert env == {}  # composite rows define no atom probabilities

    def test_multi_attribute_facts(self):
        text = (
            "#fact:2\tlambda\tts\tte\tp\n"
            "store7\tmilk\tx1\t0\t4\t0.500000000\n"
        )
        r, _ = read_relation(io.StringIO(text))
        assert r[0].fact == ("store7", "milk")

    def test_crlf_accepted(self):
        r, _ = read_relation(io.StringIO(GOLDEN_A.replace("\n", "\r\n")))
        assert len(r) == 3

    def test_file_order_is_preserved(self):
        # reading keeps row order so write-then-read is the identity
        # even for files stored unsorted; sorting is the caller's call
        text = (
            "#fact:1\tlambda\tts\tte\tp\n"
            "milk\tx2\t5\t8\t0.500000000\n"
            "milk\tx1\t0\t4\t0.500000000\n"
        )
        r, _ = read_relation(io.StringIO(text))
        assert [t.lineage.id for t in r] == ["x2", "x1"]
        assert not r.is_sorted
        assert [t.lineage.id for t in sort_relation(r)] == ["x1", "x2"]
        assert write_relation(r) == text


def err(text: str) -> str:
    with pytest.raises(TsvFormatError) as exc:
        read_relation(io.StringIO(text))
    return str(exc.value)


class TestReadErrors:
    def test_empty_file(self):
        assert "header" in err("")

    @pytest.mark.parametrize(
        "header",
        [
            "fact:1\tlambda\tts\tte\tp",
            "#fact:0\tlambda\tts\tte\tp",
            "#fact:x\tlambda\tts\tte\tp",
            "#fact:1\tts\tte\tp",
            "#fact:1\tlambda\tts\tte",
            "#fact:1\tlambda\tte\tts\tp",
            "#fact:1\tlambda\tts\tte\tp\textra",
        ],
    )
    def test_bad_headers(self, header):
        msg = err(header + "\nmilk\tx\t0\t1\t0.500000000\n")
        assert "line 1" in msg

    def test_reduced_formats_are_write_only(self, rel_a):
        for kwargs in [dict(with_prob=False), dict(with_lineage=False)]:
            text = write_relation(sort_relation(rel_a), **kwargs)
            with pytest.raises(TsvFormatError):
                read_relation(io.StringIO(text))

    def test_column_count(self):
        msg = err("#fact:1\tlambda\tts\tte\tp\nmilk\tx\t0\t1\n")
        assert "line 2" in msg and "column" in msg

    def test_bad_lambda(self):
        msg = err("#fact:1\tlambda\tts\tte\tp\nmilk\tx &\t0\t1\t0.500000000\n")
        assert "line 2" in msg and "lambda" in msg

    def test_backwards_interval(self):
        msg = err("#fact:1\tlambda\tts\tte\tp\nmilk\tx\t4\t4\t0.500000000\n")
        assert "line 2" in msg

    def test_non_integer_time(self):
        msg = err("#fact:1\tlambda\tts\tte\tp\nmilk\tx\t0.5\t4\t0.500000000\n")
        assert "line 2" in msg

    def test_time_out_of_range(self):
        # magnitudes up to 2**62 are storable; one past that is not
        big = 2**62 + 1
        msg = err(f"#fact:1\tlambda\tts\tte\tp\nmilk\tx\t0\t{big}\t0.500000000\n")
        assert "line 2" in msg

    @pytest.mark.parametrize("p", ["0", "0.0", "1.0000001", "-0.3", "nan", "abc", "inf"])
    def test_bad_probability(self, p):
        msg = err(f"#fact:1\tlambda\tts\tte\tp\nmilk\tx\t0\t1\t{p}\n")
        assert "line 2" in msg

    def test_blank_line(self):
        msg = err("#fact:1\tlambda\tts\tte\tp\nmilk\tx\t0\t1\t0.500000000\n\nmilk\ty\t2\t3\t0.5\n")
        assert "line 3" in msg

    def test_conflicting_atom_probability(self):
        text = (
            "#fact:1\tlambda\tts\tte\tp\n"
            "milk\tx\t0\t1\t0.500000000\n"
            "beer\tx\t0\t1\t0.600000000\n"
        )
        msg = err(text)
        assert "x" in msg and "0.5" in msg and "0.6" in msg

    def test_duplicate_free_violation_surfaces(self):
        text = (
            "#fact:1\tlambda\tts\tte\tp\n"
            "milk\tx1\t0\t9\t0.500000000\n"
            "milk\tx2\t1\t2\t0.500000000\n"
        )
        with pytest.raises(DuplicateFreeError):
            read_relation(io.StringIO(text))


class TestRoundTrips:
    def test_write_read_identity_on_goldens(self, rel_a, rel_b, rel_c):
        for r in [rel_a, rel_b, rel_c]:
            back, env = read_relation(io.StringIO(write_relation(r)))
            assert rows_key(back) == rows_key(r)
            assert dict(env) == dict(r.atom_probs)

    def test_reserialization_byte_exact(self, rel_a, rel_b):
        # composite lineages with nested negation survive the full cycle
        out = union(rel_a, rel_b)
        text = write_relation(out)
        back, _ = read_relation(io.StringIO(text))
        assert write_relation(back) == text

    def test_generated_round_trip_byte_exact(self):
        p = GenParams(num_tuples=500, num_facts=7, max_interval_len=5,
                      max_gap=3, seed=33)
        r = generate(p)
        text = write_relation(r)
        back, env = read_relation(io.StringIO(text))
        assert write_relation(back) == text
        assert rows_key(back) == rows_key(r)
        assert dict(env) == dict(r.atom_probs)

    def test_generated_view_writes_without_formulas(self, monkeypatch):
        # a slice of a generated relation is still written from its atom
        # ids, byte-identical to the same rows as formula objects
        r = generate(GenParams(num_tuples=60, num_facts=4, max_interval_len=3,
                               max_gap=1, seed=5))
        idx = np.flatnonzero(r.ts_array < 20)
        view = TpRelation(r.fact_table, r.fact_codes[idx], r.ts_array[idx],
                          r.te_array[idx], r.p_array[idx],
                          r.lineage_column.take(idx), r.atom_probs,
                          is_sorted=True)
        want = write_relation(TpRelation.from_tuples(view))
        monkeypatch.setattr(tpset.tsvio, "print_lineage", None)
        assert write_relation(view) == want

    def test_tiny_probability_round_trip(self):
        # only a value that would print as zero leaves the 9-decimal form
        r = rel(
            [
                ("milk", "x", 0, 5, 1e-10),
                ("milk", "y", 5, 9, 0.3),
                ("milk", "z", 9, 12, 6e-10),
            ]
        )
        text = write_relation(r)
        assert text.splitlines()[1:] == [
            "milk\tx\t0\t5\t1e-10",
            "milk\ty\t5\t9\t0.300000000",
            "milk\tz\t9\t12\t0.000000001",
        ]
        back, _ = read_relation(io.StringIO(text))
        assert back[0].p == 1e-10
        assert write_relation(back) == text

    def test_long_chain_of_unions_writes_and_reads_back(self):
        # each union wraps the previous result's lineage column, so the
        # last column sits 1199 op columns deep
        out = rel([("milk", "x0", 0, 5, 0.5)])
        for i in range(1, 1200):
            out = union(out, rel([("milk", f"x{i}", 0, 5, 0.5)]))
        text = write_relation(out)
        chain = " | ".join(f"x{i}" for i in range(1200))
        assert text.splitlines()[1].split("\t")[1] == chain
        back, _ = read_relation(io.StringIO(text))
        assert print_lineage(back[0].lineage) == chain
        assert print_lineage(out[0].lineage) == chain

    def test_negative_times_round_trip(self):
        text = (
            "#fact:1\tlambda\tts\tte\tp\n"
            "milk\tx\t-5\t-2\t0.500000000\n"
        )
        back, _ = read_relation(io.StringIO(text))
        assert write_relation(back) == text


H = "#fact:1\tlambda\tts\tte\tp\n"
OK_ROW = "milk\tx\t0\t1\t0.500000000\n"


def rows_text(n: int, **faults: str) -> str:
    """n rows of distinct facts and atoms after the header; faults maps
    'line<k>' to the text of line k (the header is line 1)."""
    lines = [H]
    for i in range(n):
        lines.append(faults.get(f"line{i + 2}", f"f{i}\tx{i}\t0\t1\t0.500000000\n"))
    return "".join(lines)


class TestReadErrorMessages:
    @pytest.mark.parametrize(
        "row,message",
        [
            ("\n", "line 3: blank line"),
            ("milk\tx\t0\t1\n", "line 3: expected 5 columns, got 4"),
            ("milk\tx\t0\t1\t0.5\t\n", "line 3: expected 5 columns, got 6"),
            ("milk\tx &\t0\t1\t0.5\n", "line 3: bad lambda (column 4: unexpected end)"),
            ("milk\t²a\t0\t1\t0.5\n", "line 3: bad lambda (column 1: unexpected '²a')"),
            ("milk\tx\t0.5\t1\t0.5\n", "line 3: ts/te must be integers"),
            ("milk\tx\t0\tz\t0.5\n", "line 3: ts/te must be integers"),
            (f"milk\tx\t0\t{2**64}\t0.5\n", "line 3: chronon out of range"),
            (f"milk\tx\t{-2**64}\t0\t0.5\n", "line 3: chronon out of range"),
            (f"milk\tx\t{10**30}\t{10**30 + 1}\t0.5\n", "line 3: chronon out of range"),
            (f"milk\tx\t{-2**62 - 1}\t0\t0.5\n", "line 3: chronon out of range"),
            (f"milk\tx\t{-2**63}\t0\t0.5\n", "line 3: chronon out of range"),
            ("milk\tx\t4\t4\t0.5\n", "line 3: empty or inverted interval [4, 4)"),
            ("milk\tx\t5\t-2\t0.5\n", "line 3: empty or inverted interval [5, -2)"),
            ("milk\tx\t0\t1\tabc\n", "line 3: bad probability"),
            ("milk\tx\t0\t1\t1.50\n", "line 3: probability 1.50 outside (0, 1]"),
            ("milk\tx\t0\t1\t0.000\n", "line 3: probability 0.000 outside (0, 1]"),
            ("milk\tx\t0\t1\tnan\n", "line 3: probability nan outside (0, 1]"),
            ("milk\tx\t0\t1\t-inf\n", "line 3: probability -inf outside (0, 1]"),
        ],
    )
    def test_exact_message(self, row, message):
        assert err(H + "beer\ty\t0\t1\t0.5\n" + row) == message

    def test_extreme_chronons_are_accepted(self):
        r, _ = read_relation(io.StringIO(f"{H}milk\tx\t{-2**62}\t{2**62}\t1\n"))
        assert (r.ts_array[0], r.te_array[0]) == (-2**62, 2**62)

    def test_atom_conflict_message(self):
        text = H + "milk\tx\t0\t1\t0.5\nbeer\ty\t0\t1\t0.5\ntea\tx\t0\t1\t0.6\n"
        assert err(text) == "line 4: atom x already defined with probability 0.5, got 0.6"

    def test_duplicate_free_message(self):
        text = H + "milk\tx1\t0\t9\t0.5\nmilk\tx2\t1\t2\t0.5\n"
        with pytest.raises(DuplicateFreeError) as exc:
            read_relation(io.StringIO(text))
        assert str(exc.value) == (
            "duplicate-free violation: fact milk has overlapping intervals "
            "[0, 9) and [1, 2)"
        )

    def test_earlier_line_wins(self):
        # a late check on an early line beats an early check on a later one
        text = H + "milk\tx\t0\t1\t2\nbeer\ty\t0\t1\n"
        assert err(text) == "line 2: probability 2 outside (0, 1]"
        text = H + "milk\tx\t0\t1\t0.5\nbeer\ty &\t0\t1\t0.5\ntea\tz\t5\t4\t0.5\n"
        assert err(text) == "line 3: bad lambda (column 4: unexpected end)"

    def test_line_faults_come_before_atom_conflicts(self):
        text = H + "milk\tx\t0\t1\t0.5\nbeer\tx\t0\t1\t0.6\ntea\tz\t5\t4\t0.5\n"
        assert err(text) == "line 4: empty or inverted interval [5, 4)"

    @pytest.mark.parametrize(
        "row,message",
        [
            ("milk\tx &\t0\n", "expected 5 columns, got 3"),
            ("milk\tx &\tq\t4\t0.5\n", "bad lambda (column 4: unexpected end)"),
            (f"milk\tx\tq\t{2**64}\t0.5\n", "ts/te must be integers"),
            (f"milk\tx\t{2**64}\t0\t0.5\n", "chronon out of range"),
            ("milk\tx\t5\t4\tabc\n", "empty or inverted interval [5, 4)"),
            ("milk\tx\t5\t4\t2\n", "empty or inverted interval [5, 4)"),
        ],
    )
    def test_check_order_within_a_line(self, row, message):
        assert err(H + row) == "line 2: " + message


class TestReadChunks:
    # the reader works on blocks of 8,192 data lines
    def test_fault_in_second_block_has_its_absolute_line(self):
        text = rows_text(9000, line8194="milk\tx\t0\t1\t1.5\n")
        assert err(text) == "line 8194: probability 1.5 outside (0, 1]"
        text = rows_text(9000, line8999="milk\tx &\t0\t1\t0.5\n")
        assert err(text) == "line 8999: bad lambda (column 4: unexpected end)"

    def test_fault_in_first_block_wins(self):
        text = rows_text(9000, line8193="milk\tx\t0\t1\t1.5\n", line8194="milk\n")
        assert err(text) == "line 8193: probability 1.5 outside (0, 1]"
        text = rows_text(9000, line100="milk\tx\t7\t1\t0.5\n", line9000="\n")
        assert err(text) == "line 100: empty or inverted interval [7, 1)"

    def test_atom_conflict_in_second_block(self):
        text = rows_text(9000, line8500="milk\tx3\t5\t6\t0.25\n")
        assert err(text) == "line 8500: atom x3 already defined with probability 0.5, got 0.25"

    def test_many_blocks_read_in_order(self):
        n = 2 * 8192 + 3
        r, env = read_relation(io.StringIO(rows_text(n)))
        assert len(r) == n and len(env) == n
        assert [r[i].lineage.id for i in (0, 8191, 8192, n - 1)] == [
            "x0", "x8191", "x8192", f"x{n - 1}"
        ]
        assert r.fact_table[r.fact_codes[n - 1]] == (f"f{n - 1}",)
        assert write_relation(r) == rows_text(n)


SEPARATORS = ["\x0b", "\x1c", "\x85", "\u2028"]


class TestReadLines:
    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_line_separators_other_than_newline_stay_in_a_field(self, sep, tmp_path):
        text = f"{H}mi{sep}lk\tx\t0\t1\t0.500000000\n"
        path = tmp_path / "sep.tsv"
        path.write_text(text, encoding="utf-8")
        for source in (io.StringIO(text), path):
            r, _ = read_relation(source)
            assert r.fact_table == ((f"mi{sep}lk",),)
            assert write_relation(r) == text

    def test_crlf_from_path(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(GOLDEN_A.replace("\n", "\r\n").encode())
        r, _ = read_relation(path)
        assert write_relation(r) == GOLDEN_A

    def test_lone_cr_in_a_stream_stays_in_the_field(self):
        r, _ = read_relation(io.StringIO(H + "mi\rlk\tx\t0\t1\t0.5\r\n"))
        assert r.fact_table == (("mi\rlk",),)

    def test_lone_cr_from_a_path_ends_the_line(self, tmp_path):
        # a file opened by path reads with universal newlines
        path = tmp_path / "cr.tsv"
        path.write_bytes((H + "mi\rlk\tx\t0\t1\t0.5\n").encode())
        with pytest.raises(TsvFormatError, match="^line 2: expected 5 columns, got 1$"):
            read_relation(path)

    def test_missing_final_newline(self):
        r, _ = read_relation(io.StringIO(H + OK_ROW.rstrip("\n")))
        assert write_relation(r) == H + OK_ROW

    def test_header_only(self):
        r, env = read_relation(io.StringIO(H))
        assert len(r) == 0 and len(env) == 0
        assert write_relation(r) == H

    def test_header_without_newline(self):
        r, _ = read_relation(io.StringIO(H.rstrip("\n")))
        assert len(r) == 0

    def test_empty_file(self):
        assert err("") == "line 1: missing header"


class TestWriteFactText:
    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    def test_line_and_field_breaks_rejected(self, bad):
        with pytest.raises(ValueError, match="cannot be written"):
            write_relation(rel([(bad, "x", 0, 1, 0.5)]))


def assert_written_lambdas(r):
    """Each written lambda is the printed formula of its row."""
    arity = r.arity or 1
    lines = write_relation(r).splitlines()[1:]
    col = r.lineage_column
    assert [line.split("\t")[arity] for line in lines] == [
        print_lineage(col.get(i)) for i in range(len(r))
    ]


COMPOUND_R = (
    H
    + "milk\ta1 | a2\t0\t4\t0.5\n"
    + "milk\t!(a3 & a4)\t4\t8\t0.5\n"
    + "milk\ta5 & (a6 & a7)\t10\t14\t0.5\n"
    + "tea\ta8 | (a9 | a10)\t0\t6\t0.5\n"
    + "tea\t!a11\t8\t12\t0.5\n"
    + "wine\t(a12 | a13) & a14\t0\t3\t0.5\n"
)
COMPOUND_S = (
    H
    + "milk\tb1 & b2\t2\t6\t0.5\n"
    + "milk\tb3 | b4 & b5\t7\t12\t0.5\n"
    + "tea\t!(b6 | b7)\t3\t9\t0.5\n"
    + "tea\tb8\t10\t11\t0.5\n"
    + "wine\tb9 & (b10 | b11)\t1\t5\t0.5\n"
)


COMPOUND_T = (
    H
    + "milk\tc1 | c2 & c3\t3\t11\t0.5\n"
    + "tea\t!(c4 & c5)\t5\t10\t0.5\n"
    + "wine\tc6\t2\t4\t0.5\n"
)

# bare-atom rows give every atom a probability, so operations over
# files that share atoms can evaluate their rows
SHARED_A = H + "milk\ta1\t0\t4\t0.5\nmilk\ta2\t4\t9\t0.5\ntea\ta3\t0\t5\t0.5\n"
SHARED_B = (
    H
    + "milk\tb1\t2\t6\t0.5\ntea\tb2\t1\t3\t0.5\n"
    + "tea\tb1 | b2 & b3\t4\t8\t0.5\nwine\tb3\t0\t1\t0.5\n"
)
SHARED_C = (
    H
    + "milk\t!c1\t0\t3\t0.5\nmilk\tc1 & (c2 | a1)\t5\t7\t0.5\n"
    + "wine\tc1\t0\t1\t0.5\nwine\tc2\t1\t2\t0.5\n"
)


def read_text(text: str):
    return read_relation(io.StringIO(text))[0]


class TestWriteLambdas:
    @pytest.mark.parametrize("op", [intersect, union, except_])
    def test_compound_operands_on_either_side(self, op):
        r, s, t = map(read_text, (COMPOUND_R, COMPOUND_S, COMPOUND_T))
        for lhs, rhs in ((r, s), (s, r)):
            out = op(lhs, rhs)
            assert len(out) > 0
            assert_written_lambdas(out)
            # a compound result on either side of a second operation;
            # union passes a compound lone side through
            assert_written_lambdas(op(out, t))
            assert_written_lambdas(op(t, out))
            assert_written_lambdas(union(out, t))

    def test_shared_leaf(self):
        a, b, c = map(read_text, (SHARED_A, SHARED_B, SHARED_C))
        out = union(except_(a, b), intersect(a, c))
        assert len(out) > 0
        assert_written_lambdas(out)

    def test_view_after_zero_row_drop(self):
        r = rel([("milk", "x", 0, 5, 0.5)])
        s = rel([("milk", "x", 2, 3, 0.5), ("milk", "y", 3, 4, 0.5)])
        out = except_(r, s)
        assert out.lineage_column.rows is not None
        assert [(t.interval.ts, t.interval.te) for t in out] == [(0, 2), (3, 4), (4, 5)]
        assert_written_lambdas(out)

    def test_view_after_coalesce(self):
        r = rel([("milk", "a1", 0, 2, 0.5), ("milk", "a1", 2, 4, 0.5)])
        s = rel([("milk", "b", 0, 4, 0.5)])
        out = intersect(r, s)
        assert out.lineage_column.rows is not None and len(out) == 1
        assert_written_lambdas(out)

    def test_generated_blocks_and_views(self):
        g1 = generate(GenParams(num_tuples=200, num_facts=3, max_interval_len=3,
                                max_gap=1, seed=1, atom_prefix="g"))
        g2 = generate(GenParams(num_tuples=200, num_facts=3, max_interval_len=3,
                                max_gap=1, seed=2, atom_prefix="h"))
        assert_written_lambdas(g1)
        out = except_(union(g1, g2), intersect(g2, g1))
        assert_written_lambdas(out)
        idx = np.flatnonzero(out.ts_array % 3 == 0)
        view = TpRelation(out.fact_table, out.fact_codes[idx], out.ts_array[idx],
                          out.te_array[idx], out.p_array[idx],
                          out.lineage_column.take(idx), out.atom_probs,
                          is_sorted=True)
        assert_written_lambdas(view)

    def test_long_chain_of_unions(self):
        out = rel([("milk", "x0", 0, 5, 0.5)])
        for i in range(1, 1200):
            out = union(out, rel([("milk", f"x{i}", 0, 5, 0.5)]))
        assert_written_lambdas(out)

    def test_tiny_probabilities_across_blocks_rewrite(self):
        n = 2 * 8192 + 3
        tiny = {8190: 1e-10, 8191: 3e-12, 8192: 2.5e-300, 8193: 1e-10, n - 1: 7e-11}
        r = rel([("milk", f"x{i}", i, i + 1, tiny.get(i, 0.25)) for i in range(n)])
        text = write_relation(r)
        lines = text.splitlines()
        assert lines[8192].endswith("\t3e-12") and lines[8193].endswith("\t2.5e-300")
        assert lines[2].endswith("\t0.250000000")
        back, _ = read_relation(io.StringIO(text))
        assert write_relation(back) == text


class TestReadDistinctHint:
    def test_bare_atom_rows(self):
        text = H + "tea\tx2\t5\t8\t0.5\nmilk\tx1\t0\t4\t0.5\n"
        r, _ = read_relation(io.StringIO(text))
        assert r.lineage_column.rows_distinct_hint()
        assert sort_relation(r).lineage_column.rows_distinct_hint()

    def test_repeated_atom(self):
        text = H + "tea\tx\t5\t8\t0.5\nmilk\tx\t0\t4\t0.5\n"
        r, env = read_relation(io.StringIO(text))
        assert dict(env) == {"x": 0.5}
        assert not r.lineage_column.rows_distinct_hint()
        assert not sort_relation(r).lineage_column.rows_distinct_hint()

    def test_compound_rows(self):
        r, env = read_relation(io.StringIO(H + "milk\tx & y\t0\t4\t0.5\n"))
        assert dict(env) == {}
        assert not r.lineage_column.rows_distinct_hint()
