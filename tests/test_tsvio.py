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
    generate,
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
