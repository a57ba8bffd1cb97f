"""Tests of the benchmark's own code.

    python3 -m pytest tpbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from tpset.model import TpRelation  # noqa: E402
from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS, Run, query_text  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_names_are_well_formed():
    for name in [*WORKLOADS, *END_TO_END_UNITS, *PER_LAYER_UNITS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_self_time_of_nested_spans():
    rec = SpanRecorder()
    root = rec.add("root", 0.0, 10.0, -1)
    a = rec.add("a", 1.0, 4.0, root)
    rec.add("a.inner", 2.0, 3.0, a)
    rec.add("b", 3.5, 6.0, root)  # overlaps a: the overlap counts once
    rec.add("c", 9.0, 12.0, root)  # outlives root: clipped to it
    # root's children cover [1, 6) and [9, 10)
    assert self_times(rec) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])
    # a window of spans ignores children outside it
    assert self_times(rec, 1, 3) == pytest.approx([2.0, 1.0])


def test_wrapped_calls_record_their_parent():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: sum(range(10_000)))
    outer = rec.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert [rec.names[i] for i in rec.name] == ["outer", "inner", "inner"]
    assert list(rec.parent) == [-1, 0, 0]
    children = sum(rec.end[i] - rec.start[i] for i in (1, 2))
    assert self_times(rec)[0] == pytest.approx(rec.end[0] - rec.start[0] - children)


def test_query_text():
    step = WORKLOADS["shared_query_20k"].steps[3]
    assert query_text(step.tree) == "(a.tsv - b.tsv) + (a.tsv * c.tsv)"
    assert step.argv("o.tsv")[:2] == ["query", "(a.tsv - b.tsv) + (a.tsv * c.tsv)"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run(name, trace, tmp_path):
    wl = WORKLOADS[name]
    run = Run(wl, 7, str(tmp_path), trace, tuples=300)
    run.setup()
    run.measure(0)
    run.check()
    assert run.problems == {s.label: [] for s in wl.steps}
    assert run.failed == 0
    assert run.attempted == 2 * len(wl.steps)
    if not trace:
        metrics = run.end_to_end(0.1)
        assert set(metrics) == set(END_TO_END_UNITS)
        assert all(value > 0 for value, _ in metrics.values())
        return
    metrics = {k: v for k, (v, _) in run.per_layer().items()}
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert 0 < metrics["sweep.windows"] <= metrics["sweep.window_bound"]
    assert (metrics["lineage.probability_calls"] > 0) == (name == "shared_query_20k")
    assert (metrics["lineage.parse_calls"] > 0) == wl.via_cli
    assert metrics["setops.rows_dropped"] >= 0
    if name == "shared_query_20k":
        assert metrics["lineage.shannon_rows"] > 0
        assert metrics["setops.per_row_prob_ops"] == 2


def test_a_wrong_probability_fails_the_output_check(tmp_path, monkeypatch):
    real = workloads.setops.apply_setop

    def one_row_off(kind, r, s):
        out = real(kind, r, s)
        p = out.p_array.copy()
        p[len(p) // 2] *= 0.5
        return TpRelation(
            out.fact_table,
            out.fact_codes,
            out.ts_array,
            out.te_array,
            p,
            out.lineage_column,
            out.atom_probs,
            is_sorted=True,
        )

    monkeypatch.setattr(workloads.setops, "apply_setop", one_row_off)
    # small enough that the probability sample covers every output row
    run = Run(WORKLOADS["gen_setops_1m"], 7, str(tmp_path), False, tuples=10)
    run.setup()
    run.measure(0)
    run.check()
    assert run.failed == run.attempted == 6
    for problems in run.problems.values():
        assert any("lineage gives" in p for p in problems), problems
