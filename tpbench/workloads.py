"""The benchmark's workloads, their closed-loop measurement and the
checks of their outputs.

Load model: one process, one thread, closed loop. A cycle runs every
step of the workload once, in order; the next step starts only when
the previous one has finished. Cycles repeat until the run's time is
up. Inputs come from tpset's generator, seeded from the run's seed, in
the paper's layout (max_len=3, max_gap=1, one atom prefix per input).
The library only ever sees those generated inputs.

Checks run after the timed loop and never inside a timer.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Union

import numpy as np

import tpset.cli as cli
from tpset import datagen, lineage, setops, sweep, tsvio
from tpset.datagen import GenParams
from tpset.model import TpRelation, validate_duplicate_free
from tpset.oracle import oracle_setop
from tpset.setops import SetOpKind

from spans import CLOCK, SpanRecorder, Tracer, layer_metrics

MAX_LEN = 3
MAX_GAP = 1
WARMUP_TUPLES = 2_000
SETUP_REPEATS = 3
PROB_SAMPLE = 64
PROB_TOLERANCE = 1e-12
# total chronons of the oracle slice: a few thousand tuples per input,
# well under the oracle's SPAN_LIMIT, so the check stays cheap
SLICE_CHRONONS = 5_000

Tree = Union[str, tuple]  # an input name, or (op, lhs, rhs) with op in "*+-"

KINDS = {"*": SetOpKind.INTERSECTION, "+": SetOpKind.UNION, "-": SetOpKind.DIFFERENCE}


def evaluate(tree: Tree, leaf, apply):
    if isinstance(tree, str):
        return leaf(tree)
    op, lhs, rhs = tree
    return apply(KINDS[op], evaluate(lhs, leaf, apply), evaluate(rhs, leaf, apply))


def leaves(tree: Tree) -> list[str]:
    if isinstance(tree, str):
        return [tree]
    return list(dict.fromkeys(leaves(tree[1]) + leaves(tree[2])))


def query_text(tree: Tree, top: bool = True) -> str:
    """The tpset query form over the input files, e.g. 'a.tsv - (a.tsv + b.tsv)'."""
    if isinstance(tree, str):
        return f"{tree}.tsv"
    op, lhs, rhs = tree
    text = f"{query_text(lhs, False)} {op} {query_text(rhs, False)}"
    return text if top else f"({text})"


@dataclass(frozen=True)
class Step:
    label: str  # names the step's output file and its latency samples
    metric: str  # intersect, union, except or query
    tree: Tree

    def argv(self, out: str) -> list[str]:
        if self.metric == "query":
            return ["query", query_text(self.tree), "--out", out]
        _, lhs, rhs = self.tree
        return ["op", self.metric, f"{lhs}.tsv", f"{rhs}.tsv", "--out", out]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple[str, ...]  # input names, also their atom prefixes
    tuples: int  # per input
    facts: int
    via_cli: bool  # tpset.cli.main on TSV files, else apply_setop in memory
    steps: tuple[Step, ...]

    @property
    def batch(self) -> tuple[Step, ...]:
        """The steps one query_s sample times: the tpset query calls,
        or every step where the workload has none."""
        queries = tuple(s for s in self.steps if s.metric == "query")
        return queries or self.steps


SETOPS = (
    Step("intersect", "intersect", ("*", "a", "b")),
    Step("union", "union", ("+", "a", "b")),
    Step("except", "except", ("-", "a", "b")),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gen_setops_1m",
            "apply_setop on 1M generated tuples per side; the vectorized sweep "
            "is nearly all of each op; bypasses tsvio, per-row lineage and coalesce",
            ("a", "b"),
            1_000_000,
            1,
            False,
            SETOPS,
        ),
        Workload(
            "tsv_ops_100k",
            "tpset op over two 100k-row TSV files from read to write; object "
            "lineage, so parse, coalesce and print dominate and the sweep is small",
            ("a", "b"),
            100_000,
            10,
            True,
            SETOPS,
        ),
        Workload(
            "shared_query_20k",
            "tpset query over 20k-row files whose operands share atoms; the only "
            "workload on the per-row probability path, with Shannon expansion",
            ("a", "b", "c"),
            20_000,
            10,
            True,
            SETOPS
            + (
                Step("query1", "query", ("+", ("-", "a", "b"), ("*", "a", "c"))),
                Step("query2", "query", ("-", "a", ("+", "a", "b"))),
            ),
        ),
    )
}

END_TO_END_UNITS = {
    "rows_per_s": "1/s",
    "intersect_s": "s",
    "union_s": "s",
    "except_s": "s",
    "query_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "sweep.window_table_s": "s",
    "sweep.windows": "count",
    "sweep.window_bound": "count",
    "sweep.both_covered": "count",
    "lineage.parse_s": "s",
    "lineage.parse_calls": "count",
    "lineage.print_s": "s",
    "lineage.print_calls": "count",
    "lineage.probability_s": "s",
    "lineage.probability_calls": "count",
    "lineage.equiv_s": "s",
    "lineage.equiv_calls": "count",
    "lineage.equiv_true": "count",
    "lineage.shannon_rows": "count",
    "tsvio.read_s": "s",
    "tsvio.read_rows": "count",
    "tsvio.write_s": "s",
    "tsvio.write_bytes": "bytes",
    "model.sort_validate_s": "s",
    "setops.self_s": "s",
    "setops.rows_out": "count",
    "setops.rows_dropped": "count",
    "setops.coalesce_merge_ratio": "ratio",
    "setops.per_row_prob_ops": "count",
    "cli.self_s": "s",
    "datagen.generate_s": "s",
    "trace.overhead_pct": "%",
    "failed_ratio": "ratio",
}

_MODULES = {"setops": setops, "tsvio": tsvio, "cli": cli}


@contextlib.contextmanager
def _cwd(path: str):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def generate_inputs(wl: Workload, seed: int, tuples: int, generate) -> dict[str, TpRelation]:
    return {
        name: generate(
            GenParams(
                tuples,
                min(wl.facts, tuples),
                MAX_LEN,
                MAX_GAP,
                seed=seed * len(wl.inputs) + i,
                atom_prefix=name,
            )
        )
        for i, name in enumerate(wl.inputs)
    }


def write_inputs(rels: dict[str, TpRelation], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, rel in rels.items():
        with open(os.path.join(directory, f"{name}.tsv"), "w", encoding="utf-8", newline="") as fp:
            tsvio.dump_relation(rel, fp)


def _sorted(rel: TpRelation) -> bool:
    c, ts = rel.fact_codes, rel.ts_array
    return bool(np.all((c[:-1] < c[1:]) | ((c[:-1] == c[1:]) & (ts[:-1] <= ts[1:]))))


def _as_written(p: float) -> float:
    # the TSV writer's rounding of p
    return float(f"{p:.9f}")


def check_relation(rel: TpRelation, env, seed: int, written: bool) -> list[str]:
    """Sorted, duplicate-free, and a seeded sample of rows whose stored
    p equals lineage.probability of the row's formula. written: p went
    through the TSV writer's nine decimals."""
    problems = []
    if not _sorted(rel):
        problems.append("output is not sorted by (fact, ts)")
    if validate_duplicate_free(rel) is not None:
        problems.append("output is not duplicate-free")
    n = len(rel)
    if n:
        for i in np.random.default_rng(seed).choice(n, size=min(PROB_SAMPLE, n), replace=False):
            i = int(i)
            q = lineage.probability(rel.lineage_column.get(i), env)
            if written:
                q = _as_written(q)
            if abs(q - float(rel.p_array[i])) > PROB_TOLERANCE:
                problems.append(f"row {i}: p={rel.p_array[i]!r}, lineage gives {q!r}")
                break
    return problems


def compare_rows(got: TpRelation, want: TpRelation, written: bool) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} rows where the oracle has {len(want)}"]
    for i in range(len(got)):
        g, w = got.row(i), want.row(i)
        pw = _as_written(w.p) if written else w.p
        if (
            g.fact != w.fact
            or g.interval != w.interval
            or not lineage.syntactic_equiv(g.lineage, w.lineage)
            or abs(g.p - pw) > PROB_TOLERANCE
        ):
            return [f"row {i}: {g} where the oracle has {w}"]
    return []


class Run:
    """One benchmark run of one workload: set-up, timed cycles, checks."""

    def __init__(self, wl: Workload, seed: int, workdir: str, trace: bool, tuples=None):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.tuples = wl.tuples if tuples is None else tuples
        self.rec = SpanRecorder()
        self.tracer = Tracer(self.rec, _MODULES)
        self.rels: dict[str, TpRelation] = {}
        self.setup_times: list[float] = []
        self.generate_times: list[float] = []
        # (traced, label) -> latencies; per cycle: (traced, seconds, batch
        # seconds, wall seconds)
        self.samples: dict[tuple[bool, str], list[float]] = {}
        self.cycles: list[tuple[bool, float, float, float]] = []
        self.rows_in = 0
        self.busy_s = 0.0
        self.attempts: dict[str, int] = {s.label: 0 for s in wl.steps}
        self.errors: dict[str, int] = {s.label: 0 for s in wl.steps}
        self.problems: dict[str, list[str]] = {s.label: [] for s in wl.steps}
        self.layers: list[dict[str, float]] = []
        self.peak_rss_mb = 0.0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Generate and write the inputs and warm every step up on small
        ones, SETUP_REPEATS times; the last inputs are the ones measured."""
        generate = self.rec.wrap("datagen.generate", datagen.generate)
        gen_id = self.rec.name_id("datagen.generate")
        for _ in range(SETUP_REPEATS):
            lo = len(self.rec)
            t0 = CLOCK()
            self.rels = generate_inputs(self.wl, self.seed, self.tuples, generate)
            small = generate_inputs(self.wl, self.seed, min(WARMUP_TUPLES, self.tuples), generate)
            if self.wl.via_cli:
                write_inputs(self.rels, self.workdir)
                warm_dir = os.path.join(self.workdir, "warm")
                write_inputs(small, warm_dir)
                for step in self.wl.steps:
                    self._call(step, small, warm_dir, cli.main, setops.apply_setop)
            else:
                for step in self.wl.steps:
                    self._call(step, small, self.workdir, cli.main, setops.apply_setop)
            self.setup_times.append(CLOCK() - t0)
            self.generate_times.append(
                sum(
                    self.rec.end[i] - self.rec.start[i]
                    for i in range(lo, len(self.rec))
                    if self.rec.name[i] == gen_id
                )
            )

    # -- measurement ---------------------------------------------------------

    def _call(self, step: Step, rels, directory: str, main, apply):
        """One step; returns (CPU seconds, output). The output is the relation
        in memory, or the path of the file the CLI wrote."""
        if self.wl.via_cli:
            out = f"{step.label}.out.tsv"
            with _cwd(directory):
                t0 = CLOCK()
                rc = main(step.argv(out))
                dt = CLOCK() - t0
            if rc != 0:
                raise RuntimeError(f"tpset {' '.join(step.argv(out))} exited with {rc}")
            return dt, os.path.join(directory, out)
        t0 = CLOCK()
        result = evaluate(step.tree, rels.__getitem__, apply)
        return CLOCK() - t0, result

    def _cycle(self, traced: bool) -> None:
        wall = time.perf_counter()
        lo = len(self.rec)
        self.tracer.reset_counters()
        write_bytes = 0
        total = batch = 0.0
        for step in self.wl.steps:
            self.attempts[step.label] += 1
            # every step starts from the same collector state, so garbage
            # left by the previous one is not charged to it
            gc.collect()
            try:
                if traced:
                    with self.tracer:
                        dt, out = self._call(
                            step,
                            self.rels,
                            self.workdir,
                            self.tracer.wrap("cli.main", cli.main),
                            self.tracer.wrap("setops.apply_setop", setops.apply_setop),
                        )
                else:
                    dt, out = self._call(step, self.rels, self.workdir, cli.main, setops.apply_setop)
            except Exception:
                self.errors[step.label] += 1
                traceback.print_exc(file=sys.stderr)
                continue
            self.samples.setdefault((traced, step.label), []).append(dt)
            total += dt
            if step in self.wl.batch:
                batch += dt
            if not traced:
                self.rows_in += sum(len(self.rels[n]) for n in leaves(step.tree))
                self.busy_s += dt
            if self.wl.via_cli:
                write_bytes += os.path.getsize(out)
            else:
                # in-memory outputs are checked here, each one, outside the timer
                self.problems[step.label] += check_relation(out, out.atom_probs, self.seed, False)
            del out  # free this result before the next step runs
        self.cycles.append((traced, total, batch, time.perf_counter() - wall))
        if traced:
            layers = layer_metrics(self.tracer, lo, len(self.rec))
            layers["tsvio.write_bytes"] = write_bytes
            self.layers.append(layers)

    def measure(self, seconds: float) -> None:
        """Cycles until `seconds` have passed, and at least two, so every
        latency has two samples; a traced run alternates untraced and
        traced cycles."""
        t_end = time.perf_counter() + seconds
        n = 0
        while n < 2 or time.perf_counter() < t_end:
            self._cycle(traced=self.trace and n % 2 == 1)
            n += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks --------------------------------------------------------------

    def check(self) -> None:
        wl = self.wl
        if wl.via_cli:
            env = {}
            for name, rel in self.rels.items():
                env.update((f"{name}{i + 1}", float(p)) for i, p in enumerate(rel.p_array))
            for step in wl.steps:
                path = os.path.join(self.workdir, f"{step.label}.out.tsv")
                try:
                    rel, _ = tsvio.read_relation(path)
                except (OSError, ValueError) as e:
                    self.problems[step.label].append(f"output does not read back: {e}")
                    continue
                self.problems[step.label] += check_relation(rel, env, self.seed, True)
        self._check_window_bound()
        self._check_oracle()

    def _check_window_bound(self) -> None:
        """The window count of each operand pair of a set operation
        step is at most 2|r|+2|s|-f."""
        excess = {}
        for step in self.wl.steps:
            if step.metric == "query":
                continue
            pair = tuple(leaves(step.tree))
            if pair not in excess:
                r, s = (self.rels[name] for name in pair)
                bound = 2 * len(r) + 2 * len(s) - len(set(r.fact_table) | set(s.fact_table))
                n = len(sweep.window_table(r, s))
                excess[pair] = f"{n} windows exceed the bound {bound}" if n > bound else None
            if excess[pair]:
                self.problems[step.label].append(excess[pair])

    def _check_oracle(self) -> None:
        """Every step on a slice of the same inputs, through the same
        entry point, row for row against tpset.oracle."""
        cut = SLICE_CHRONONS // self.wl.facts
        sliced, plain = {}, {}
        for name, rel in self.rels.items():
            idx = np.flatnonzero(rel.ts_array < cut)
            sliced[name] = TpRelation(
                rel.fact_table,
                rel.fact_codes[idx],
                rel.ts_array[idx],
                rel.te_array[idx],
                rel.p_array[idx],
                rel.lineage_column.take(idx),
                rel.atom_probs,
                is_sorted=True,
            )
            plain[name] = TpRelation.from_tuples(sliced[name])
        slice_dir = os.path.join(self.workdir, "slice")
        if self.wl.via_cli:
            write_inputs(sliced, slice_dir)
        for step in self.wl.steps:
            try:
                _, got = self._call(step, sliced, slice_dir, cli.main, setops.apply_setop)
                if self.wl.via_cli:
                    got, _ = tsvio.read_relation(got)
                want = evaluate(step.tree, plain.__getitem__, oracle_setop)
            except Exception as e:
                self.problems[step.label].append(f"oracle slice: {type(e).__name__}: {e}")
                continue
            self.problems[step.label] += compare_rows(got, want, self.wl.via_cli)

    # -- results -------------------------------------------------------------

    @property
    def failed(self) -> int:
        return sum(
            self.attempts[k] if self.problems[k] else self.errors[k] for k in self.attempts
        )

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    def end_to_end(self, import_s: float) -> dict[str, tuple[float, int]]:
        """Metric -> (value, sample count), from the untraced cycles."""
        out = {}
        for metric in ("intersect", "union", "except"):
            xs = [
                x
                for s in self.wl.steps
                if s.metric == metric
                for x in self.samples.get((False, s.label), [])
            ]
            out[f"{metric}_s"] = (statistics.median(xs), len(xs))
        batches = [b for traced, _, b, _ in self.cycles if not traced]
        out["query_s"] = (statistics.median(batches), len(batches))
        calls = sum(len(v) for (traced, _), v in self.samples.items() if not traced)
        out["rows_per_s"] = (self.rows_in / self.busy_s, calls)
        out["peak_rss_mb"] = (self.peak_rss_mb, 1)
        out["setup_s"] = (import_s + statistics.median(self.setup_times), len(self.setup_times))
        return out

    def per_layer(self) -> dict[str, tuple[float, int]]:
        """Metric -> (median over traced cycles, number of traced cycles)."""
        n = len(self.layers)
        out = {k: (statistics.median(d[k] for d in self.layers), n) for k in self.layers[0]}
        out["datagen.generate_s"] = (
            statistics.median(self.generate_times),
            len(self.generate_times),
        )
        plain = [t for traced, t, _, _ in self.cycles if not traced]
        traced = [t for tr, t, _, _ in self.cycles if tr]
        out["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0),
            len(traced),
        )
        out["failed_ratio"] = (self.failed / self.attempted, self.attempted)
        return out
