"""Span recording for the traced benchmark run.

A span is one call into a tpset layer: its name, start, end and the
span that was open when it started (its parent). Spans are kept in flat
arrays in memory for the whole run and only summarised after it.

The tracer records spans from outside the library. It rebinds the
public names that tpset's modules imported from each other (for example
``tpset.setops.window_table``) to timing wrappers, and puts the
originals back when it is closed. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Optional

# Every time the benchmark reports is CPU time of its own process (user
# plus system). The benchmark is one thread and CPU-bound, so on an idle
# core this equals wall time; on a shared host wall time also counts the
# periods in which the process's CPU was given to someone else.
CLOCK = time.process_time

# (module whose global is rebound, global name, span name). The span
# name is the layer that owns the function, then the function.
PATCHES = (
    ("setops", "window_table", "sweep.window_table"),
    ("setops", "probability", "lineage.probability"),
    ("setops", "syntactic_equiv", "lineage.syntactic_equiv"),
    ("setops", "sort_relation", "model.sort_relation"),
    ("setops", "validate_duplicate_free", "model.validate_duplicate_free"),
    ("tsvio", "parse_lineage", "lineage.parse_lineage"),
    ("tsvio", "print_lineage", "lineage.print_lineage"),
    ("cli", "read_relation", "tsvio.read_relation"),
    ("cli", "dump_relation", "tsvio.dump_relation"),
    ("cli", "apply_setop", "setops.apply_setop"),
)


class SpanRecorder:
    """Spans in append order. Index order is start order, because a
    span is appended when it starts and the clock is monotonic."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span; for tests and for spans timed elsewhere."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return len(self.start) - 1

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """Return fn recording one span per call. observe(args, result)
        runs after the span has ended, for counters."""
        nid = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._open
        clock = CLOCK

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced


def self_times(rec: SpanRecorder, lo: int = 0, hi: Optional[int] = None) -> list[float]:
    """Self time of spans lo..hi-1: duration minus the part of the span
    that its children cover. Children are clipped to the parent and
    overlapping children are counted once. Children outside lo..hi are
    ignored."""
    hi = len(rec) if hi is None else hi
    start, end, parent = rec.start, rec.end, rec.parent
    covered = [0.0] * (hi - lo)
    reach: dict[int, float] = {}  # parent -> latest end covered so far
    for i in range(lo, hi):
        p = parent[i]
        if p < lo:
            continue
        s = max(start[i], start[p], reach.get(p, start[p]))
        e = min(end[i], end[p])
        if e > s:
            covered[p - lo] += e - s
            reach[p] = e
    return [end[i] - start[i] - covered[i - lo] for i in range(lo, hi)]


def layer_metrics(tracer: "Tracer", lo: int, hi: int) -> dict[str, float]:
    """Per-layer numbers of the spans lo..hi-1 and the tracer's counters
    gathered over the same calls."""
    from tpset.lineage import is_one_occurrence_form

    rec = tracer.rec
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    prob_parents = set()
    for i, self_s in zip(range(lo, hi), self_times(rec, lo, hi)):
        name = rec.names[rec.name[i]]
        total[name] = total.get(name, 0.0) + (rec.end[i] - rec.start[i])
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
        if name == "lineage.probability":
            prob_parents.add(rec.parent[i])
    setop_id = rec.name_id("setops.apply_setop")
    equiv_calls = calls.get("lineage.syntactic_equiv", 0)
    return {
        "sweep.window_table_s": total.get("sweep.window_table", 0.0),
        "sweep.windows": tracer.windows,
        "sweep.window_bound": tracer.window_bound,
        "sweep.both_covered": tracer.both_covered,
        "lineage.parse_s": total.get("lineage.parse_lineage", 0.0),
        "lineage.parse_calls": calls.get("lineage.parse_lineage", 0),
        "lineage.print_s": total.get("lineage.print_lineage", 0.0),
        "lineage.print_calls": calls.get("lineage.print_lineage", 0),
        "lineage.probability_s": total.get("lineage.probability", 0.0),
        "lineage.probability_calls": calls.get("lineage.probability", 0),
        "lineage.equiv_s": total.get("lineage.syntactic_equiv", 0.0),
        "lineage.equiv_calls": equiv_calls,
        "lineage.equiv_true": tracer.equiv_true,
        "lineage.shannon_rows": sum(
            not is_one_occurrence_form(lam) for lam in tracer.prob_formulas
        ),
        "tsvio.read_s": own.get("tsvio.read_relation", 0.0),
        "tsvio.read_rows": tracer.read_rows,
        "tsvio.write_s": own.get("tsvio.dump_relation", 0.0),
        "model.sort_validate_s": total.get("model.sort_relation", 0.0)
        + total.get("model.validate_duplicate_free", 0.0),
        "setops.self_s": own.get("setops.apply_setop", 0.0),
        "setops.rows_out": tracer.rows_out,
        "setops.rows_dropped": tracer.rows_dropped,
        "setops.coalesce_merge_ratio": (
            tracer.equiv_true / equiv_calls if equiv_calls else 0.0
        ),
        "setops.per_row_prob_ops": sum(
            1 for p in prob_parents if p >= lo and rec.name[p] == setop_id
        ),
        "cli.self_s": own.get("cli.main", 0.0),
    }


class Tracer:
    """Rebinds the PATCHES names to recording wrappers and keeps the
    per-call counters that spans alone do not carry."""

    def __init__(self, rec: SpanRecorder, modules: dict):
        self.rec = rec
        self._modules = modules  # short name -> module object
        self._saved: list[tuple[object, str, Callable]] = []
        self.reset_counters()

    def reset_counters(self) -> None:
        self.windows = 0
        self.window_bound = 0
        self.both_covered = 0
        self.equiv_true = 0
        self.read_rows = 0
        self.rows_out = 0
        self.rows_dropped = 0
        self.prob_formulas: list = []
        self._kept: dict[str, int] = {}
        self._equiv_true_at_sweep = 0

    # -- observers -------------------------------------------------------

    def _on_window_table(self, args, wt) -> None:
        r, s = args
        n = len(wt)
        self.windows += n
        self.window_bound += 2 * len(r) + 2 * len(s) - len(wt.fact_table)
        both = wt.both_count
        self.both_covered += both
        # windows that pass each operation's filter, for the drop count
        self._kept = {
            "intersect": both,
            "except": int((wt.r_idx >= 0).sum()),
            "union": n,
        }
        self._equiv_true_at_sweep = self.equiv_true

    def _on_equiv(self, args, same) -> None:
        if same:
            self.equiv_true += 1

    def _on_probability(self, args, p) -> None:
        self.prob_formulas.append(args[0])

    def _on_read(self, args, result) -> None:
        self.read_rows += len(result[0])

    def _on_setop(self, args, result) -> None:
        kept = self._kept[args[0].value]
        merged = self.equiv_true - self._equiv_true_at_sweep
        self.rows_out += len(result)
        self.rows_dropped += kept - merged - len(result)

    def observer(self, span_name: str) -> Optional[Callable]:
        return {
            "sweep.window_table": self._on_window_table,
            "lineage.syntactic_equiv": self._on_equiv,
            "lineage.probability": self._on_probability,
            "tsvio.read_relation": self._on_read,
            "setops.apply_setop": self._on_setop,
        }.get(span_name)

    def wrap(self, span_name: str, fn: Callable) -> Callable:
        """A recording wrapper for a call the benchmark makes itself."""
        return self.rec.wrap(span_name, fn, self.observer(span_name))

    # -- install / remove ------------------------------------------------

    def __enter__(self) -> "Tracer":
        for mod_name, attr, span_name in PATCHES:
            mod = self._modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span_name, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
