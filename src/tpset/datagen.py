"""Synthetic relation generator for tests and benchmarks.

Facts are assigned round-robin by tuple ordinal. Along each fact's
timeline the tuples alternate gap, interval, gap, interval, with the
interval length drawn uniformly from {1..max_interval_len} and the gap
uniformly from {0..max_gap}; the first tuple also starts after a gap
draw. A gap of 0 makes tuples adjacent but never overlapping, so the
output is duplicate-free by construction, and it comes out already
sorted by (fact, ts).

Each tuple's lineage is a fresh atom '<prefix><row+1>'. Probabilities
are drawn uniformly from (low, high] and rounded to 9 decimals so a
write/read cycle through the TSV format reproduces them bit for bit.

Everything is driven by numpy's seeded default generator: equal
parameters give byte-identical relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import AtomTable, Leaf, LineageColumn, TpRelation
from .sweep import window_table

__all__ = ["GenParams", "generate", "overlapping_factor"]


@dataclass(frozen=True)
class GenParams:
    """Generator parameters.

    num_facts may not exceed num_tuples (every fact must receive at
    least one tuple); prob_range is half-open from below, (low, high]
    within (0, 1]. atom_prefix defaults to a seed-derived prefix whose
    trailing letter keeps atom ids from two different seeds disjoint.
    """

    num_tuples: int
    num_facts: int
    max_interval_len: int
    max_gap: int
    prob_range: tuple[float, float] = (0.1, 1.0)
    seed: int = 0
    atom_prefix: Optional[str] = None

    def __post_init__(self):
        if self.num_tuples < 0:
            raise ValueError("num_tuples must be non-negative")
        if self.num_facts < (1 if self.num_tuples > 0 else 0):
            raise ValueError("num_facts must be at least 1")
        if self.num_facts > self.num_tuples:
            raise ValueError(
                f"num_facts ({self.num_facts}) exceeds num_tuples "
                f"({self.num_tuples})"
            )
        if self.max_interval_len < 1:
            raise ValueError("max_interval_len must be at least 1")
        if self.max_gap < 0:
            raise ValueError("max_gap must be non-negative")
        low, high = self.prob_range
        if not (0.0 < low <= high <= 1.0):
            raise ValueError(f"prob_range ({low}, {high}] not within (0, 1]")

    @property
    def prefix(self) -> str:
        return (
            self.atom_prefix
            if self.atom_prefix is not None
            else f"g{self.seed}a"
        )


def generate(params: GenParams) -> TpRelation:
    """Generate a relation. Deterministic in the parameters."""
    n = params.num_tuples
    nf = params.num_facts
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        leaf = Leaf.from_rows([], [])
        return TpRelation(
            (),
            empty,
            empty,
            empty,
            np.empty(0, dtype=np.float64),
            LineageColumn(leaf, 0),
            AtomTable((leaf,)),
            is_sorted=True,
        )

    rng = np.random.default_rng(params.seed)
    lens = rng.integers(1, params.max_interval_len + 1, size=n, dtype=np.int64)
    gaps = rng.integers(0, params.max_gap + 1, size=n, dtype=np.int64)
    low, high = params.prob_range
    # uniform over (low, high]: flip the half-open end of random()
    p = high - rng.random(n) * (high - low)
    p = np.clip(np.round(p, 9), 1e-9, 1.0)

    # Tuple ordinal j belongs to fact j % num_facts; laying the draws
    # out in a (rows, facts) grid makes each column one fact's timeline,
    # and a cumulative sum down the columns places the intervals.
    rows = math.ceil(n / nf)
    pad = rows * nf - n
    if pad:
        lens = np.append(lens, np.ones(pad, dtype=np.int64))
        gaps = np.append(gaps, np.zeros(pad, dtype=np.int64))
        p = np.append(p, np.full(pad, 0.5))
    te = np.cumsum((lens + gaps).reshape(rows, nf), axis=0)
    ts = te - lens.reshape(rows, nf)

    real = np.arange(rows * nf).reshape(rows, nf) < n
    # fact-major emission: column by column, padding dropped
    mask = real.T.reshape(-1)
    ts_out = ts.T.reshape(-1)[mask]
    te_out = te.T.reshape(-1)[mask]
    p_out = p.reshape(rows, nf).T.reshape(-1)[mask]
    counts = np.full(nf, n // nf, dtype=np.int64)
    counts[: n % nf] += 1
    codes = np.repeat(np.arange(nf, dtype=np.int64), counts)

    width = len(str(nf - 1))
    fact_table = tuple((f"f{i:0{width}d}",) for i in range(nf))
    leaf = Leaf.generated(params.prefix, p_out)
    return TpRelation(
        fact_table,
        codes,
        ts_out,
        te_out,
        p_out,
        LineageColumn(leaf, n),
        AtomTable((leaf,)),
        is_sorted=True,
    )


def overlapping_factor(r: TpRelation, s: TpRelation) -> float:
    """Fraction of windows covered on both sides. Undefined (raises)
    when both relations are empty."""
    wt = window_table(r, s)
    if len(wt) == 0:
        raise ValueError(
            "overlapping factor is undefined for two empty relations"
        )
    return wt.both_count / len(wt)
