"""TSV serialization of relations.

One header line, then one line per tuple:

    #fact:2<TAB>lambda<TAB>ts<TAB>te<TAB>p
    milk<TAB>shop7<TAB>c2 & !(a1 | b1)<TAB>6<TAB>8<TAB>0.196000000

The fact occupies the first k columns (k from the header), lambda is
the lineage in its text form, ts/te are the half-open interval bounds
and p is the probability printed with nine decimals, except a value
that would print as zero, which is written in Python's shortest
round-trip form (1e-10) so the file reads back. Tabs separate, \\n
terminates, the encoding is UTF-8.

Probabilities quantized to nine decimals (the generator's are) survive
a write/read cycle exactly, and re-serializing a relation that was read
from text reproduces the bytes. Writing can omit the lambda or p
column for human consumption; reading accepts only the full format.

Every atom probability a file can carry comes from its bare-atom rows:
a row whose lambda is a single atom defines that atom's probability.
The same atom twice with the same probability is fine (deliberate
repetition); with different probabilities it is an error. Atoms that
only occur inside compound lambdas are in the relation's atom table
without a probability.
"""

from __future__ import annotations

import io
import os
from typing import Optional, TextIO, Union

from .lineage import LineageSyntaxError, parse_lineage, print_lineage
from .model import (
    AtomConflictError,
    AtomTable,
    Interval,
    TpRelation,
    TpTuple,
)

__all__ = ["TsvFormatError", "read_relation", "write_relation", "dump_relation"]

_TAIL_COLUMNS = ("lambda", "ts", "te", "p")
_TIME_BOUND = 2**62


class TsvFormatError(ValueError):
    """Malformed TSV input; messages carry the 1-based line number."""


Source = Union[str, os.PathLike, TextIO]


def read_relation(source: Source) -> tuple[TpRelation, AtomTable]:
    """Parse a relation and its atom table from a path or an open text
    stream."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fp:
            return _read(fp)
    return _read(source)


def _read(fp: TextIO) -> tuple[TpRelation, AtomTable]:
    arity: Optional[int] = None
    rows: list[TpTuple] = []
    for lineno, raw in enumerate(fp, 1):
        line = raw.rstrip("\n")
        if line.endswith("\r"):
            line = line[:-1]
        if lineno == 1:
            arity = _parse_header(line, lineno)
            continue
        if not line:
            raise TsvFormatError(f"line {lineno}: blank line")
        parts = line.split("\t")
        if len(parts) != arity + 4:
            raise TsvFormatError(
                f"line {lineno}: expected {arity + 4} columns, got {len(parts)}"
            )
        fact = tuple(parts[:arity])
        try:
            lam = parse_lineage(parts[arity])
        except LineageSyntaxError as e:
            raise TsvFormatError(
                f"line {lineno}: bad lambda ({e})"
            ) from e
        try:
            ts = int(parts[arity + 1])
            te = int(parts[arity + 2])
        except ValueError:
            raise TsvFormatError(
                f"line {lineno}: ts/te must be integers"
            ) from None
        if abs(ts) > _TIME_BOUND or abs(te) > _TIME_BOUND:
            raise TsvFormatError(f"line {lineno}: chronon out of range")
        if not ts < te:
            raise TsvFormatError(
                f"line {lineno}: empty or inverted interval [{ts}, {te})"
            )
        try:
            p = float(parts[arity + 3])
        except ValueError:
            raise TsvFormatError(f"line {lineno}: bad probability") from None
        if not 0.0 < p <= 1.0:
            raise TsvFormatError(
                f"line {lineno}: probability {parts[arity + 3]} outside (0, 1]"
            )
        rows.append(TpTuple(fact, lam, Interval(ts, te), p))
    if arity is None:
        raise TsvFormatError("line 1: missing header")
    try:
        # raises DuplicateFreeError on overlapping same-fact intervals
        rel = TpRelation.from_tuples(rows)
    except AtomConflictError as e:
        # row i is on line i + 2, after the header
        raise TsvFormatError(f"line {e.row + 2}: {e}") from None
    return rel, rel.atom_probs


def _parse_header(line: str, lineno: int) -> int:
    parts = line.split("\t")
    if not parts[0].startswith("#fact:"):
        raise TsvFormatError(f"line {lineno}: header must start with '#fact:'")
    try:
        arity = int(parts[0][len("#fact:") :])
    except ValueError:
        raise TsvFormatError(f"line {lineno}: bad fact arity") from None
    if arity < 1:
        raise TsvFormatError(f"line {lineno}: fact arity must be positive")
    if tuple(parts[1:]) != _TAIL_COLUMNS:
        raise TsvFormatError(
            f"line {lineno}: expected columns {' '.join(_TAIL_COLUMNS)}"
        )
    return arity


def write_relation(
    rel: TpRelation, with_lineage: bool = True, with_prob: bool = True
) -> str:
    """Serialize to TSV text. with_lineage/with_prob drop the lambda or
    p column; such reduced files are for reading by humans, not by
    read_relation."""
    buf = io.StringIO()
    dump_relation(rel, buf, with_lineage=with_lineage, with_prob=with_prob)
    return buf.getvalue()


def dump_relation(
    rel: TpRelation,
    fp: TextIO,
    with_lineage: bool = True,
    with_prob: bool = True,
) -> None:
    """Stream the TSV form to an open text file."""
    arity = rel.arity if rel.arity is not None else 1
    header = [f"#fact:{arity}"]
    if with_lineage:
        header.append("lambda")
    header += ["ts", "te"]
    if with_prob:
        header.append("p")
    fp.write("\t".join(header) + "\n")

    facts = []
    for fact in rel.fact_table:
        for attr in fact:
            if "\t" in attr or "\n" in attr:
                raise ValueError(
                    f"fact attribute {attr!r} cannot be written as TSV"
                )
        facts.append("\t".join(fact))
    lams = None
    if with_lineage:
        col = rel.lineage_column
        # generated atom ids print without building Atom objects
        lams = col.atom_texts()
        if lams is None:
            lams = (print_lineage(col.get(i)) for i in range(len(rel)))
    codes = rel.fact_codes
    ts = rel.ts_array
    te = rel.te_array
    p = rel.p_array
    out = []
    for i in range(len(rel)):
        row = [facts[int(codes[i])]]
        if lams is not None:
            row.append(next(lams))
        row.append(str(int(ts[i])))
        row.append(str(int(te[i])))
        if with_prob:
            text = f"{float(p[i]):.9f}"
            if text == "0.000000000":
                # p is positive; a written zero would fail the reader
                text = repr(float(p[i]))
            row.append(text)
        out.append("\t".join(row))
        if len(out) >= 65536:
            fp.write("\n".join(out) + "\n")
            out.clear()
    if out:
        fp.write("\n".join(out) + "\n")
