"""TSV serialization of relations.

One header line, then one line per tuple:

    #fact:2<TAB>lambda<TAB>ts<TAB>te<TAB>p
    milk<TAB>shop7<TAB>c2 & !(a1 | b1)<TAB>6<TAB>8<TAB>0.196000000

The fact occupies the first k columns (k from the header), lambda is
the lineage in its text form, ts/te are the half-open interval bounds
and p is the probability printed with nine decimals, except a value
that would print as zero, which is written in Python's shortest
round-trip form (1e-10) so the file reads back. Tabs separate, \\n
terminates, the encoding is UTF-8. A fact attribute may not contain a
tab, \\n or \\r: the writer rejects them, because a file opened by path
reads with universal newlines, where a lone \\r ends the line.

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

Both directions work on columns, 8,192 rows at a time. The reader takes
that many lines from the stream, splits their fields once, converts
each column with one int, float or parse_lineage call per field and
checks the block's lines together; a faulty block is reported at its
first faulty line, with the check that line fails first. It builds no
row objects, only each row's formula. The writer converts each block's
columns with tolist() and composes each lambda from its operands'
texts, block by block of the lineage column, so no row's formula is
rebuilt or printed again.
"""

from __future__ import annotations

import io
import os
from itertools import islice, repeat
from operator import attrgetter
from typing import Callable, Optional, TextIO, Union

import numpy as np

from .lineage import (
    SEPARATOR,
    And,
    Atom,
    Not,
    Or,
    and_fn,
    and_not_fn,
    needs_parens,
    or_fn,
    parse_lineage,
    print_lineage,
)
from .model import (
    AtomConflictError,
    AtomTable,
    Block,
    DuplicateFreeError,
    LineageColumn,
    TpRelation,
    _generated_id,
    validate_duplicate_free,
)

__all__ = ["TsvFormatError", "read_relation", "write_relation", "dump_relation"]

_TAIL_COLUMNS = ("lambda", "ts", "te", "p")
_TIME_BOUND = 2**62
# Lines per block of the reader, rows per block of the writer: enough
# that the per-block overhead is noise, few enough that a block's text
# and objects stay a few MB.
_BLOCK = 8192


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


def _strip_ends(lines: list[str]) -> list[str]:
    # the stream's lines without their \n and one \r before it
    return [
        line[:-1] if line[-1:] == "\r" else line
        for line in map(str.rstrip, lines, repeat("\n"))
    ]


def _read(fp: TextIO) -> tuple[TpRelation, AtomTable]:
    lines = iter(fp)
    header = next(lines, None)
    if header is None:
        raise TsvFormatError("line 1: missing header")
    arity = _parse_header(_strip_ends([header])[0], 1)
    # A fact's key is its attributes joined by tabs, which no attribute
    # holds. Until every key is known, each new key takes the next free
    # code; the codes are ranked into fact order at the end.
    first_seen: dict[str, int] = {}
    lams: list = []
    columns = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]
    lineno = 2
    while True:
        chunk = _strip_ends(list(islice(lines, _BLOCK)))
        if not chunk:
            break
        keys, chunk_lams, ts, te, p = _read_block(chunk, lineno, arity)
        for key in set(keys).difference(first_seen):
            first_seen[key] = len(first_seen)
        codes = np.fromiter(map(first_seen.__getitem__, keys), np.int64, len(keys))
        columns.append((codes, ts, te, p))
        lams += chunk_lams
        lineno += len(chunk)
    codes, ts, te, p = (np.concatenate(parts) for parts in zip(*columns))
    del columns

    col = LineageColumn(lams, len(lams))
    p_list = p.tolist()
    table = None
    if set(map(type, lams)) <= {Atom}:
        atoms = dict(zip(map(attrgetter("id"), lams), p_list))
        # one key per row exactly when no id repeats, and then no two
        # rows are equivalent
        col._distinct = len(atoms) == len(lams)
        if col._distinct:
            table = AtomTable(atoms)
    if table is None:
        try:
            table = AtomTable.from_rows(zip(lams, p_list))
        except AtomConflictError as e:
            # row i is on line i + 2, after the header
            raise TsvFormatError(f"line {e.row + 2}: {e}") from None

    keys = sorted(first_seen, key=lambda key: key.split("\t"))
    rank = np.empty(len(keys), dtype=np.int64)
    rank[[first_seen[key] for key in keys]] = np.arange(len(keys))
    fact_table = tuple(tuple(key.split("\t")) for key in keys)
    rel = TpRelation(fact_table, rank[codes], ts, te, p, col, table)
    bad = validate_duplicate_free(rel)
    if bad is not None:
        raise DuplicateFreeError(*bad)
    return rel, table


def _convert(fn: Callable, texts: list[str]) -> tuple[list, Optional[ValueError]]:
    """fn of each text up to the first that raises ValueError, and that
    error (None when every text converts)."""
    out: list = []
    try:
        # extend keeps the items converted before the failure
        out.extend(map(fn, texts))
    except ValueError as e:
        return out, e
    return out, None


def _read_block(rows: list[str], lineno: int, arity: int):
    """The fact keys, formulas, ts, te and p of the data lines rows, the
    first of which is line lineno. Raises TsvFormatError for the first
    faulty line, and on that line for the first check it fails, in the
    order column count, lambda, ts/te integers, chronon range, interval
    order, p syntax, p range. Each check runs on the n lines before the
    first fault found so far."""
    width = arity + 4
    n = len(rows)
    message = ""
    tabs = list(map(str.count, rows, repeat("\t")))
    if tabs.count(width - 1) != n:
        n = next(i for i, count in enumerate(tabs) if count != width - 1)
        if rows[n]:
            message = f"expected {width} columns, got {tabs[n] + 1}"
        else:
            message = "blank line"
    # field k of line i is fields[i * width + k]
    fields = "\t".join(rows[:n]).split("\t") if n else []

    lams, error = _convert(parse_lineage, fields[arity::width])
    if error is not None:
        n, message = len(lams), f"bad lambda ({error})"
    ts, error = _convert(int, fields[arity + 1 :: width][:n])
    te, error2 = _convert(int, fields[arity + 2 :: width][:n])
    if error is not None or error2 is not None:
        n, message = min(len(ts), len(te)), "ts/te must be integers"
    ts, te = ts[:n], te[:n]
    # on Python ints, before anything is narrowed to int64
    if n and max(-min(ts), max(ts), -min(te), max(te)) > _TIME_BOUND:
        n = next(i for i in range(n) if max(abs(ts[i]), abs(te[i])) > _TIME_BOUND)
        message = "chronon out of range"
    ts_a = np.array(ts[:n], dtype=np.int64)
    te_a = np.array(te[:n], dtype=np.int64)
    inverted = np.flatnonzero(ts_a >= te_a)
    if len(inverted):
        n = int(inverted[0])
        message = f"empty or inverted interval [{ts[n]}, {te[n]})"
    p_texts = fields[arity + 3 :: width][:n]
    p, error = _convert(float, p_texts)
    if error is not None:
        n, message = len(p), "bad probability"
    p_a = np.array(p[:n], dtype=np.float64)
    # NaN fails both comparisons
    outside = np.flatnonzero(~((p_a > 0.0) & (p_a <= 1.0)))
    if len(outside):
        n = int(outside[0])
        message = f"probability {p_texts[n]} outside (0, 1]"
    if message:
        raise TsvFormatError(f"line {lineno + n}: {message}")
    keys = map("\t".join, zip(*(fields[k::width] for k in range(arity))))
    return list(keys), lams, ts_a, te_a, p_a


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
            if "\t" in attr or "\n" in attr or "\r" in attr:
                raise ValueError(
                    f"fact attribute {attr!r} cannot be written as TSV"
                )
        facts.append("\t".join(fact))
    col = rel.lineage_column
    for lo in range(0, len(rel), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        columns = [map(facts.__getitem__, rel.fact_codes[rows].tolist())]
        if with_lineage:
            nodes = col.node_ids(np.arange(lo, min(lo + _BLOCK, len(rel))))
            columns.append(_node_texts(col.block, nodes)[0])
        columns.append(map(str, rel.ts_array[rows].tolist()))
        columns.append(map(str, rel.te_array[rows].tolist()))
        if with_prob:
            columns.append(_p_texts(rel.p_array[rows]))
        fp.write("\n".join(map("\t".join, zip(*columns))) + "\n")


def _p_texts(p: np.ndarray) -> list[str]:
    texts = list(map("{:.9f}".format, p.tolist()))
    for i in np.flatnonzero(p < 1e-9).tolist():
        if texts[i] == "0.000000000":
            # p is positive; a written zero would fail the reader
            texts[i] = repr(float(p[i]))
    return texts


def _node_texts(block: Block, nodes: np.ndarray) -> tuple[list[str], list[type]]:
    """The text print_lineage gives each of the nodes (ids in block) and
    its node class. An operation's node joins the texts of its operand
    nodes, which an earlier pass over the operands' blocks gives; the
    passes go down an explicit stack, since composed queries nest deeper
    than the recursion limit."""
    done: list[tuple[list[str], list[type]]] = []
    stack: list = [(block, nodes, False)]
    while stack:
        block, nodes, operands_done = stack.pop()
        if type(block) is str:
            texts = [_generated_id(block, k) for k in nodes.tolist()]
            done.append((texts, [Atom] * len(texts)))
        elif type(block) is list:
            lams = list(map(block.__getitem__, nodes.tolist()))
            kinds = list(map(type, lams))
            texts = [
                lam.id if kind is Atom else print_lineage(lam)
                for lam, kind in zip(lams, kinds)
            ]
            done.append((texts, kinds))
        elif not operands_done:
            left, right = block.left_ids[nodes], block.right_ids[nodes]
            stack.append((block, (left, right), True))
            stack.append((block.right, right[right >= 0], False))
            stack.append((block.left, left[left >= 0], False))
        else:
            right_done = done.pop()
            done[-1] = _join(block.concat, *nodes, done[-1], right_done)
    return done[0]


def _template(op: type, negate: bool, left: type, right: type) -> tuple[str, str, str]:
    # the text before, between and after the texts of two operand nodes
    # of the given classes
    head = tail = ""
    middle = SEPARATOR[op]
    if needs_parens(op, left):
        head, middle = "(", ")" + middle
    if negate:
        if needs_parens(Not, right):
            middle, tail = middle + "!(", ")"
        else:
            middle += "!"
        right = Not
    if needs_parens(op, right, right=True):
        middle, tail = middle + "(", tail + ")"
    return head, middle, tail


# Each lineage concatenation of the operator table as its operator and
# its template for each pair of operand classes, when both operands are
# present; a lone operand passes through.
_KINDS = (Atom, Not, And, Or)
_JOINS = {
    concat: (
        op,
        {(a, b): _template(op, negate, a, b) for a in _KINDS for b in _KINDS},
    )
    for concat, op, negate in (
        (and_fn, And, False),
        (or_fn, Or, False),
        (and_not_fn, And, True),
    )
}


def _join(concat, left_ids, right_ids, left, right):
    """The texts and classes of concat over the operand nodes left_ids
    and right_ids (-1 absent); left and right hold the texts and classes
    of the present ones, in order."""
    op, templates = _JOINS[concat]
    lefts, rights = zip(*left), zip(*right)
    texts, kinds = [], []
    for li, ri in zip(left_ids.tolist(), right_ids.tolist()):
        if li < 0 or ri < 0:
            text, kind = next(rights) if li < 0 else next(lefts)
        else:
            ltext, lkind = next(lefts)
            rtext, rkind = next(rights)
            head, middle, tail = templates[lkind, rkind]
            text, kind = head + ltext + middle + rtext + tail, op
        texts.append(text)
        kinds.append(kind)
    return texts, kinds
