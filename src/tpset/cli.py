"""tpset command line tool.

Subcommands:

  op        one set operation over two TSV relations
  query     a composed expression, files as operands
  windows   the raw window set of two relations
  gen       synthetic relation
  validate  check a file parses and is duplicate-free
  overlap   overlapping factor of two relations
  bench     timings over generated inputs

Data goes to stdout (or --out); diagnostics go to stderr. Exit status
0 on success, 1 on a user error (bad file, bad arguments, violated
invariant), 2 on an internal failure.

'-' as a file argument means stdin, so results pipe:

  tpset op union a.tsv b.tsv | tpset op except c.tsv -

In query expressions operators are standalone words ("a.tsv - b.tsv",
not "a.tsv-b.tsv"), so file names may contain '-', '+' and '*'. A lone
'-' there is always the difference operator; use the pipe form when
stdin is involved.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional

from .bench import bench_setop
from .datagen import GenParams, generate, overlapping_factor
from .model import DuplicateFreeError, TpRelation
from .setops import SetOpKind, apply_setop
from .sweep import window_table
from .tsvio import dump_relation, read_relation

__all__ = ["main", "build_parser"]

_KINDS = {k.value: k for k in SetOpKind}


class _UsageError(Exception):
    pass


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"query position {position}: {message}")
        self.position = position


class _Parser(argparse.ArgumentParser):
    # argparse wants to exit(2) on bad usage; route it through the
    # normal user-error path instead
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tpset", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("op", help="apply one set operation")
    sp.add_argument("kind", choices=sorted(_KINDS))
    sp.add_argument("left", help="TSV file or - for stdin")
    sp.add_argument("right", help="TSV file or - for stdin")
    _add_out(sp)
    sp.add_argument(
        "--no-prob",
        action="store_true",
        help="omit the probability column from the output",
    )
    sp.set_defaults(func=_cmd_op)

    sp = sub.add_parser(
        "query",
        help="evaluate a composed expression, e.g. \"c.tsv - (a.tsv + b.tsv)\"",
    )
    sp.add_argument(
        "expr",
        help="operators + (union), * (intersection), - (difference); "
        "* binds tighter; other tokens are file names",
    )
    _add_out(sp)
    sp.add_argument("--no-prob", action="store_true")
    sp.set_defaults(func=_cmd_query)

    sp = sub.add_parser("windows", help="emit the raw window set")
    sp.add_argument("left")
    sp.add_argument("right")
    _add_out(sp)
    sp.set_defaults(func=_cmd_windows)

    sp = sub.add_parser("gen", help="generate a synthetic relation")
    sp.add_argument("--tuples", type=int, required=True)
    sp.add_argument("--facts", type=int, default=1)
    sp.add_argument("--max-len", type=int, default=10, help="max interval length")
    sp.add_argument("--max-gap", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    _add_out(sp)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("validate", help="parse a file and check invariants")
    sp.add_argument("path")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("overlap", help="overlapping factor of two relations")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=_cmd_overlap)

    sp = sub.add_parser("bench", help="time an operation on generated data")
    sp.add_argument("kind", choices=sorted(_KINDS))
    sp.add_argument("sizes", type=int, nargs="+", help="tuples per side")
    sp.add_argument("--repeats", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--facts", type=int, default=1)
    sp.add_argument("--max-len", type=int, default=3)
    sp.add_argument("--max-gap", type=int, default=1)
    sp.set_defaults(func=_cmd_bench)

    return p


def _add_out(sp) -> None:
    sp.add_argument("--out", metavar="PATH", help="write to PATH instead of stdout")


def _read_operands(left: str, right: str) -> tuple[TpRelation, TpRelation]:
    if left == "-" and right == "-":
        raise _UsageError("tpset: stdin may only be used for one operand")
    r, _ = read_relation(sys.stdin if left == "-" else left)
    s, _ = read_relation(sys.stdin if right == "-" else right)
    return r, s


@contextlib.contextmanager
def _out_stream(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            yield fp


def _cmd_op(args) -> int:
    r, s = _read_operands(args.left, args.right)
    result = apply_setop(_KINDS[args.kind], r, s)
    with _out_stream(args.out) as fp:
        dump_relation(result, fp, with_prob=not args.no_prob)
    return 0


def _cmd_query(args) -> int:
    tree = _parse_query(args.expr)
    cache: dict[str, TpRelation] = {}

    def evaluate(node) -> TpRelation:
        if node[0] == "file":
            name = node[1]
            if name not in cache:
                cache[name] = read_relation(name)[0]
            return cache[name]
        _, kind, lhs, rhs = node
        return apply_setop(kind, evaluate(lhs), evaluate(rhs))

    result = evaluate(tree)
    with _out_stream(args.out) as fp:
        dump_relation(result, fp, with_prob=not args.no_prob)
    return 0


def _cmd_windows(args) -> int:
    r, s = _read_operands(args.left, args.right)
    arity = r.arity or s.arity or 1
    from .lineage import print_lineage

    with _out_stream(args.out) as fp:
        fp.write(f"#fact:{arity}\tts\tte\tlambda_r\tlambda_s\n")
        # read_relation has checked both operands are duplicate-free,
        # which is all the kernel relies on
        for win in window_table(r, s).to_windows():
            fp.write(
                "\t".join(
                    [
                        "\t".join(win.fact),
                        str(win.interval.ts),
                        str(win.interval.te),
                        print_lineage(win.lam_r) if win.lam_r is not None else "",
                        print_lineage(win.lam_s) if win.lam_s is not None else "",
                    ]
                )
                + "\n"
            )
    return 0


def _cmd_gen(args) -> int:
    rel = generate(
        GenParams(
            num_tuples=args.tuples,
            num_facts=args.facts,
            max_interval_len=args.max_len,
            max_gap=args.max_gap,
            seed=args.seed,
        )
    )
    with _out_stream(args.out) as fp:
        dump_relation(rel, fp)
    return 0


def _cmd_validate(args) -> int:
    try:
        read_relation(sys.stdin if args.path == "-" else args.path)
    except DuplicateFreeError as e:
        print(str(e))
        return 1
    print("ok")
    return 0


def _cmd_overlap(args) -> int:
    r, s = _read_operands(args.left, args.right)
    print(f"{overlapping_factor(r, s):.9f}")
    return 0


def _cmd_bench(args) -> int:
    results = bench_setop(
        _KINDS[args.kind],
        args.sizes,
        repeats=args.repeats,
        seed=args.seed,
        num_facts=args.facts,
        max_len=args.max_len,
        max_gap=args.max_gap,
    )
    print("#size\top\tmedian_ms")
    for res in results:
        print(f"{res.size}\t{res.op}\t{res.median_ms:.3f}")
    return 0


# ---------------------------------------------------------------------------
# query expressions
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := FILE | '(' expr ')'
#
# Operators count only as standalone words (delimited by whitespace or a
# parenthesis), so file names may contain '-', '+' or '*'. Parentheses
# always split off. A lone '-' is the difference operator here, never
# stdin.
# ---------------------------------------------------------------------------

_QUERY_OPS = {"+": SetOpKind.UNION, "-": SetOpKind.DIFFERENCE, "*": SetOpKind.INTERSECTION}


def _tokenize_query(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []  # (type, value, 1-based pos)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        start = i
        while i < len(text) and not text[i].isspace() and text[i] not in "()":
            i += 1
        word = text[start:i]
        kind = word if word in _QUERY_OPS else "file"
        tokens.append((kind, word, start + 1))
    return tokens


def _parse_query(text: str):
    tokens = _tokenize_query(text)
    pos = 0

    def peek() -> Optional[tuple[str, str, int]]:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_expr():
        node = parse_term()
        while (tok := peek()) is not None and tok[0] in "+-":
            take()
            node = ("op", _QUERY_OPS[tok[0]], node, parse_term())
        return node

    def parse_term():
        node = parse_factor()
        while (tok := peek()) is not None and tok[0] == "*":
            take()
            node = ("op", _QUERY_OPS["*"], node, parse_factor())
        return node

    def parse_factor():
        tok = peek()
        if tok is None:
            raise QuerySyntaxError(
                "expected a file name or '('", len(text) + 1
            )
        if tok[0] == "file":
            take()
            return ("file", tok[1])
        if tok[0] == "(":
            take()
            node = parse_expr()
            closing = peek()
            if closing is None or closing[0] != ")":
                raise QuerySyntaxError(
                    "expected ')'",
                    closing[2] if closing is not None else len(text) + 1,
                )
            take()
            return node
        raise QuerySyntaxError(f"unexpected '{tok[1]}'", tok[2])

    node = parse_expr()
    trailing = peek()
    if trailing is not None:
        raise QuerySyntaxError(f"unexpected '{trailing[1]}'", trailing[2])
    return node


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); not our error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as e:
        # covers format, lineage, relation and parameter errors
        print(f"tpset: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    except Exception as e:
        print(f"tpset: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
