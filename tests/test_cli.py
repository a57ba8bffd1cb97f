"""Command-line interface, driven in-process through main(argv)."""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import tpset
from conftest import rel, rows_key
from tpset import (
    GenParams,
    except_,
    generate,
    intersect,
    print_lineage,
    read_relation,
    sort_relation,
    union,
    windows,
    write_relation,
)
from tpset.cli import _parse_query, main


@pytest.fixture
def files(tmp_path, rel_a, rel_b, rel_c):
    paths = {}
    for name, r in [("a", rel_a), ("b", rel_b), ("c", rel_c)]:
        p = tmp_path / f"{name}.tsv"
        p.write_text(write_relation(r), encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(capsys, argv) -> tuple[int, str, str]:
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def assert_rows_close(got, want, tol=1e-9):
    """Serialized probabilities are quantized to 9 decimals, so rows
    read back from CLI output match the engine's within tol, not
    bit-for-bit."""
    gk, wk = rows_key(got), rows_key(want)
    assert len(gk) == len(wk)
    for g, w in zip(gk, wk):
        assert g[:3] == w[:3]
        assert abs(g[3] - w[3]) <= tol


class TestOp:
    def test_intersect_golden(self, capsys, files, rel_a, rel_c):
        rc, out, err = run(capsys, ["op", "intersect", files["a"], files["c"]])
        assert rc == 0 and err == ""
        got, _ = read_relation(io.StringIO(out))
        assert_rows_close(got, intersect(rel_a, rel_c))

    def test_out_flag(self, capsys, files, tmp_path, rel_a, rel_c):
        target = tmp_path / "result.tsv"
        rc, out, _ = run(
            capsys, ["op", "union", files["a"], files["c"], "--out", str(target)]
        )
        assert rc == 0 and out == ""
        got, _ = read_relation(str(target))
        assert_rows_close(got, union(rel_a, rel_c))

    def test_no_prob_drops_column(self, capsys, files):
        rc, out, _ = run(
            capsys, ["op", "intersect", files["a"], files["c"], "--no-prob"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "#fact:1\tlambda\tts\tte"
        assert all(len(line.split("\t")) == 4 for line in lines[1:])

    def test_stdin_operand(self, capsys, files, monkeypatch, rel_a, rel_c):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(write_relation(sort_relation(rel_a)))
        )
        rc, out, _ = run(capsys, ["op", "intersect", "-", files["c"]])
        assert rc == 0
        got, _ = read_relation(io.StringIO(out))
        assert_rows_close(got, intersect(rel_a, rel_c))

    def test_both_stdin_rejected(self, capsys, files):
        rc, _, err = run(capsys, ["op", "intersect", "-", "-"])
        assert rc == 1
        assert "stdin" in err

    def test_missing_file(self, capsys, files):
        rc, _, err = run(capsys, ["op", "union", "nope.tsv", files["a"]])
        assert rc == 1
        assert "tpset:" in err

    def test_malformed_file(self, capsys, tmp_path, files):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#fact:1\tlambda\tts\tte\tp\nmilk\tx\t9\t2\t0.5\n")
        rc, _, err = run(capsys, ["op", "union", str(bad), files["a"]])
        assert rc == 1
        assert "line 2" in err

    def test_internal_error_is_rc_2(self, capsys, files, monkeypatch):
        import tpset.cli

        def boom(*a, **k):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(tpset.cli, "apply_setop", boom)
        rc, _, err = run(capsys, ["op", "union", files["a"], files["c"]])
        assert rc == 2
        assert "internal error" in err


class TestQuery:
    def test_precedence(self, capsys, files, rel_a, rel_b, rel_c):
        expr = f"{files['a']} * {files['c']} + {files['b']}"
        rc, out, _ = run(capsys, ["query", expr])
        assert rc == 0
        got, _ = read_relation(io.StringIO(out))
        assert_rows_close(got, union(intersect(rel_a, rel_c), rel_b))

    def test_parens_override(self, capsys, files, rel_a, rel_b, rel_c):
        expr = f"{files['a']} * ({files['c']} + {files['b']})"
        rc, out, _ = run(capsys, ["query", expr])
        assert rc == 0
        got, _ = read_relation(io.StringIO(out))
        assert_rows_close(got, intersect(rel_a, union(rel_c, rel_b)))

    def test_golden_composition(self, capsys, files, rel_a, rel_b, rel_c):
        expr = f"{files['c']} - ({files['a']} + {files['b']})"
        rc, out, _ = run(capsys, ["query", expr])
        assert rc == 0
        got, _ = read_relation(io.StringIO(out))
        assert_rows_close(got, except_(rel_c, union(rel_a, rel_b)))

    def test_repeated_file_read_once(self, capsys, files, monkeypatch):
        import tpset.cli

        calls = []
        orig = tpset.cli.read_relation

        def counting(source):
            calls.append(source)
            return orig(source)

        monkeypatch.setattr(tpset.cli, "read_relation", counting)
        expr = f"{files['a']} + {files['a']} + {files['a']}"
        rc, _, _ = run(capsys, ["query", expr])
        assert rc == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "expr",
        ["", "a.tsv +", "+ a.tsv", "(a.tsv", "a.tsv b.tsv", "a.tsv + ) b.tsv"],
    )
    def test_syntax_errors(self, capsys, expr):
        rc, _, err = run(capsys, ["query", expr])
        assert rc == 1
        assert "query position" in err

    def test_dashes_in_file_names(self, capsys, tmp_path, rel_a, rel_c):
        # operators must stand alone, so path components with dashes
        # (tmp dirs, dated exports) survive tokenizing
        pa = tmp_path / "my-left-file.tsv"
        pc = tmp_path / "my-right-file.tsv"
        pa.write_text(write_relation(rel_a), encoding="utf-8")
        pc.write_text(write_relation(rel_c), encoding="utf-8")
        rc, out, _ = run(capsys, ["query", f"{pa} * {pc}"])
        assert rc == 0
        got, _ = read_relation(io.StringIO(out))
        assert_rows_close(got, intersect(rel_a, rel_c))

    def test_unseparated_operator_reads_as_file_name(self, capsys):
        rc, _, err = run(capsys, ["query", "a.tsv+b.tsv"])
        assert rc == 1  # one nonexistent file named a.tsv+b.tsv
        assert "a.tsv+b.tsv" in err

    def test_parse_tree_shapes(self):
        t = _parse_query("x * y + z")
        assert t[0] == "op" and t[2][0] == "op"
        t2 = _parse_query("x * (y + z)")
        assert t2[0] == "op" and t2[3][0] == "op"


def iterator_windows_tsv(left: str, right: str) -> str:
    """The window listing as the per-window iterator produces it; the
    reference the kernel-backed command must match byte for byte."""
    r, _ = read_relation(left)
    s, _ = read_relation(right)
    lines = [f"#fact:{r.arity or s.arity or 1}\tts\tte\tlambda_r\tlambda_s"]
    for w in windows(r, s):
        lam_r = print_lineage(w.lam_r) if w.lam_r is not None else ""
        lam_s = print_lineage(w.lam_s) if w.lam_s is not None else ""
        lines.append(
            "\t".join([*w.fact, str(w.interval.ts), str(w.interval.te), lam_r, lam_s])
        )
    return "".join(line + "\n" for line in lines)


class TestWindows:
    @pytest.mark.parametrize("pair", ["ab", "ac", "cb", "bb", "ca"])
    def test_matches_iterator_on_goldens(self, capsys, files, pair):
        left, right = files[pair[0]], files[pair[1]]
        rc, out, _ = run(capsys, ["windows", left, right])
        assert rc == 0
        assert out == iterator_windows_tsv(left, right)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_iterator_on_random_multi_fact(self, capsys, tmp_path, seed):
        paths = []
        for side, gap in (("r", 1), ("s", 0)):
            rel_ = generate(
                GenParams(
                    num_tuples=400,
                    num_facts=5,
                    max_interval_len=3,
                    max_gap=gap,
                    seed=seed,
                    atom_prefix=side,
                )
            )
            path = tmp_path / f"{side}.tsv"
            path.write_text(write_relation(rel_), encoding="utf-8")
            paths.append(str(path))
        rc, out, _ = run(capsys, ["windows", *paths])
        assert rc == 0
        assert out == iterator_windows_tsv(*paths)
        assert out.count("\n") > 400

    def test_golden(self, capsys, files):
        rc, out, _ = run(capsys, ["windows", files["a"], files["b"]])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "#fact:1\tts\tte\tlambda_r\tlambda_s"
        assert len(lines) == 8  # 7 windows
        assert "chips\t3\t4\t\tb2" in lines
        assert "milk\t5\t9\ta1\tb1" in lines
        assert "dates\t1\t3\ta3\t" in lines


class TestGen:
    def test_deterministic_and_valid(self, capsys, tmp_path):
        args = ["gen", "--tuples", "50", "--facts", "3", "--seed", "7"]
        rc1, out1, _ = run(capsys, args)
        rc2, out2, _ = run(capsys, args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        got, _ = read_relation(io.StringIO(out1))
        assert len(got) == 50

    def test_invalid_params(self, capsys):
        rc, _, err = run(capsys, ["gen", "--tuples", "2", "--facts", "5"])
        assert rc == 1
        assert "tpset:" in err


class TestValidate:
    def test_ok(self, capsys, files):
        rc, out, _ = run(capsys, ["validate", files["a"]])
        assert rc == 0
        assert out.strip() == "ok"

    def test_duplicate_violation(self, capsys, tmp_path):
        bad = tmp_path / "dup.tsv"
        bad.write_text(
            "#fact:1\tlambda\tts\tte\tp\n"
            "milk\tx1\t0\t9\t0.500000000\n"
            "milk\tx2\t1\t2\t0.500000000\n"
        )
        rc, out, err = run(capsys, ["validate", str(bad)])
        assert rc == 1
        assert "milk" in out  # report goes to stdout for this subcommand

    def test_tiny_probability_output_validates(self, capsys, tmp_path, monkeypatch):
        paths = []
        for name in ("x", "y"):
            path = tmp_path / f"{name}.tsv"
            path.write_text(write_relation(rel([("milk", name, 0, 5, 1e-5)])))
            paths.append(str(path))
        rc, out, _ = run(capsys, ["op", "intersect", *paths])
        assert rc == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        rc, ok, err = run(capsys, ["validate", "-"])
        assert (rc, ok.strip(), err) == (0, "ok", "")
        got, _ = read_relation(io.StringIO(out))
        assert got[0].p == 1e-5 * 1e-5

    @pytest.mark.parametrize(
        "lam",
        ["!" * 3000 + "x", "(" * 3000 + "x" + ")" * 3000],
        ids=["negations", "parentheses"],
    )
    def test_deeply_nested_lambda_is_user_error(self, capsys, tmp_path, lam):
        bad = tmp_path / "deep.tsv"
        bad.write_text(f"#fact:1\tlambda\tts\tte\tp\nmilk\t{lam}\t0\t1\t0.5\n")
        rc, _, err = run(capsys, ["validate", str(bad)])
        assert rc == 1
        assert "line 2: lambda nested too deeply" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "garbled.tsv"
        bad.write_text("#fact:1\tlambda\tts\tte\tp\nmilk\tx\tzero\t1\t0.5\n")
        rc, _, err = run(capsys, ["validate", str(bad)])
        assert rc == 1
        assert "line 2" in err


class TestOverlap:
    def test_golden_fraction(self, capsys, files):
        rc, out, _ = run(capsys, ["overlap", files["a"], files["c"]])
        assert rc == 0
        assert out.strip() == "0.333333333"


class TestBench:
    def test_small_sizes(self, capsys):
        rc, out, _ = run(
            capsys,
            ["bench", "intersect", "200", "400", "--repeats", "1", "--seed", "1"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "#size\top\tmedian_ms"
        assert len(lines) == 3
        size, op, ms = lines[1].split("\t")
        assert (size, op) == ("200", "intersect")
        assert float(ms) >= 0.0


class TestArgparseBehavior:
    def test_unknown_command_is_user_error(self, capsys):
        rc, _, err = run(capsys, ["frobnicate"])
        assert rc == 1

    def test_missing_required_args(self, capsys):
        rc, _, _ = run(capsys, ["op", "union"])
        assert rc == 1

    def test_bad_kind(self, capsys, files):
        rc, _, _ = run(capsys, ["op", "xor", files["a"], files["b"]])
        assert rc == 1


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def load_toml(path: Path) -> dict:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomllib is stdlib from 3.11
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as f:
        return tomllib.load(f)


def package_env() -> dict[str, str]:
    """Environment for child processes that puts the tpset this test
    process imported first on PYTHONPATH, so they run the code under
    test rather than some other installed copy."""
    src = str(Path(tpset.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def assert_help(p: subprocess.CompletedProcess) -> None:
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith("usage: tpset")
    assert "COMMAND" in p.stdout


class TestPipeline:
    def test_compose_via_pipe(self, files, rel_a, rel_b, rel_c):
        # union to stdout, difference from stdin: the documented pipe form
        env = package_env()
        p1 = subprocess.run(
            [sys.executable, "-m", "tpset.cli", "op", "union", files["a"], files["b"]],
            capture_output=True,
            text=True,
            env=env,
        )
        assert p1.returncode == 0, p1.stderr
        p2 = subprocess.run(
            [sys.executable, "-m", "tpset.cli", "op", "except", files["c"], "-"],
            input=p1.stdout,
            capture_output=True,
            text=True,
            env=env,
        )
        assert p2.returncode == 0, p2.stderr
        got, _ = read_relation(io.StringIO(p2.stdout))
        assert_rows_close(got, except_(rel_c, union(rel_a, rel_b)))
        probs = sorted(t.p for t in got)
        assert probs == sorted([0.6, 0.42, 0.196, 0.014, 0.8])

    def test_entry_point_script_exists(self):
        # checks the [project.scripts] entry without an install: it must
        # resolve to a callable, and the code pip's generated `tpset`
        # wrapper runs must print the help
        scripts = load_toml(PYPROJECT)["project"]["scripts"]
        assert "tpset" in scripts
        ep = EntryPoint(name="tpset", value=scripts["tpset"], group="console_scripts")
        assert callable(ep.load())
        wrapper = (
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            "sys.argv[0] = 'tpset'\n"
            f"sys.exit({ep.attr}())\n"
        )
        p = subprocess.run(
            [sys.executable, "-c", wrapper, "--help"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert_help(p)

    @pytest.mark.skipif(
        shutil.which("tpset") is None, reason="tpset console script not on PATH"
    )
    def test_installed_script_on_path(self):
        p = subprocess.run(
            ["tpset", "--help"], capture_output=True, text=True, env=package_env()
        )
        assert_help(p)
