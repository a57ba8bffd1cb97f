"""Run one tpset benchmark workload and print its metrics.

    python3 tpbench/run.py --workload gen_setops_1m --seed 1 --seconds 20 --trace 0

Run from the root of a tpset checkout; the library is imported from
its src/ directory. --trace 0 measures the end-to-end metrics with
tracing off; --trace 1 alternates untraced and traced cycles and
reports the per-layer metrics and the tracing overhead. Human-readable
lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The full result, with the
sample count of every metric, goes to tpbench/out/results/.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the benchmark could not run at all (for example without src/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    return args


def git_commit(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the library sources; identifies the code measured
    where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tpset").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "tpset" / "__init__.py").is_file():
        print(f"tpbench: no tpset sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.process_time()
    import numpy
    import tpset.cli  # noqa: F401  (import cost belongs to set-up)

    import_s = time.process_time() - t0
    if not Path(tpset.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"tpbench: imported tpset from {tpset.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"tpbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, str(workdir), bool(args.trace))
        phases = {}
        for phase, fn in (("setup", run.setup), ("measure", lambda: run.measure(args.seconds)), ("check", run.check)):
            t = time.perf_counter()
            fn()
            phases[phase] = time.perf_counter() - t
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        measured, units = run.per_layer(), PER_LAYER_UNITS
    else:
        measured, units = run.end_to_end(import_s), END_TO_END_UNITS
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": measured[k][0], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **result,
        "samples": {k: measured[k][1] for k in units},
        "problems": {k: v for k, v in run.problems.items() if v},
        "errors": run.errors,
        "phase_s": phases,
        "cycles": [
            {"traced": t, "cpu_s": s, "batch_cpu_s": b, "wall_s": w} for t, s, b, w in run.cycles
        ],
    }
    if args.trace:
        # the end-to-end figures of the same run's untraced cycles, for comparison
        record["untraced"] = {k: v[0] for k, v in run.end_to_end(import_s).items()}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    for k in units:
        print(f"{k:30s} {measured[k][0]:.6g} {units[k]} (n={measured[k][1]})")
    for label, problems in run.problems.items():
        for problem in problems:
            print(f"check failed: {label}: {problem}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
