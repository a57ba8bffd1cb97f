"""Steadiness check: two sets of benchmark runs of the same code.

    python3 tpbench/steady.py --runs 10

Runs the command in BENCHMARK.json once per seed, one run at a time,
for every workload (or those given with --workloads), in two sets with
different seeds. For each end-to-end metric and workload it reports
each set's median and quartiles, the spread (quartile distance over
the median), and whether the sets agree: each spread, except that of
setup_s, within the metric's bound, and the second median no worse
than the first by more than the bound. Exits 1 when any pair
disagrees. The report also goes to tpbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} reported incorrect output")
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def compare(metric: dict, a: dict, b: dict) -> dict:
    bound = metric["bound"]
    if metric["better"] == "lower":
        worse = (b["median"] - a["median"]) / a["median"]
    else:
        worse = (a["median"] - b["median"]) / a["median"]
    spread_ok = metric["name"] == "setup_s" or max(a["spread"], b["spread"]) <= bound
    return {
        "bound": bound,
        "worse": worse,
        "spread_ok": spread_ok,
        "steady": metric["name"] == "setup_s" or max(a["spread"], b["spread"]) < bound / 3,
        "agree": spread_ok and worse <= bound,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    p.add_argument("--workloads", help="comma-separated; default every workload")
    p.add_argument("--first-seed", type=int, default=1, help="set one uses seeds from here, set two from here + 1000")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    values = {}  # (set, workload, metric) -> values
    for k in range(2):
        for w in names:
            for i in range(args.runs):
                seed = args.first_seed + 1000 * k + i
                result = run_once(spec, w, seed)
                for m in spec["end_to_end"]:
                    values.setdefault((k, w, m["name"]), []).append(result["metrics"][m["name"]]["value"])
                print(f"set {k + 1} {w} seed {seed} done", file=sys.stderr, flush=True)

    report, all_agree = [], True
    print(f"{'workload':18s} {'metric':12s} {'median1':>11s} {'median2':>11s} {'spread1':>8s} {'spread2':>8s} {'worse':>7s} {'bound':>6s}  verdict")
    for w in names:
        for m in spec["end_to_end"]:
            a = summarize(values[(0, w, m["name"])])
            b = summarize(values[(1, w, m["name"])])
            c = compare(m, a, b)
            all_agree &= c["agree"]
            verdict = ("agree" if c["agree"] else "DISAGREE") + ("" if c["steady"] else ", spread over bound/3")
            print(
                f"{w:18s} {m['name']:12s} {a['median']:11.5g} {b['median']:11.5g} "
                f"{a['spread']:8.4f} {b['spread']:8.4f} {c['worse']:7.4f} {c['bound']:6.3f}  {verdict}"
            )
            report.append({"workload": w, "metric": m["name"], "unit": m["unit"], "set1": a, "set2": b, **c})
    out = ROOT / "tpbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
