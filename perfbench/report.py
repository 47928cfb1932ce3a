"""Run the benchmark over workloads, seeds and trace settings and print every
metric with its unit, plus failed_ratio and the run-to-run spread.

    python3 perfbench/report.py                       # all workloads, seed 0, untraced and traced
    python3 perfbench/report.py --workload paper_episode --seeds 0-9 --trace 0

Each run is a fresh `perfbench/run.py` process, one at a time.  For each
metric the table gives the median over seeds, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_episode", "replay_day", "learn_dense")


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "log": lines}
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def spread(values: list) -> tuple:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def report(workload: str, trace: int, results: list) -> None:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"\n== {workload}, trace {trace}: {len(results)} runs, correct={correct}, "
          f"failed_ratio={failed / max(1, attempted):.4f} ({failed}/{attempted})")
    for r in results:
        for line in r["log"]:
            if line.startswith(("digest", "problem", "setup_s")):
                print(f"   {line}")
    names = list(results[0]["metrics"]) if results and results[0]["metrics"] else []
    print(f"   {'metric':40s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        median, q1, q3, share = spread(values)
        unit = results[0]["metrics"][name]["unit"]
        print(f"   {name:40s} {unit:6s} {median:14.6g} {q1:14.6g} {q3:14.6g} {share:8.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), action="append")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in args.workload or WORKLOADS:
        for trace in args.trace or (0, 1):
            results = [run_once(workload, seed, seconds, trace)
                       for seed in seed_list(args.seeds)]
            report(workload, trace, results)
            ok &= all(r["correct"] for r in results)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
