"""Steadiness report: run each workload repeatedly and show metric spreads.

Run from the repository root::

    python3 pressbench/steadiness.py --runs 10 --seconds 30
    python3 pressbench/steadiness.py --workloads interactive --runs 5

Each run is ``pressbench/run.py`` with a different ``--seed`` (one run
at a time).  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), min and max, and the
spread: the distance between the quartiles as a share of the median.
The spread is then shown as a share of the metric's ``bound`` in
``BENCHMARK.json``.  A spread above the bound (``setup_s`` excepted,
whose bound applies to the median only) is flagged FAIL, one above a
third of it WARN.  Exits 1 when any metric fails or any run is not
correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    bad = False
    for workload in args.workloads.split(","):
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print(
                f"# {workload} seed {seed}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
            bad = bad or not result["correct"] or result["failed"] > 0
        print(f"\n{workload} ({args.runs} runs of {args.seconds} s)")
        print(
            f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} "
            f"{'max':>12s} {'spread':>7s} {'/bound':>7s}"
        )
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < 2:
                print(f"{name:18s} missing")
                bad = True
                continue
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            share = spread / bound
            flag = ""
            if name != "setup_s":
                if share > 1.0:
                    flag, bad = "FAIL", True
                elif share > 1 / 3:
                    flag = "WARN"
            print(
                f"{name:18s} {mid:12.5g} {q1:12.5g} {q3:12.5g} {min(values):12.5g} "
                f"{max(values):12.5g} {spread:7.2%} {share:7.2f} {flag}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
