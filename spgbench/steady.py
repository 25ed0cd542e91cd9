"""Steadiness check: run one workload repeatedly and report each metric's spread.

Usage (from the root of a checkout)::

    python3 spgbench/steady.py --workload batch-wide --runs 10 --seconds 25

Each run gets its own ``--seed`` (``first-seed``, ``first-seed + 1``, ...).
For every metric the tool prints the median, the quartiles as
``statistics.quantiles(n=4)`` cuts them, and the spread: the distance
between the quartiles as a share of the median.  An end-to-end metric whose
spread exceeds a tenth is flagged; the remedy is to move it to the
per-layer set of ``BENCHMARK.json`` (which has no bound), never to widen
its bound.  Exits 1 when a run fails or a metric is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import quartiles  # noqa: E402

#: Largest spread an end-to-end metric may show before it is flagged.
STEADY_SPREAD = 0.10


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)

    root = HERE.parent
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    bounds = {metric["name"]: metric.get("bound") for metric in benchmark["end_to_end"]}

    values = {}
    failed_runs = 0
    for run in range(args.runs):
        seed = args.first_seed + run
        command = benchmark["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        completed = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if completed.returncode != 0 or not result.get("correct"):
            failed_runs += 1
            print(f"seed {seed}: run failed (exit {completed.returncode})", completed.stderr[-2000:], flush=True)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # The raw figures beside the scaled ones, for choosing between them.
        detail = json.loads(lines[-2]).get("detail", {}) if len(lines) > 1 else {}
        for name, value in detail.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values.setdefault(f"detail.{name}", []).append(value)
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    flagged = []
    print(f"\n{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, q2, q3 = quartiles(series)
        share = spread(series)
        bound = bounds.get(name)
        flag = ""
        if name in bounds and share > STEADY_SPREAD:
            flag = "  <- spread above a tenth"
            flagged.append(name)
        bound_text = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:44} {q2:12.6g} {q1:12.6g} {q3:12.6g} {share:8.3f} {bound_text:>6}{flag}")
    return 1 if failed_runs or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
