"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 spgbench/run.py --workload batch-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that wraps each layer's entry points and
prints the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment and the raw figures behind each scaled one.  The exit code
is 0 only when every checked answer was right and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch-wide", "batch-deep", "serve-mixed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt",
        type=int,
        default=0,
        help="test hook: drop one edge from this many received answers before checking",
    )
    return parser


def _hermetic_environment() -> None:
    """The program sees only the generated inputs and its default config."""
    for name in ("REPRO_EXECUTOR_BACKEND", "REPRO_SHARD_COUNT"):
        os.environ.pop(name, None)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {source}")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    _hermetic_environment()
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    print(json.dumps({"environment": environment}), flush=True)
    workdir = Path(tempfile.mkdtemp(prefix=".spgbench-", dir=ROOT))
    try:
        if args.workload == "serve-mixed":
            from serve import run_serve_workload

            result = run_serve_workload(args.seed, args.seconds, bool(args.trace), workdir, args.corrupt)
        else:
            from batch import run_batch_workload

            result = run_batch_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.corrupt
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = result.tally
    print(json.dumps({"detail": result.detail, "failures": tally.reasons}, default=str), flush=True)
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
