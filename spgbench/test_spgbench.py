"""The benchmark's own tests: answer checking, failure exits, statistics.

Run from the root of a checkout::

    python3 -m pytest spgbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import Tally, quartiles, tail_percentile  # noqa: E402
from speed import SpeedReference  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "spgbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["batch-deep", "serve-mixed"])
def test_corrupted_answer_fails_the_run(workload):
    completed = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--corrupt", "1")
    result = _result(completed)
    assert completed.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_clean_run_passes_and_prints_every_metric():
    completed = _run("--workload", "batch-deep", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _result(completed)
    assert completed.returncode == 0, completed.stderr
    assert result["correct"] is True and result["failed"] == 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {metric["name"] for metric in benchmark["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert result["metrics"]["success_rate"]["value"] == 1.0


def test_traced_run_prints_every_per_layer_metric():
    completed = _run("--workload", "batch-deep", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    result = _result(completed)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {metric["name"] for metric in benchmark["per_layer"]}
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_without_program_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "spgbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run("--workload", "batch-wide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 201))
    percentile, value = tail_percentile(values, 99.0)
    assert percentile == 95.0
    assert sum(1 for v in values if v > value) >= 10
    assert tail_percentile(list(range(2000)), 99.0)[0] == 99.0


def test_quartiles_match_statistics_module():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_tally_counts_failures():
    tally = Tally()
    tally.check(True, "fine")
    tally.check(False, "broken")
    assert (tally.attempted, tally.failed, tally.reasons) == (2, 1, ["broken"])
    assert tally.success_rate == 0.5


def test_speed_reference_scales_by_probe():
    speed = SpeedReference()
    assert speed.probe() > 0
    nominal = SpeedReference.NOMINAL_SECONDS
    assert speed.scale_seconds(2.0, 2 * nominal) == pytest.approx(1.0)
    result, raw, reference = speed.bracket(lambda: 42)
    assert result == 42 and raw >= 0 and reference > 0
