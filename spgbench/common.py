"""Helpers shared by the benchmark's workloads: statistics, outcome tally, procfs."""

from __future__ import annotations

import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "Tally",
    "WorkloadResult",
    "median",
    "quartiles",
    "tail_percentile",
    "peak_rss_mb",
    "proc_cpu_seconds",
    "proc_peak_rss_mb",
]


median = statistics.median


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)`` cuts them."""
    if len(values) < 2:
        value = values[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: Sequence[float], wanted: float = 99.0) -> Tuple[float, float]:
    """The highest percentile up to ``wanted`` with at least ten samples beyond it.

    Returns ``(percentile, value)``.  With fewer than 11 samples this falls
    back to the median.
    """
    ordered = sorted(values)
    count = len(ordered)
    percentile = wanted
    while percentile > 50.0 and count * (1.0 - percentile / 100.0) < 10.0:
        percentile -= 1.0
    percentile = max(percentile, 50.0)
    index = min(count - 1, int(round(percentile / 100.0 * (count - 1))))
    return percentile, ordered[index]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode("ascii", "replace")
    # The command name is parenthesised and may contain spaces.
    fields = raw[raw.rindex(")") + 2:].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.attempted += 1
        else:
            self.fail(reason)
        return condition

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


@dataclass
class WorkloadResult:
    """What one run reports: metrics by name, the tally, and raw detail."""

    metrics: Dict[str, Tuple[float, str]]
    tally: Tally
    detail: Dict[str, object] = field(default_factory=dict)
