"""Fixed pure-Python speed reference that brackets every timed chunk.

On a shared host the CPU speed a Python process gets drifts by tens of
percent between windows of a few seconds, and CPU time drifts with it.
Scaling a run once by a reference sampled at its start still left 24%
between windows; timing the reference right before and after each chunk of
about a tenth of a second of work cut that to 9%.  So every timed chunk is
bracketed here, and a timing is reported both raw and "at reference speed":
``raw * NOMINAL_SECONDS / reference``, where ``reference`` is the mean of
the two bracketing probes.

The reference is a breadth-first search over a list-of-lists graph built
from a fixed seed, so it does the same pointer-chasing, small-int and list
work as the program's graph kernels, and it never changes with ``--seed``.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, List, Tuple, TypeVar

__all__ = ["SpeedReference"]

T = TypeVar("T")

#: Seed and size of the reference graph; fixed so every run probes the same
#: work.  Changing any of them would rescale every recorded figure.
_REFERENCE_SEED = 20230901
_REFERENCE_VERTICES = 3000
_REFERENCE_DEGREE = 4
_REFERENCE_SOURCES = 2


class SpeedReference:
    """A seeded list-of-lists BFS, timed around each measured chunk."""

    #: About one probe at full speed on a 2-core x86-64 host under CPython
    #: 3.11.  It only sets the unit of scaled values, so it never needs
    #: re-tuning; changing it would rescale every recorded figure.
    NOMINAL_SECONDS = 0.0015

    def __init__(self) -> None:
        rng = random.Random(_REFERENCE_SEED)
        self._adjacency = [
            [rng.randrange(_REFERENCE_VERTICES) for _ in range(_REFERENCE_DEGREE)]
            for _ in range(_REFERENCE_VERTICES)
        ]
        self._sources = [rng.randrange(_REFERENCE_VERTICES) for _ in range(_REFERENCE_SOURCES)]
        self._expected = None
        self._expected = self._search()
        for _ in range(3):  # warm the interpreter's caches before the first timed probe
            self._search()

    def _search(self) -> int:
        adjacency = self._adjacency
        reached = 0
        for source in self._sources:
            seen = [False] * len(adjacency)
            seen[source] = True
            frontier = [source]
            while frontier:
                following = []
                for vertex in frontier:
                    for neighbor in adjacency[vertex]:
                        if not seen[neighbor]:
                            seen[neighbor] = True
                            following.append(neighbor)
                reached += len(following)
                frontier = following
        if self._expected is not None and reached != self._expected:
            raise RuntimeError("speed reference returned a different answer")
        return reached

    def probe(self) -> float:
        """Seconds one reference search takes right now."""
        started = time.perf_counter()
        self._search()
        return time.perf_counter() - started

    def chain(self, works: Iterable[Callable[[], T]]) -> List[Tuple[T, float, float]]:
        """Run each of ``works`` with one probe before, between and after them.

        Returns ``(result, raw seconds of the work, reference seconds)`` per
        work, where the reference is the mean of the probes on either side.
        """
        timed = []
        before = self.probe()
        for work in works:
            started = time.perf_counter()
            result = work()
            raw = time.perf_counter() - started
            after = self.probe()
            timed.append((result, raw, (before + after) / 2.0))
            before = after
        return timed

    def bracket(self, work: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``work`` between two probes; see :meth:`chain`."""
        return self.chain([work])[0]

    def scale_seconds(self, raw: float, reference: float) -> float:
        """``raw`` seconds expressed at reference speed."""
        return raw * self.NOMINAL_SECONDS / reference
