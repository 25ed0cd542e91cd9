"""Per-layer self time, measured from outside the program.

:class:`LayerTracer` replaces public entry points of each layer with
wrappers that time the call and subtract the time of wrapped calls nested
inside it on the same thread, giving each layer's *self* time.  Times are
thread CPU seconds (``time.thread_time``): the default thread executor runs
two GIL-bound workers whose wall-clock intervals overlap, so wall-clock
spans on different threads would count the same second twice, while the
CPU time of each thread adds up to the work actually done.

The patched names are the ones the program calls through: functions a
module imported by name are patched in the importing module's namespace
(``repro.core.eve.compute_distance_index``, ``repro.service.engine.plan_batch``
and so on), methods on their class.

Only layer entry points are wrapped, never a frame that encloses every
other one (``SPGEngine.run_batch``, the executor's task wrapper, or
``EVE.query``, which is only counted).  Time no layer claims therefore
stays unattributed, so ``trace.coverage`` can fall short of one.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "BATCH_ENTRY_POINTS", "SERVER_ENTRY_POINTS", "PHASE_LAYERS"]

#: The five EVE phases as layers (ordering is timed with verification).
PHASE_LAYERS = ("core.distances", "core.essential", "core.labeling", "core.verification")

#: Layers whose calls are only counted: ``SpaceMeter.allocate`` runs some
#: 200 times per query, and timing each call would double the trace overhead;
#: its time stays in the self time of the phase that called it.
#: ``EVE.query`` encloses all five phases; its count is the number of
#: queries the core computed.
COUNT_ONLY_LAYERS = ("core.space", "core.eve")

#: ``(module, attribute path, layer)`` for every wrapped entry point.
BATCH_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.engine", "SPGEngine.apply_delta", "service.engine.apply_delta"),
    ("repro.service.engine", "plan_batch", "service.planner"),
    ("repro.service.executor", "SerialBackend.run", "service.executor"),
    ("repro.service.executor", "ThreadBackend.run", "service.executor"),
    ("repro.service.executor", "ProcessBackend.run", "service.executor"),
    ("repro.service.executor", "AsyncBackend.run", "service.executor"),
    ("repro.service.cache", "ResultCache.get", "service.cache"),
    ("repro.service.cache", "ResultCache.put", "service.cache"),
    ("repro.core.eve", "EVE.query", "core.eve"),
    ("repro.core.eve", "compute_distance_index", "core.distances"),
    ("repro.service.engine", "backward_distance_map", "core.distances"),
    ("repro.core.eve", "propagate_forward", "core.essential"),
    ("repro.core.eve", "propagate_backward", "core.essential"),
    ("repro.core.eve", "compute_upper_bound", "core.labeling"),
    ("repro.core.eve", "prepare_verification", "core.verification"),
    ("repro.core.verification", "PreparedVerification.apply_search_ordering", "core.verification"),
    ("repro.core.verification", "PreparedVerification.verify", "core.verification"),
    ("repro.core.space", "SpaceMeter.allocate", "core.space"),
    ("repro.service.engine", "apply_graph_delta", "graph.delta"),
    ("repro.graph.digraph", "DiGraph.csr", "graph.csr"),
    ("repro.graph.digraph", "DiGraph.csr_reverse", "graph.csr"),
    ("repro.graph.io", "load_graph", "graph.load"),
)

#: The server adds the HTTP layers and loads its graph through the CLI.
SERVER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = BATCH_ENTRY_POINTS + (
    ("repro.service.http.__main__", "load_graph", "graph.load"),
    ("repro.service.http.admission", "AdmissionController.try_admit", "service.http.admission"),
    ("repro.service.http.admission", "AdmissionController.release", "service.http.admission"),
)


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class LayerTracer:
    """Self time and call counts per layer, plus named counters."""

    def __init__(self, entry_points: Tuple[Tuple[str, str, str], ...]) -> None:
        self._local = threading.local()
        self._lock = threading.RLock()  # re-entered from a signal handler in the server
        self._per_thread: List[Dict[str, List[float]]] = []
        self._counters: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object, object]] = []
        for module_name, path, layer in entry_points:
            owner, name = _resolve(module_name, path)
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            adapt = _ADAPTERS.get(path)
            timed = adapt(self, original) if adapt is not None else original
            wrap = self._wrap_counting if layer in COUNT_ONLY_LAYERS else self._wrap
            self._patches.append((owner, name, original, wrap(timed, layer)))

    # ------------------------------------------------------------------
    def _thread_state(self) -> Tuple[List[List[float]], Dict[str, List[float]]]:
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack = []
            local.totals = {}
            with self._lock:
                self._per_thread.append(local.totals)
            return local.stack, local.totals

    def _wrap(self, function: Callable, layer: str) -> Callable:
        thread_time = time.thread_time
        state = self._thread_state

        def wrapper(*args, **kwargs):
            stack, totals = state()
            frame = [0.0]
            stack.append(frame)
            started = thread_time()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = thread_time() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = totals.get(layer)
                if entry is None:
                    entry = totals[layer] = [0.0, 0]
                entry[0] += elapsed - frame[0]
                entry[1] += 1

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", layer)
        return wrapper

    def _wrap_counting(self, function: Callable, layer: str) -> Callable:
        state = self._thread_state

        def wrapper(*args, **kwargs):
            totals = state()[1]
            entry = totals.get(layer)
            if entry is None:
                entry = totals[layer] = [0.0, 0]
            entry[1] += 1
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    # ------------------------------------------------------------------
    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{"self_seconds": {layer: s}, "calls": {layer: n}, "counters": {...}}``."""
        self_seconds: Dict[str, float] = {}
        calls: Dict[str, float] = {}
        with self._lock:
            tables = list(self._per_thread)
            counters = dict(self._counters)
        for totals in tables:
            for layer, (seconds, count) in list(totals.items()):
                self_seconds[layer] = self_seconds.get(layer, 0.0) + seconds
                calls[layer] = calls.get(layer, 0) + count
        return {"self_seconds": self_seconds, "calls": calls, "counters": counters}

    @staticmethod
    def difference(after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]):
        """Per-key ``after - before`` of two :meth:`snapshot` results."""
        return {
            table: {
                key: value - before.get(table, {}).get(key, 0.0)
                for key, value in after[table].items()
            }
            for table in after
        }


# ----------------------------------------------------------------------
# Entry points whose return value or arguments carry a layer counter.
# ----------------------------------------------------------------------
def _count_upper_bound(tracer: LayerTracer, original: Callable) -> Callable:
    def compute_upper_bound(*args, **kwargs):
        upper = original(*args, **kwargs)
        tracer.count("labeling.undetermined_edges", len(upper.undetermined_edges))
        tracer.count(
            "labeling.upper_bound_edges",
            len(upper.undetermined_edges) + len(upper.definite_edges),
        )
        return upper

    return compute_upper_bound


def _count_expansions(tracer: LayerTracer, original: Callable) -> Callable:
    from repro.core.verification import VerificationStats

    def verify(self, space=None, stats: Optional[object] = None):
        counted = stats if stats is not None else VerificationStats()
        result = original(self, space=space, stats=counted)
        tracer.count("verification.expansions", counted.expansions)
        return result

    return verify


_ADAPTERS = {
    "compute_upper_bound": _count_upper_bound,
    "PreparedVerification.verify": _count_expansions,
}
