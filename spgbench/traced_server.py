"""Launch ``python -m repro.service.http`` with the layer wrappers installed.

The traced ``serve-mixed`` run starts the server through this launcher
instead of ``-m repro.service.http``; it takes the same arguments.  It
wraps the entry points of :data:`layers.SERVER_ENTRY_POINTS` plus the
coalescer hand-off, then runs the CLI's ``main``.  ``SIGUSR1`` marks the
start of the measured window and ``SIGUSR2`` its end, before the benchmark
scrapes ``/metrics`` and audits answers.  At the end mark the layer totals
at the start mark (``setup``) and over the window (``window``) are written
as JSON to ``$SPGBENCH_LAYERS_OUT``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import SERVER_ENTRY_POINTS, LayerTracer  # noqa: E402


def _time_coalescer(tracer: LayerTracer) -> None:
    """Count each query's wait in the coalescer: submit to its batch's start."""
    from repro.service.engine import SPGEngine
    from repro.service.http.coalescer import QueryCoalescer

    submitted = {}
    submit = QueryCoalescer.submit
    run_batch_async = SPGEngine.run_batch_async

    async def timed_submit(self, query):
        submitted[id(query)] = time.perf_counter()
        try:
            return await submit(self, query)
        finally:
            submitted.pop(id(query), None)

    def timed_run_batch_async(self, queries, *args, **kwargs):
        now = time.perf_counter()
        queries = list(queries)
        waited = [now - submitted[id(q)] for q in queries if id(q) in submitted]
        tracer.count("coalescer.flushes", 1)
        tracer.count("coalescer.queries", len(waited))
        tracer.count("coalescer.wait_seconds", sum(waited))
        return run_batch_async(self, queries, *args, **kwargs)

    QueryCoalescer.submit = timed_submit
    SPGEngine.run_batch_async = timed_run_batch_async


def main() -> int:
    from repro.service.http.__main__ import main as serve

    tracer = LayerTracer(SERVER_ENTRY_POINTS)
    tracer.install()
    _time_coalescer(tracer)
    marks = {}

    def end_window(*_) -> None:
        end = tracer.snapshot()
        setup = marks.get("setup", end)
        out = Path(os.environ["SPGBENCH_LAYERS_OUT"])
        partial = out.with_name(out.name + ".partial")
        partial.write_text(json.dumps({"setup": setup, "window": LayerTracer.difference(end, setup)}))
        partial.replace(out)  # the benchmark waits for this name

    signal.signal(signal.SIGUSR1, lambda *_: marks.setdefault("setup", tracer.snapshot()))
    signal.signal(signal.SIGUSR2, end_window)
    return serve(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
