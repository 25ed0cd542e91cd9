"""The ``serve-mixed`` workload: online fraud screening with writes beside reads.

A seeded transaction snapshot is written as an edge file and served by
``python -m repro.service.http --edges FILE --port 0`` in a subprocess with
default flags.  One load-generating process (this one) drives it in an open
loop over at most ``nproc`` keep-alive connections: queries at a fixed rate,
drawn Zipf-style from a pool three times the size of the server's 1024-entry
cache, and ``POST /mutate`` deltas at a fixed rate.  Each request is timed
from the moment it was due, so a stall also counts against the requests
queued behind it.

The load runs in segments; between two segments the generator lets every
in-flight request finish and times the speed reference, which brackets each
segment the way it brackets a ``run_batch`` chunk.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    Tally,
    WorkloadResult,
    median,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    tail_percentile,
)
from inputs import serve_inputs, write_edge_file
from layers import PHASE_LAYERS
from oracle import enumerated_spg
from speed import SpeedReference

__all__ = ["run_serve_workload"]

#: Offered load: well below saturation (the server spends ~2 ms of CPU per
#: request, so this keeps it near a fifth busy).
QUERY_RATE = 100.0
MUTATE_RATE = 4.0
#: Load between two speed probes.
SEGMENT_SECONDS = 0.25
#: Unmeasured load before the window: fills the cache, warms the pool.
WARMUP_SECONDS = 2.0
#: Server spawns per run; ``setup_s`` is their median.
SETUP_BUILDS = 15
#: Pool queries audited against the final graph after the window.
AUDIT_SAMPLE = 30
STARTUP_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 30.0

Edge = Tuple[int, int]


# ----------------------------------------------------------------------
# A minimal HTTP/1.1 client owned by the benchmark, so the measuring side
# does not change when the program's own client does.
# ----------------------------------------------------------------------
class _Connection:
    def __init__(self, port: int) -> None:
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection("127.0.0.1", self._port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            await self.close()
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length, close = 0, False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None


async def _get(port: int, path: str) -> Tuple[int, bytes]:
    connection = _Connection(port)
    try:
        return await connection.request("GET", path)
    finally:
        await connection.close()


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
class _Server:
    """One server subprocess: spawned, waited healthy, stopped and reaped."""

    def __init__(self, root: Path, edge_file: Path, traced: bool, layers_out: Optional[Path], log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        args = ["--edges", str(edge_file), "--port", "0"]
        if traced:
            env["SPGBENCH_LAYERS_OUT"] = str(layers_out)
            command = [sys.executable, str(root / "spgbench" / "traced_server.py")] + args
        else:
            command = [sys.executable, "-m", "repro.service.http"] + args
        self._log = log
        self.port = 0
        self.started = time.perf_counter()
        with open(log, "w") as stderr:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=stderr
            )

    async def wait_healthy(self) -> float:
        """Seconds from spawn to the first ``200`` from ``/healthz``."""
        deadline = time.perf_counter() + STARTUP_TIMEOUT
        while time.perf_counter() < deadline and self.process.poll() is None:
            if not self.port:
                for line in self._log.read_text().splitlines():
                    if line.startswith("serving on http://"):
                        self.port = int(line.rsplit(":", 1)[1])
            if self.port:
                try:
                    status, _ = await _get(self.port, "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return time.perf_counter() - self.started
            await asyncio.sleep(0.002)
        raise RuntimeError(f"server never became healthy: {self._log.read_text()[-2000:]}")

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> int:
        """Drain via SIGTERM; kill if the drain overruns.  Returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(SHUTDOWN_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
class _Load:
    """Open-loop traffic against one server, with its outcomes."""

    def __init__(self, server: _Server, inputs, seed: int, tally: Tally, corrupt: int) -> None:
        self.server = server
        self.inputs = inputs
        self.rng = random.Random(seed ^ 0x10AD)
        self.tally = tally
        self.corrupt = corrupt
        self.connections: asyncio.Queue = asyncio.Queue()
        for _ in range(max(1, len(os.sched_getaffinity(0)))):
            self.connections.put_nowait(_Connection(server.port))
        self.next_delta = 0
        self.applied: List[int] = []
        self.measuring = False
        # (segment index, milliseconds from due time to reply)
        self.query_ms: List[Tuple[int, float]] = []
        self.mutate_ms: List[Tuple[int, float]] = []
        self.lag_ms: List[float] = []
        self.answered = 0
        self.segments: List[Tuple[float, float, float, int]] = []  # (raw cpu, ref, wall, answered)

    async def _send(self, path: str, body: bytes, due: float) -> Tuple[int, bytes, float]:
        connection = await self.connections.get()
        try:
            lag = time.perf_counter() - due
            status, payload = await connection.request("POST", path, body)
        finally:
            self.connections.put_nowait(connection)
        if self.measuring:
            self.lag_ms.append(lag * 1000.0)
        return status, payload, time.perf_counter() - due

    async def _query(self, due: float) -> None:
        total = self.inputs.zipf_cumulative[-1]
        source, target, k = self.inputs.pool[
            bisect.bisect_left(self.inputs.zipf_cumulative, self.rng.random() * total)
        ]
        body = json.dumps({"source": source, "target": target, "k": k}).encode()
        try:
            status, payload, latency = await self._send("/query", body, due)
            record = json.loads(payload) if status == 200 else {}
        except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
            self.tally.fail(f"query {source}->{target}: {exc!r}")
            return
        ok = status == 200 and record.get("ok") is True and record.get("exact") is True
        if self.tally.check(ok, f"query {source}->{target}: HTTP {status} {record.get('error', '')}"):
            self.answered += 1
            if self.measuring:
                self.query_ms.append((len(self.segments), latency * 1000.0))

    async def _mutate(self, due: float) -> None:
        index = self.next_delta
        self.next_delta += 1
        delta = self.inputs.deltas[index]
        body = json.dumps(
            {key: [[str(u), str(v)] for u, v in edges] for key, edges in delta.items()}
        ).encode()
        try:
            status, payload, latency = await self._send("/mutate", body, due)
            report = json.loads(payload) if status == 200 else {}
        except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
            self.tally.fail(f"delta {index}: {exc!r}")
            return
        ok = (
            status == 200
            and report.get("noop") is False
            and report.get("inserted") == len(delta["insert"])
            and report.get("deleted") == len(delta["delete"])
        )
        if self.tally.check(ok, f"delta {index}: HTTP {status} {report}"):
            self.applied.append(index)
            if self.measuring:
                self.mutate_ms.append((len(self.segments), latency * 1000.0))

    async def segment(self, seconds: float) -> None:
        """``seconds`` of open-loop load, then wait for every reply."""
        start = time.perf_counter()
        events = [(start + i / QUERY_RATE, self._query) for i in range(int(seconds * QUERY_RATE))]
        # Deltas fall halfway between two queries: a delta due with a query
        # would race it to the server, and which one won would set the tail.
        events += [
            (start + (j + 0.5) / MUTATE_RATE + 0.5 / QUERY_RATE, self._mutate)
            for j in range(int(seconds * MUTATE_RATE))
        ]
        events.sort(key=lambda event: event[0])
        tasks = []
        for due, send in events:
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(send(due)))
        await asyncio.gather(*tasks)

    async def window(self, seconds: float, speed: SpeedReference) -> None:
        """The measured window: segments, each bracketed by the speed reference."""
        self.measuring = True
        before = speed.probe()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cpu, answered = proc_cpu_seconds(self.server.pid), self.answered
            started = time.perf_counter()
            await self.segment(SEGMENT_SECONDS)
            wall = time.perf_counter() - started
            cpu = proc_cpu_seconds(self.server.pid) - cpu
            after = speed.probe()
            self.segments.append((cpu, (before + after) / 2.0, wall, self.answered - answered))
            before = after
        self.measuring = False

    def latencies(self, samples: List[Tuple[int, float]], speed: Optional[SpeedReference] = None) -> List[float]:
        """Milliseconds, raw or (with ``speed``) at the reference speed of each segment."""
        if speed is None:
            return [ms for _, ms in samples]
        return [speed.scale_seconds(ms, self.segments[index][1]) for index, ms in samples]

    def answered_in_window(self) -> int:
        return sum(answered for _, _, _, answered in self.segments)

    async def close(self) -> None:
        while not self.connections.empty():
            await self.connections.get_nowait().close()

    async def audit(self, sample: List[Tuple[int, int, int]]) -> List[Tuple[Tuple[int, int, int], set]]:
        """Answers to ``sample`` after every delta, as label edge sets."""
        connection = _Connection(self.server.port)
        answers = []
        try:
            for source, target, k in sample:
                body = json.dumps({"source": source, "target": target, "k": k}).encode()
                status, payload = await connection.request("POST", "/query", body)
                record = json.loads(payload) if status == 200 else {}
                edges = {(int(u), int(v)) for u, v in record.get("edges", [])} if record.get("ok") else None
                if edges and self.corrupt > 0:
                    # Test hook: pretend the server dropped one answer edge.
                    edges.pop()
                    self.corrupt -= 1
                answers.append(((source, target, k), edges))
        finally:
            await connection.close()
        return answers


def _scrape(text: str) -> Dict[str, float]:
    """Unlabelled samples of a Prometheus exposition."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            try:
                samples[name] = float(value)
            except ValueError:
                continue
    return samples


# ----------------------------------------------------------------------
async def _serve(root: Path, seed: int, seconds: float, trace: bool, workdir: Path, corrupt: int) -> WorkloadResult:
    windows = (False, True) if trace else (False,)
    # Each window runs on a fresh server from the base graph, so deltas are
    # reused; segments overrun their nominal length, hence the margin.
    num_deltas = int((WARMUP_SECONDS + seconds / len(windows)) * MUTATE_RATE * 1.5) + 8
    inputs = serve_inputs(seed, num_deltas)
    edge_file = workdir / "transactions.txt"
    write_edge_file(edge_file, inputs.base_edges)
    speed = SpeedReference()
    tally = Tally()

    setup_raw, setup_scaled = [], []
    builds = SETUP_BUILDS if not trace else 1
    for _ in range(builds - 1):
        server, raw, reference = await _timed_spawn(root, edge_file, speed, False, None)
        tally.check(server.stop() == 0, "server exited uncleanly")
        setup_raw.append(raw)
        setup_scaled.append(speed.scale_seconds(raw, reference))

    observed = {}
    for traced in windows:
        layers_out = workdir / "layers.json"
        server, raw, reference = await _timed_spawn(root, edge_file, speed, traced, layers_out)
        setup_raw.append(raw)
        setup_scaled.append(speed.scale_seconds(raw, reference))
        load = None
        try:
            load = _Load(server, inputs, seed, tally, corrupt if not traced else 0)
            await load.segment(WARMUP_SECONDS)
            if traced:
                window_cpu = proc_cpu_seconds(server.pid)
                server.process.send_signal(signal.SIGUSR1)  # layer window starts
            await load.window(seconds / len(windows), speed)
            if traced:
                server.process.send_signal(signal.SIGUSR2)  # and ends
                window_cpu = proc_cpu_seconds(server.pid) - window_cpu
                layers = await _read_layers(layers_out)
            status, metrics_text = await _get(server.port, "/metrics")
            tally.check(status == 200, f"/metrics answered {status}")
            scraped = _scrape(metrics_text.decode())
            rss = proc_peak_rss_mb(server.pid)
            await _audit(load, inputs, seed, tally)
        finally:
            if load is not None:
                await load.close()
            code = server.stop()
        tally.check(code == 0, f"server exited with {code}")
        observed[traced] = (load, scraped, rss)

    load, scraped, rss = observed[False]
    cpu_ms_raw = 1000.0 * sum(cpu for cpu, _, _, _ in load.segments) / load.answered_in_window()
    detail: Dict[str, object] = {
        "setup_s_raw": median(setup_raw),
        "setup_s_builds_raw": setup_raw,
        "setup_s_builds_scaled": setup_scaled,
        "segments": len(load.segments),
        "queries": len(load.query_ms),
        "mutations": len(load.mutate_ms),
        "deltas_applied": len(load.applied),
    }
    if not trace:
        queries_raw, queries_scaled = load.latencies(load.query_ms), load.latencies(load.query_ms, speed)
        mutations_raw, mutations_scaled = load.latencies(load.mutate_ms), load.latencies(load.mutate_ms, speed)
        tail, p_tail = tail_percentile(queries_scaled)
        cpu_scaled = 1000.0 * sum(
            speed.scale_seconds(cpu, ref) for cpu, ref, _, _ in load.segments
        ) / load.answered_in_window()
        detail.update(
            query_tail_percentile=tail,
            query_p50_ms_raw=median(queries_raw),
            query_p50_ms_scaled=median(queries_scaled),
            query_p99_ms_raw=tail_percentile(queries_raw)[1],
            query_p99_ms_scaled=p_tail,
            mutate_p50_ms_raw=median(mutations_raw),
            mutate_p50_ms_scaled=median(mutations_scaled),
            serve_cpu_ms_raw=cpu_ms_raw,
            serve_cpu_ms_scaled=cpu_scaled,
            lag_p99_ms=tail_percentile(load.lag_ms)[1],
            cache_hit_rate=scraped.get("repro_cache_hit_ratio"),
        )
        window_seconds = sum(wall for _, _, wall, _ in load.segments)
        metrics = {
            "setup_s": (median(setup_scaled), "s"),
            "batch_qps": (load.answered_in_window() / window_seconds, "1/s"),
            "query_p50_ms": (median(queries_raw), "ms"),
            "mutate_p50_ms": (median(mutations_scaled), "ms"),
            "serve_cpu_ms": (cpu_scaled, "ms"),
            "success_rate": (tally.success_rate, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
        return WorkloadResult(metrics=metrics, tally=tally, detail=detail)

    traced_load, traced_scraped, _ = observed[True]
    metrics = _serve_layer_metrics(layers, window_cpu, traced_load, traced_scraped, speed, load)
    detail.update(self_seconds=layers["window"]["self_seconds"], calls=layers["window"]["calls"])
    return WorkloadResult(metrics=metrics, tally=tally, detail=detail)


async def _timed_spawn(root, edge_file, speed, traced, layers_out):
    before = speed.probe()
    server = _Server(root, edge_file, traced, layers_out, edge_file.with_name("server.log"))
    try:
        raw = await server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    after = speed.probe()
    return server, raw, (before + after) / 2.0


async def _read_layers(path: Path) -> Dict[str, object]:
    """The traced server's layer totals, written when it handles ``SIGUSR2``."""
    deadline = time.perf_counter() + STARTUP_TIMEOUT
    while not path.exists():
        if time.perf_counter() > deadline:
            raise RuntimeError("the traced server never wrote its layer totals")
        await asyncio.sleep(0.01)
    return json.loads(path.read_text())


async def _audit(load: _Load, inputs, seed: int, tally: Tally) -> None:
    """A seeded sample of pool queries against the base graph plus every applied delta."""
    from repro.graph.digraph import DiGraph

    final = set(inputs.base_edges)
    for index in load.applied:
        final.update(map(tuple, inputs.deltas[index]["insert"]))
        final.difference_update(map(tuple, inputs.deltas[index]["delete"]))
    graph = DiGraph(max(max(u, v) for u, v in final) + 1, final)
    sample = random.Random(seed ^ 0xA0D1).sample(inputs.pool, AUDIT_SAMPLE)
    for query, edges in await load.audit(sample):
        tally.check(
            edges is not None and edges == enumerated_spg(graph, *query),
            f"audit mismatch {query}",
        )


def _serve_layer_metrics(layers, server_cpu: float, load: _Load, scraped, speed: SpeedReference, untraced: _Load):
    """Per-layer metrics of the traced window; ``server_cpu`` spans the same window."""
    window = layers["window"]
    seconds = window["self_seconds"]
    calls = window["calls"]
    counters = window["counters"]
    answered = load.answered_in_window()
    requests = answered + len(load.mutate_ms)
    computed = calls.get("core.eve", 0)
    phase_seconds = sum(seconds.get(layer, 0.0) for layer in PHASE_LAYERS)
    attributed = sum(seconds.values())

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_call_ms(layer: str) -> float:
        return ratio(seconds.get(layer, 0.0) * 1000.0, calls.get(layer, 0))

    hits = scraped.get("repro_cache_hits_total", 0.0)
    misses = scraped.get("repro_cache_misses_total", 0.0)
    retained = scraped.get("repro_cache_entries_retained_total", 0.0)
    invalidated = scraped.get("repro_cache_entries_invalidated_total", 0.0)
    admitted = scraped.get("repro_http_requests_admitted_total", 0.0)
    shed = scraped.get("repro_http_requests_shed_total", 0.0)
    reuses = scraped.get("repro_scratch_reuses_total", 0.0)
    allocations = scraped.get("repro_scratch_allocations_total", 0.0)
    traced_cpu = ratio(sum(speed.scale_seconds(c, r) for c, r, _, _ in load.segments), answered)
    untraced_cpu = ratio(
        sum(speed.scale_seconds(c, r) for c, r, _, _ in untraced.segments), untraced.answered_in_window()
    )
    return {
        "query_p99_ms": (tail_percentile(untraced.latencies(untraced.query_ms, speed))[1], "ms"),
        "core.distances.ms_per_query": (ratio(seconds.get("core.distances", 0.0) * 1000.0, computed), "ms"),
        "core.essential.ms_per_query": (ratio(seconds.get("core.essential", 0.0) * 1000.0, computed), "ms"),
        "core.labeling.ms_per_query": (ratio(seconds.get("core.labeling", 0.0) * 1000.0, computed), "ms"),
        "core.labeling.undetermined_ratio": (
            ratio(counters.get("labeling.undetermined_edges", 0.0), counters.get("labeling.upper_bound_edges", 0.0)),
            "ratio",
        ),
        "core.verification.ms_per_query": (ratio(seconds.get("core.verification", 0.0) * 1000.0, computed), "ms"),
        "core.verification.expansions_per_query": (ratio(counters.get("verification.expansions", 0.0), computed), "count"),
        "core.space.allocate_calls_per_query": (ratio(calls.get("core.space", 0), computed), "count"),
        # No run_batch wall time to split here: the server's CPU outside the phases.
        "service.engine.overhead_share": (ratio(server_cpu - phase_seconds, server_cpu), "ratio"),
        "service.planner.shared_backward_ratio": (
            ratio(scraped.get("repro_shared_backward_reuses_total", 0.0), misses),
            "ratio",
        ),
        "service.executor.dispatch_ms_per_batch": (per_call_ms("service.executor"), "ms"),
        "service.scratch.reuse_ratio": (ratio(reuses, reuses + allocations), "ratio"),
        "service.cache.hit_rate": (ratio(hits, hits + misses), "ratio"),
        "service.cache.retention_ratio": (ratio(retained, retained + invalidated), "ratio"),
        "graph.delta.apply_ms": (per_call_ms("graph.delta"), "ms"),
        "service.engine.apply_delta_ms": (per_call_ms("service.engine.apply_delta"), "ms"),
        "graph.load_s": (layers["setup"]["self_seconds"].get("graph.load", 0.0), "s"),
        "graph.csr_build_s": (layers["setup"]["self_seconds"].get("graph.csr", 0.0), "s"),
        "service.http.request_self_ms": (ratio((server_cpu - phase_seconds) * 1000.0, requests), "ms"),
        "service.http.coalescer.wait_ms": (
            ratio(counters.get("coalescer.wait_seconds", 0.0) * 1000.0, counters.get("coalescer.queries", 0.0)),
            "ms",
        ),
        "service.http.coalescer.queries_per_flush": (
            ratio(counters.get("coalescer.queries", 0.0), counters.get("coalescer.flushes", 0.0)),
            "count",
        ),
        "service.http.admission.shed_ratio": (ratio(shed, shed + admitted), "ratio"),
        "service.http.admission.queue_peak": (scraped.get("repro_http_queue_depth_peak", 0.0), "count"),
        "loadgen.lag_p99_ms": (tail_percentile(load.lag_ms)[1], "ms"),
        "trace.coverage": (ratio(attributed, server_cpu), "ratio"),
        "trace.overhead_share": (ratio(traced_cpu, untraced_cpu) - 1.0, "ratio"),
    }


def run_serve_workload(seed: int, seconds: float, trace: bool, workdir: Path, corrupt: int) -> WorkloadResult:
    root = Path(__file__).resolve().parent.parent
    return asyncio.run(_serve(root, seed, seconds, trace, workdir, corrupt))
