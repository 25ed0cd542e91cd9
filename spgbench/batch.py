"""The ``batch-wide`` and ``batch-deep`` workloads.

Both cycle through several seeded batches with
``SPGEngine.from_config(graph)`` (default config) and ``run_batch``,
clearing the result cache before each timed pass so every pass computes
every query.  A pass answers its batch in chunks of about a tenth of a
second, each bracketed by the speed reference.  After each pass a few fresh
deltas are applied to separate probe engines over the same graph, each
holding a copy of the pass's cached answers, which times the mutation path
with its cache invalidation without changing what the passes answer, and a few
single queries are timed one at a time for the latency metrics.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

from common import Tally, WorkloadResult, median, peak_rss_mb, tail_percentile
from inputs import batch_inputs, write_edge_file
from layers import BATCH_ENTRY_POINTS, PHASE_LAYERS, LayerTracer
from oracle import bounded_enumeration_check, enumerated_spg, reference_spg
from speed import SpeedReference

__all__ = ["run_batch_workload"]

#: Engine builds per run; ``setup_s`` is their median.  The small
#: ``batch-deep`` graph builds in ~10 ms, so it takes more builds to be steady.
SETUP_BUILDS = {"batch-wide": 5, "batch-deep": 21}
#: Queries per ``run_batch`` call: a batch is answered in chunks of about a
#: tenth of a second, each bracketed by the speed reference (a whole 1 s pass
#: left twice the run-to-run spread on ``batch-deep``).  Chunks of 25 keep
#: the 5-query target groups of ``batch-wide`` whole.
CHUNK_QUERIES = {"batch-wide": 25, "batch-deep": 2}
#: Queries per run checked against the independent oracle.
ORACLE_SAMPLE = {"batch-wide": 20, "batch-deep": 2}
#: Fresh deltas applied to a probe engine after each pass.
MUTATIONS_PER_PASS = 3
#: Single queries timed after each pass, in rotation over the latency panel.
#: In a batch the engine's per-query latency mostly shows how the two GIL-bound
#: worker threads happened to interleave (a 12% run-to-run spread for its
#: median on ``batch-wide``), so latency is measured one query at a time.
LATENCY_PROBES_PER_PASS = {"batch-wide": 40, "batch-deep": 4}
#: Latency panel queries added to the oracle sample.
PANEL_ORACLE_SAMPLE = {"batch-wide": 5, "batch-deep": 1}
#: Seconds of enumeration per ``batch-deep`` oracle query.
DEEP_ENUMERATION_BUDGET = 0.3

Edge = Tuple[int, int]


class _Answers:
    """Answers of each batch's first pass, and the check of every later pass."""

    def __init__(self, tally: Tally, corrupt: int) -> None:
        self.tally = tally
        self.expected: List[List[Set[Edge]]] = []
        self._corrupt = corrupt

    def record(self, report) -> None:
        expected = []
        for outcome in report:
            edges = set(outcome.edges)
            self.tally.check(
                outcome.ok and bool(edges),
                f"first pass {outcome.source}->{outcome.target}: {outcome.error or 'empty answer'}",
            )
            expected.append(edges)
        self.expected.append(expected)

    def check(self, batch_index: int, report) -> None:
        expected = self.expected[batch_index]
        if len(report) != len(expected):
            self.tally.fail("pass returned a different number of outcomes")
        for outcome, edges_expected in zip(report, expected):
            edges = outcome.edges
            if self._corrupt > 0 and edges:
                # Test hook: pretend the program dropped one answer edge.
                edges = set(edges)
                edges.pop()
                self._corrupt -= 1
            self.tally.check(
                outcome.ok and edges == edges_expected,
                f"answer changed between passes {outcome.source}->{outcome.target}",
            )


def _build(edge_file: Path, first_query):
    from repro.graph.io import load_graph
    from repro.service.engine import SPGEngine

    graph, builder = load_graph(edge_file)
    engine = SPGEngine.from_config(graph)
    to_id = builder.vertex_id
    report = engine.run_batch([(to_id(str(first_query[0])), to_id(str(first_query[1])), first_query[2])])
    return engine, builder, report


def _check_oracle(workload: str, inputs, answers: _Answers, panel_answers, to_label, seed: int, tally: Tally) -> None:
    rng = random.Random(seed ^ 0x5EED)
    positions = [(b, q) for b, batch in enumerate(inputs.batches) for q in range(len(batch))]
    sample = [(inputs.batches[b][q], answers.expected[b][q]) for b, q in rng.sample(positions, ORACLE_SAMPLE[workload])]
    sample += [
        (inputs.panel[i], panel_answers[i])
        for i in rng.sample(sorted(panel_answers), min(len(panel_answers), PANEL_ORACLE_SAMPLE[workload]))
    ]
    for (source, target, k), edges in sample:
        answer = {(to_label(u), to_label(v)) for u, v in edges}
        if workload == "batch-wide":
            ok = enumerated_spg(inputs.graph, source, target, k) == answer
        else:
            ok = bounded_enumeration_check(
                inputs.graph, source, target, k, answer, DEEP_ENUMERATION_BUDGET
            ) and reference_spg(inputs.graph, source, target, k) == answer
        tally.check(ok, f"oracle mismatch {source}->{target} k={k}")


#: Fields of one pass record.
WALL_RAW, WALL_SCALED, CPU_RAW, CPU_SCALED = range(4)


def _per_round(passes: Dict[int, List[Tuple[float, float, float, float]]], field: int) -> float:
    """Sum over batches of each batch's median pass ``field``."""
    return sum(median([run[field] for run in runs]) for runs in passes.values())


def _per_panel_query(latencies: Dict[int, List[Tuple[float, float]]], scaled: bool) -> List[float]:
    """One latency per panel query (its median over repeats), so the tail is
    set by ten different queries, not one slow query seen ten times."""
    return [median([run[1] if scaled else run[0] for run in runs]) for runs in latencies.values()]


def _panel_tail(latencies: Dict[int, List[Tuple[float, float]]]) -> float:
    """``query_p99_ms``: the tail of the panel at reference speed."""
    return tail_percentile(_per_panel_query(latencies, scaled=True))[1]


def _mutate(engine, delta, tally: Tally, speed: SpeedReference) -> Tuple[float, float]:
    """Apply one fresh delta to a probe engine over the served graph.

    The probe engine shares the graph and starts with a copy of the served
    engine's cache (the last pass's answers), so the timed ``apply_delta``
    includes the scoped cache invalidation.  The timed batch passes keep
    answering the unchanged graph.
    """
    from repro.graph.delta import GraphDelta
    from repro.service.engine import SPGEngine

    probe = SPGEngine.from_config(engine.graph)
    try:
        entries = engine.cache.items()
        for key, result in entries:
            probe.cache.put(key, result)
        report, raw, reference = speed.bracket(
            lambda: probe.apply_delta(GraphDelta(inserts=delta["insert"], deletes=delta["delete"]))
        )
    finally:
        probe.close()
    tally.check(
        not report.noop and report.inserted == len(delta["insert"]) and report.deleted == len(delta["delete"]),
        f"delta {delta} was not applied",
    )
    tally.check(
        bool(entries) and report.cache_invalidated + report.cache_retained == len(entries),
        f"delta {delta} did not account for every cached answer",
    )
    return raw, reference


def run_batch_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, corrupt: int) -> WorkloadResult:
    inputs = batch_inputs(workload, seed)
    edge_file = workdir / "graph.txt"
    write_edge_file(edge_file, inputs.edges)
    speed = SpeedReference()
    tally = Tally()
    tracer = LayerTracer(BATCH_ENTRY_POINTS) if trace else None

    # Set-up: edge file -> first answered query, several times.
    setup_raw, setup_scaled, setup_layers = [], [], []
    engine = builder = None
    for _ in range(SETUP_BUILDS[workload]):
        if engine is not None:
            engine.close()
        if tracer is not None:
            before = tracer.snapshot()
            tracer.install()
        (engine, builder, report), raw, reference = speed.bracket(
            lambda: _build(edge_file, inputs.setup_query)
        )
        if tracer is not None:
            tracer.uninstall()
            setup_layers.append(LayerTracer.difference(tracer.snapshot(), before))
        tally.check(report.num_ok == 1 and bool(report.outcomes[0].edges), "set-up query failed")
        setup_raw.append(raw)
        setup_scaled.append(speed.scale_seconds(raw, reference))

    to_id = builder.vertex_id
    batches = [[(to_id(str(s)), to_id(str(t)), k) for s, t, k in batch] for batch in inputs.batches]
    labels = [int(builder.vertex_label(vertex)) for vertex in range(engine.graph.num_vertices)]
    deltas = [
        {key: [(to_id(str(u)), to_id(str(v))) for u, v in edges] for key, edges in delta.items()}
        for delta in inputs.deltas
    ]
    answers = _Answers(tally, corrupt)
    # passes[traced][batch index] = [(wall raw, wall scaled, CPU raw, CPU scaled), ...] in seconds
    passes: Dict[bool, Dict[int, List[Tuple[float, float, float, float]]]] = {False: {}, True: {}}
    panel = [(to_id(str(s)), to_id(str(t)), k) for s, t, k in inputs.panel]
    panel_answers: Dict[int, Set[Edge]] = {}
    # latencies[panel index] = [(raw ms, scaled ms), ...], untraced
    latencies: Dict[int, List[Tuple[float, float]]] = {}
    probes_done = 0
    mutations: List[Tuple[float, float]] = []  # (raw seconds, reference seconds), untraced
    chunk = CHUNK_QUERIES[workload]

    def timed_call(queries):
        cpu = time.process_time()
        report = engine.run_batch(queries)
        return report, time.process_time() - cpu

    def timed_pass(batch):
        """One pass over ``batch``, chunk by chunk: its outcomes and its pass record."""
        timed = speed.chain(
            [lambda queries=batch[i:i + chunk]: timed_call(queries) for i in range(0, len(batch), chunk)]
        )
        outcomes = []
        record = [0.0, 0.0, 0.0, 0.0]
        for (report, cpu), raw, reference in timed:
            record[WALL_RAW] += raw
            record[WALL_SCALED] += speed.scale_seconds(raw, reference)
            record[CPU_RAW] += cpu
            record[CPU_SCALED] += speed.scale_seconds(cpu, reference)
            outcomes.extend(report)
        return outcomes, tuple(record)

    def latency_probes(count: int) -> None:
        """Time the next ``count`` panel queries one by one (cache bypassed) and check them."""
        nonlocal probes_done
        picks = [(probes_done + i) % len(panel) for i in range(count)]
        probes_done += count
        timed = speed.chain([lambda query=panel[i]: engine.query(*query, use_cache=False) for i in picks])
        for i, (result, raw, reference) in zip(picks, timed):
            expected = panel_answers.setdefault(i, set(result.edges))
            tally.check(bool(expected) and result.edges == expected, f"panel query {panel[i]} answered differently")
            latencies.setdefault(i, []).append((raw * 1000.0, speed.scale_seconds(raw, reference) * 1000.0))

    try:
        stats_before = engine.stats_snapshot()
        layers_before = tracer.snapshot() if tracer is not None else None
        kinds = (True, False) if trace else (False,)
        deadline = time.perf_counter() + seconds
        step = 0
        # Every batch at least twice (answers recorded, then checked) and in
        # every kind, then until the deadline.
        while time.perf_counter() < deadline or step < len(batches) * 2:
            # Traced and untraced passes alternate; their gap is the overhead.
            traced = kinds[step % len(kinds)]
            index = (step // len(kinds)) % len(batches)
            step += 1
            if traced:
                tracer.install()
            engine.clear_cache()
            outcomes, record = timed_pass(batches[index])
            if traced:
                tracer.uninstall()
            probes = [
                _mutate(engine, deltas[(MUTATIONS_PER_PASS * (step - 1) + i) % len(deltas)], tally, speed)
                for i in range(MUTATIONS_PER_PASS)
            ]
            if index == len(answers.expected):
                answers.record(outcomes)
            else:
                answers.check(index, outcomes)
            passes[traced].setdefault(index, []).append(record)
            if not traced:
                mutations.extend(probes)
                latency_probes(LATENCY_PROBES_PER_PASS[workload])
        rss = peak_rss_mb()
        stats_after = engine.stats_snapshot()
    finally:
        engine.close()
    _check_oracle(workload, inputs, answers, panel_answers, labels.__getitem__, seed, tally)

    queries_per_round = sum(len(batch) for batch in batches)
    detail: Dict[str, object] = {
        "batches": len(batches),
        "queries_per_round": queries_per_round,
        "graph_edges": len(inputs.edges),
        "setup_s_raw": median(setup_raw),
        "setup_s_builds_raw": setup_raw,
        "setup_s_builds_scaled": setup_scaled,
    }
    if tracer is None:
        untraced = passes[False]
        latencies_raw = _per_panel_query(latencies, scaled=False)
        latencies_scaled = _per_panel_query(latencies, scaled=True)
        mutations_raw = [raw * 1000.0 for raw, _ in mutations]
        mutations_scaled = [speed.scale_seconds(raw, ref) * 1000.0 for raw, ref in mutations]
        tail, p_tail = tail_percentile(latencies_scaled)
        detail.update(
            query_p99_ms_scaled=p_tail,
            passes=sum(len(runs) for runs in untraced.values()),
            batch_qps_raw=queries_per_round / _per_round(untraced, WALL_RAW),
            query_tail_percentile=tail,
            query_p50_ms_raw=median(latencies_raw),
            query_p99_ms_raw=tail_percentile(latencies_raw)[1],
            mutate_p50_ms_raw=median(mutations_raw),
            serve_cpu_ms_raw=1000.0 * _per_round(untraced, CPU_RAW) / queries_per_round,
            pass_seconds_raw={index: [round(run[WALL_RAW], 4) for run in runs] for index, runs in untraced.items()},
        )
        metrics = {
            "setup_s": (median(setup_scaled), "s"),
            "batch_qps": (queries_per_round / _per_round(untraced, WALL_SCALED), "1/s"),
            "query_p50_ms": (median(latencies_scaled), "ms"),
            "mutate_p50_ms": (median(mutations_scaled), "ms"),
            "serve_cpu_ms": (1000.0 * _per_round(untraced, CPU_SCALED) / queries_per_round, "ms"),
            "success_rate": (tally.success_rate, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
        return WorkloadResult(metrics=metrics, tally=tally, detail=detail)

    layers = LayerTracer.difference(tracer.snapshot(), layers_before)
    traced_passes = sum(len(runs) for runs in passes[True].values())
    traced_wall = sum(run[WALL_RAW] for runs in passes[True].values() for run in runs)
    traced_cpu = sum(run[CPU_RAW] for runs in passes[True].values() for run in runs)
    detail.update(
        traced_wall_s=traced_wall,
        traced_cpu_s=traced_cpu,
        traced_passes=traced_passes,
        untraced_passes=sum(len(runs) for runs in passes[False].values()),
        self_seconds=layers["self_seconds"],
        calls=layers["calls"],
        counters=layers["counters"],
    )
    metrics = {"query_p99_ms": (_panel_tail(latencies), "ms")}
    metrics.update(batch_layer_metrics(
        layers,
        setup_layers,
        stats_before,
        stats_after,
        computed_queries=sum(len(batches[index]) * len(runs) for index, runs in passes[True].items()),
        traced_wall=traced_wall,
        overhead_share=_per_round(passes[True], WALL_SCALED) / _per_round(passes[False], WALL_SCALED) - 1.0,
    ))
    return WorkloadResult(metrics=metrics, tally=tally, detail=detail)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def batch_layer_metrics(layers, setup_layers, stats_before, stats_after, computed_queries, traced_wall, overhead_share):
    """Every per-layer metric from one traced batch run (serve-only layers idle at 0)."""
    seconds = layers["self_seconds"]
    calls = layers["calls"]
    counters = layers["counters"]

    def delta(key: str) -> float:
        return stats_after[key] - stats_before[key]

    def per_query_ms(layer: str) -> float:
        return _ratio(seconds.get(layer, 0.0) * 1000.0, computed_queries)

    phase_seconds = sum(seconds.get(layer, 0.0) for layer in PHASE_LAYERS)
    attributed = sum(seconds.values())
    cache_hits, cache_misses = delta("cache_hits"), delta("cache_misses")
    scratch_reuses, scratch_allocations = delta("scratch_reuses"), delta("scratch_allocations")
    return {
        "core.distances.ms_per_query": (per_query_ms("core.distances"), "ms"),
        "core.essential.ms_per_query": (per_query_ms("core.essential"), "ms"),
        "core.labeling.ms_per_query": (per_query_ms("core.labeling"), "ms"),
        "core.labeling.undetermined_ratio": (
            _ratio(counters.get("labeling.undetermined_edges", 0.0), counters.get("labeling.upper_bound_edges", 0.0)),
            "ratio",
        ),
        "core.verification.ms_per_query": (per_query_ms("core.verification"), "ms"),
        "core.verification.expansions_per_query": (
            _ratio(counters.get("verification.expansions", 0.0), computed_queries),
            "count",
        ),
        "core.space.allocate_calls_per_query": (_ratio(calls.get("core.space", 0), computed_queries), "count"),
        # run_batch wall time outside the five phases, as a share of it.
        "service.engine.overhead_share": (_ratio(traced_wall - phase_seconds, traced_wall), "ratio"),
        "service.planner.shared_backward_ratio": (_ratio(delta("shared_backward_reuses"), cache_misses), "ratio"),
        "service.executor.dispatch_ms_per_batch": (
            _ratio(seconds.get("service.executor", 0.0) * 1000.0, calls.get("service.executor", 0)),
            "ms",
        ),
        "service.scratch.reuse_ratio": (_ratio(scratch_reuses, scratch_reuses + scratch_allocations), "ratio"),
        "service.cache.hit_rate": (_ratio(cache_hits, cache_hits + cache_misses), "ratio"),
        "service.cache.retention_ratio": (0.0, "ratio"),
        "graph.delta.apply_ms": (0.0, "ms"),
        "service.engine.apply_delta_ms": (0.0, "ms"),
        "graph.load_s": (median([build["self_seconds"].get("graph.load", 0.0) for build in setup_layers]), "s"),
        "graph.csr_build_s": (median([build["self_seconds"].get("graph.csr", 0.0) for build in setup_layers]), "s"),
        "service.http.request_self_ms": (0.0, "ms"),
        "service.http.coalescer.wait_ms": (0.0, "ms"),
        "service.http.coalescer.queries_per_flush": (0.0, "count"),
        "service.http.admission.shed_ratio": (0.0, "ratio"),
        "service.http.admission.queue_peak": (0.0, "count"),
        "loadgen.lag_p99_ms": (0.0, "ms"),
        # Layer self time (thread CPU) against run_batch wall time: GIL
        # handoffs between the worker threads count as uncovered.
        "trace.coverage": (_ratio(attributed, traced_wall), "ratio"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
