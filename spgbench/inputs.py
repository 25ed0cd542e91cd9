"""Seeded workload inputs.

Everything the program sees is generated here from ``--seed``: a graph
written as an edge file, and ``(source, target, k)`` queries in the file's
own vertex labels.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

__all__ = ["BatchInputs", "ServeInputs", "batch_inputs", "serve_inputs", "write_edge_file"]

Edge = Tuple[int, int]
QueryTriple = Tuple[int, int, int]


def write_edge_file(path: Path, edges) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(f"{u} {v}\n" for u, v in edges)


def _unique(queries: List[QueryTriple]) -> List[QueryTriple]:
    seen: Set[QueryTriple] = set()
    out = []
    for query in queries:
        if query not in seen:
            seen.add(query)
            out.append(query)
    return out


#: Graph seeds of the batch workloads.  The graph is fixed per workload and
#: ``--seed`` draws the query batches: with the graph drawn from the seed too,
#: total work per run spread by an IQR of 52% of its median across seeds on
#: ``batch-deep`` (ten seeds, 24 queries each), far beyond any useful bound.
WIDE_GRAPH_SEED = 20230901
DEEP_GRAPH_SEED = 20230902
#: Seed of each batch workload's latency panel: the single queries behind
#: ``query_p50_ms``/``query_p99_ms``.  Drawn from the seed, the panel's tail
#: moved by 30% between seeds on ``batch-wide`` (its p99 is set by a dozen
#: hub queries), so the panel is fixed like the graph.
PANEL_SEED = 20230903
#: Distinct queries in the ``serve-mixed`` pool: about three times the
#: server's 1024-entry cache, so the Zipf tail keeps missing it.
POOL_SIZE = 3000


def fresh_deltas(base_edges: List[Edge], rng: random.Random, count: int) -> List[Dict[str, List[Edge]]]:
    """``count`` deltas, each inserting two edges absent from ``base_edges``
    and deleting one of them; no edge appears in two deltas."""
    present = set(base_edges)
    touched: Set[Edge] = set()
    vertices = sorted({u for u, _ in base_edges} | {v for _, v in base_edges})
    deletable = list(base_edges)
    rng.shuffle(deletable)
    deltas = []
    for _ in range(count):
        inserts: List[Edge] = []
        while len(inserts) < 2:
            edge = (vertices[rng.randrange(len(vertices))], vertices[rng.randrange(len(vertices))])
            if edge[0] != edge[1] and edge not in present and edge not in touched:
                touched.add(edge)
                inserts.append(edge)
        delete = deletable.pop()
        touched.add(delete)
        deltas.append({"insert": inserts, "delete": [delete]})
    return deltas


@dataclass
class BatchInputs:
    edges: List[Edge]
    batches: List[List[QueryTriple]]
    setup_query: QueryTriple  # answered at the end of each set-up build
    panel: List[QueryTriple]  # single queries timed for the latency metrics
    deltas: List[Dict[str, List[Edge]]]  # applied one per pass to a probe engine
    graph: object  # the generated DiGraph, labels == ids (oracle side only)


def batch_inputs(workload: str, seed: int) -> BatchInputs:
    """Inputs of ``batch-wide`` or ``batch-deep`` for ``seed``.

    A run cycles through several distinct batches (six of 200 queries on
    ``batch-wide``, ten of 24 on ``batch-deep``): per-query cost is
    heavy-tailed (on ``batch-wide`` the costliest 5 of 200 queries take a
    fifth of the pass), so one batch per run would let the seed, not the
    program, set the figure.
    """
    from repro.graph.generators import erdos_renyi, power_law_cluster
    from repro.queries.workload import random_reachable_queries, target_grouped_queries

    rng = random.Random(seed)
    panel_rng = random.Random(PANEL_SEED)
    batches: List[List[QueryTriple]] = []
    if workload == "batch-wide":
        # Offline screening: k = 5..6 over a 20k-vertex power-law graph, a
        # fifth of each batch grouped on shared targets.
        graph = power_law_cluster(20_000, 3, seed=WIDE_GRAPH_SEED)
        for _ in range(6):
            batches.append(
                random_reachable_queries(graph, 5, 80, seed=rng.randrange(1 << 30)).as_batch()
                + random_reachable_queries(graph, 6, 80, seed=rng.randrange(1 << 30)).as_batch()
                + target_grouped_queries(graph, 5, 8, 5, seed=rng.randrange(1 << 30)).as_batch()
            )
        panel = (
            random_reachable_queries(graph, 5, 100, seed=panel_rng.randrange(1 << 30)).as_batch()
            + random_reachable_queries(graph, 6, 100, seed=panel_rng.randrange(1 << 30)).as_batch()
        )
    elif workload == "batch-deep":
        # Deep-k verification: answers cover most of the graph.
        graph = erdos_renyi(400, 4, seed=DEEP_GRAPH_SEED)
        for _ in range(10):
            batches.append(
                random_reachable_queries(graph, 13, 12, seed=rng.randrange(1 << 30)).as_batch()
                + random_reachable_queries(graph, 14, 12, seed=rng.randrange(1 << 30)).as_batch()
            )
        panel = (
            random_reachable_queries(graph, 13, 24, seed=panel_rng.randrange(1 << 30)).as_batch()
            + random_reachable_queries(graph, 14, 24, seed=panel_rng.randrange(1 << 30)).as_batch()
        )
    else:
        raise ValueError(f"not a batch workload: {workload!r}")
    # Set-up ends with a cheap k = 3 query, so set-up time is not the cost of
    # whichever deep query the seed happened to put first.
    setup_query = random_reachable_queries(graph, 3, 1, seed=rng.randrange(1 << 30)).as_batch()[0]
    edges = sorted(graph.edges())
    return BatchInputs(
        edges=edges,
        batches=[_unique(batch) for batch in batches],
        setup_query=setup_query,
        panel=_unique(panel),
        deltas=fresh_deltas(edges, rng, 400),
        graph=graph,
    )


@dataclass
class ServeInputs:
    base_edges: List[Edge]
    pool: List[QueryTriple]            # distinct reachable queries, hottest first
    zipf_cumulative: List[float]        # cumulative draw weights over ``pool``
    deltas: List[Dict[str, List[Edge]]]  # POST /mutate bodies, order-independent


def serve_inputs(seed: int, num_deltas: int) -> ServeInputs:
    """Inputs of ``serve-mixed``: a transaction snapshot, a query pool, deltas.

    No edge appears in two deltas, so each delta changes the graph whatever
    order the server applies them in, and the final graph is the base plus
    every applied delta.
    """
    from repro.datasets.transaction import generate_transaction_network
    from repro.queries.workload import random_reachable_queries

    rng = random.Random(seed)
    network = generate_transaction_network(
        num_accounts=5000, num_transactions=20_000, seed=rng.randrange(1 << 30)
    )
    graph = network.snapshot()
    base_edges = sorted(graph.edges())
    per_k = POOL_SIZE // 3 + 1
    pool: List[QueryTriple] = []
    for k in (5, 6, 7):
        pool += random_reachable_queries(graph, k, per_k, seed=rng.randrange(1 << 30)).as_batch()
    pool = _unique(pool)
    rng.shuffle(pool)
    pool = pool[:POOL_SIZE]
    # Zipf(1) popularity over a pool three times the server's 1024-entry cache.
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    cumulative, total = [], 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)

    deltas = fresh_deltas(base_edges, rng, num_deltas)
    return ServeInputs(
        base_edges=base_edges,
        pool=pool,
        zipf_cumulative=cumulative,
        deltas=deltas,
    )
