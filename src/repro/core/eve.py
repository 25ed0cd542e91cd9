"""The EVE query driver (Essential Vertices based Examination).

This module ties the three phases of the paper's algorithm together:

1. shortest-distance computation (:mod:`repro.core.distances`),
2. essential-vertex propagation (:mod:`repro.core.essential`) and edge
   labelling into the upper-bound graph (:mod:`repro.core.labeling`),
3. verification of undetermined edges (:mod:`repro.core.verification`).

Usage::

    from repro import DiGraph, build_spg

    graph = DiGraph.from_edge_list([(0, 1), (1, 2), (0, 2)])
    result = build_spg(graph, source=0, target=2, k=2)
    result.edges           # {(0, 1), (1, 2), (0, 2)}

The :class:`EVEConfig` switches correspond to the ablation of Figure 11:
``distance_strategy`` (single / bidirectional / adaptive search),
``forward_looking`` pruning, and the ``search_ordering`` strategy; turning
them all off yields the paper's "Naive EVE".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from repro._types import Vertex
from repro.core.distances import (
    DISTANCE_STRATEGIES,
    BackwardDistanceMap,
    DistanceScratch,
    compute_distance_index,
)
from repro.core.essential import EssentialScratch, propagate_backward, propagate_forward
from repro.core.labeling import compute_upper_bound
from repro.core.result import PhaseStats, SimplePathGraphResult
from repro.core.space import SpaceMeter
from repro.core.verification import (
    VerificationScratch,
    VerificationStats,
    prepare_verification,
)
from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.telemetry import Tracer

__all__ = ["EVEConfig", "EVE", "QueryScratch", "build_spg", "build_upper_bound"]


class QueryScratch(DistanceScratch):
    """Every reusable flat buffer one EVE query needs, in one bundle.

    Extends :class:`~repro.core.distances.DistanceScratch` (so it is
    accepted anywhere a distance scratch is) with the
    :class:`~repro.core.essential.EssentialScratch` of the propagation
    phase and the :class:`~repro.core.verification.VerificationScratch` of
    the ordering + verification phases.  :class:`repro.service.ScratchPool`
    pools these, which is what makes the distance, propagation *and*
    verification phases allocation-free on the batch serving path;
    :meth:`EVE.query` picks the essential and verification sides up
    automatically when handed one.
    """

    __slots__ = ("essential", "verification")

    def __init__(self) -> None:
        super().__init__()
        self.essential = EssentialScratch()
        self.verification = VerificationScratch()


@dataclass(frozen=True)
class EVEConfig:
    """Tuning switches for EVE (all enabled by default).

    Attributes
    ----------
    distance_strategy:
        One of ``"single"``, ``"bidirectional"``, ``"adaptive"``
        (Section 3.3 / Figure 6(a)).
    forward_looking:
        Enable the forward-looking pruning of Theorem 3.6.
    search_ordering:
        Enable the neighbour-ordering strategies of Section 5.3.
    verify:
        When ``False`` the verification phase is skipped and the result's
        ``edges`` equal the upper bound (exact only for ``k <= 4``).
    """

    distance_strategy: str = "adaptive"
    forward_looking: bool = True
    search_ordering: bool = True
    verify: bool = True

    def __post_init__(self) -> None:
        if self.distance_strategy not in DISTANCE_STRATEGIES:
            raise QueryError(
                f"unknown distance strategy {self.distance_strategy!r}; "
                f"expected one of {DISTANCE_STRATEGIES}"
            )

    @classmethod
    def naive(cls) -> "EVEConfig":
        """The paper's "Naive EVE": all pruning/ordering techniques disabled."""
        return cls(
            distance_strategy="single",
            forward_looking=False,
            search_ordering=False,
            verify=True,
        )

    def with_overrides(self, **changes: object) -> "EVEConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


class EVE:
    """EVE query engine bound to one graph.

    The engine is stateless between queries (the paper's algorithm is fully
    online, no preprocessing), so one instance can serve many queries and is
    safe to reuse across threads that do not share a query.
    """

    def __init__(self, graph: DiGraph, config: Optional[EVEConfig] = None) -> None:
        self.graph = graph
        self.config = config or EVEConfig()

    # ------------------------------------------------------------------
    def query(
        self,
        source: Vertex,
        target: Vertex,
        k: int,
        *,
        shared_backward: Optional[BackwardDistanceMap] = None,
        scratch: Optional[DistanceScratch] = None,
        essential_scratch: Optional[EssentialScratch] = None,
        verification_scratch: Optional[VerificationScratch] = None,
        tracer: Optional[Tracer] = None,
    ) -> SimplePathGraphResult:
        """Return ``SPG_k(source, target)`` (exact unless ``verify=False``).

        ``shared_backward`` optionally supplies a precomputed backward
        distance pass for ``(target, k)`` (see
        :func:`repro.core.distances.backward_distance_map`), letting a batch
        of queries with a common target amortise that phase.  ``scratch``
        optionally supplies reusable distance buffers (see
        :class:`repro.core.distances.DistanceScratch`) and
        ``essential_scratch`` reusable propagation buffers (see
        :class:`repro.core.essential.EssentialScratch`) and
        ``verification_scratch`` reusable verification buffers (see
        :class:`repro.core.verification.VerificationScratch`) so repeated
        queries skip per-query allocation; when ``scratch`` is a
        :class:`QueryScratch` its essential and verification sides are used
        automatically.  A scratch must not be shared by concurrent queries.
        The answer is identical with or without any of them.

        A simple path has at most ``n - 1`` edges, so a larger ``k`` is
        computed as ``n - 1`` (same answer, bounded cost) and reported as
        asked.

        ``tracer`` optionally records one ``phase.<name>`` span per executed
        phase plus one ``query`` summary span.  Phases are already timed for
        :class:`~repro.core.result.PhaseStats`, so the tracer receives the
        measured values — tracing adds no clock reads, and when ``tracer``
        is ``None`` every telemetry site is a single ``is not None`` check.
        """
        self._validate(source, target, k)
        requested_k, k = k, min(k, self.graph.num_vertices - 1)
        config = self.config
        if essential_scratch is None:
            essential_scratch = getattr(scratch, "essential", None)
        if verification_scratch is None:
            verification_scratch = getattr(scratch, "verification", None)
        space = SpaceMeter()
        phases = PhaseStats()

        query_started = started = time.perf_counter()
        distances = compute_distance_index(
            self.graph,
            source,
            target,
            k,
            strategy=config.distance_strategy,
            shared_backward=shared_backward,
            scratch=scratch,
        )
        space.allocate(distances.size(), category="distances")
        phases.distance_seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.record(
                "phase.distance",
                started,
                phases.distance_seconds,
                shared_backward=shared_backward is not None,
                **distances.span_attributes(),
            )

        # Fast exit: t not reachable from s within k hops -> empty answer.
        if distances.shortest_st_distance() > k:
            if tracer is not None:
                tracer.record(
                    "query",
                    query_started,
                    time.perf_counter() - query_started,
                    source=source,
                    target=target,
                    k=requested_k,
                    empty=True,
                    exact=True,
                )
            return SimplePathGraphResult(
                source=source,
                target=target,
                k=requested_k,
                edges=set(),
                upper_bound_edges=set(),
                labels={},
                phases=phases,
                space=space,
                exact=True,
                algorithm="EVE",
            )

        started = time.perf_counter()
        forward = propagate_forward(
            self.graph, source, target, k,
            distances=distances, prune=config.forward_looking, space=space,
            scratch=essential_scratch,
        )
        backward = propagate_backward(
            self.graph, source, target, k,
            distances=distances, prune=config.forward_looking, space=space,
            scratch=essential_scratch,
        )
        phases.propagation_seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.record(
                "phase.propagation",
                started,
                phases.propagation_seconds,
                **forward.span_attributes(),
                **backward.span_attributes(),
            )

        started = time.perf_counter()
        upper = compute_upper_bound(
            self.graph, source, target, k, distances, forward, backward, space=space
        )
        phases.upper_bound_seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.record(
                "phase.upper_bound",
                started,
                phases.upper_bound_seconds,
                **upper.span_attributes(),
            )

        verification_stats = VerificationStats() if tracer is not None else None
        if config.verify:
            prepared = None
            if config.search_ordering and k >= 6:
                # For k = 5 the search never expands (Section 5.3), so
                # ordering would be pure overhead.  Materialising the flat
                # slices is part of this phase when ordering runs.
                started = time.perf_counter()
                prepared = prepare_verification(
                    upper, scratch=verification_scratch
                )
                prepared.apply_search_ordering()
                phases.ordering_seconds = time.perf_counter() - started
                if tracer is not None:
                    tracer.record(
                        "phase.ordering", started, phases.ordering_seconds
                    )
            started = time.perf_counter()
            if prepared is None:
                prepared = prepare_verification(
                    upper, scratch=verification_scratch
                )
            edges = prepared.verify(space=space, stats=verification_stats)
            phases.verification_seconds = time.perf_counter() - started
            if tracer is not None:
                tracer.record(
                    "phase.verification",
                    started,
                    phases.verification_seconds,
                    **verification_stats.span_attributes(),
                )
            exact = True
        else:
            edges = upper.edges
            exact = k <= 4

        if tracer is not None:
            tracer.record(
                "query",
                query_started,
                time.perf_counter() - query_started,
                source=source,
                target=target,
                k=requested_k,
                empty=not edges,
                exact=exact,
                answer_edges=len(edges),
                upper_bound_edges=upper.num_edges,
                phase_seconds_total=phases.total_seconds,
            )

        return SimplePathGraphResult(
            source=source,
            target=target,
            k=requested_k,
            edges=edges,
            upper_bound_edges=upper.edges,
            labels=upper.labels,
            phases=phases,
            space=space,
            exact=exact,
            algorithm="EVE",
        )

    # ------------------------------------------------------------------
    def upper_bound(self, source: Vertex, target: Vertex, k: int) -> SimplePathGraphResult:
        """Return only the upper-bound graph ``SPGu_k`` (no verification)."""
        engine = EVE(self.graph, self.config.with_overrides(verify=False))
        result = engine.query(source, target, k)
        result.algorithm = "EVE-upper-bound"
        return result

    def _validate(self, source: Vertex, target: Vertex, k: int) -> None:
        self.graph.check_vertex(source)
        self.graph.check_vertex(target)
        if source == target:
            raise QueryError(
                "simple path graph queries require distinct source and target"
            )
        if k < 1:
            raise QueryError(f"hop constraint k must be >= 1, got {k}")


def build_spg(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    config: Optional[EVEConfig] = None,
) -> SimplePathGraphResult:
    """One-shot convenience wrapper: ``EVE(graph, config).query(s, t, k)``."""
    return EVE(graph, config).query(source, target, k)


def build_upper_bound(
    graph: DiGraph,
    source: Vertex,
    target: Vertex,
    k: int,
    config: Optional[EVEConfig] = None,
) -> SimplePathGraphResult:
    """One-shot convenience wrapper returning only the upper-bound graph."""
    return EVE(graph, config).upper_bound(source, target, k)
