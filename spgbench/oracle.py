"""Independent answers to check the program's answers against.

``enumerated_spg`` is the definition itself: the union of the edges of every
k-hop s-t simple path, enumerated by ``repro.enumeration`` inside the k-hop
subgraph ``G^k_st`` (which holds every such path).  On ``batch-deep`` the
paths are far too many to enumerate (k = 13..14, answers of ~1500 edges),
so its sample is checked three weaker ways instead: every edge of a
time-boxed enumeration must be in the answer, the answer must lie inside
``G^k_st``, and it must equal the dict-based ``*_reference`` EVE pipeline.
"""

from __future__ import annotations

from typing import Set, Tuple

__all__ = ["enumerated_spg", "bounded_enumeration_check", "reference_spg"]

Edge = Tuple[int, int]


def _search_space(graph, source: int, target: int, k: int):
    from repro.khsq.khsq import k_hop_subgraph

    return k_hop_subgraph(graph, source, target, k).to_graph(graph)


def enumerated_spg(graph, source: int, target: int, k: int) -> Set[Edge]:
    """``SPG_k(source, target)`` by full path enumeration."""
    from repro.enumeration import PathEnum
    from repro.enumeration.spg_via_enumeration import EnumerationSPGBuilder

    result = EnumerationSPGBuilder(_search_space(graph, source, target, k), PathEnum).query(
        source, target, k
    )
    if not result.exact:
        raise RuntimeError("enumeration oracle was truncated")
    return set(result.edges)


def bounded_enumeration_check(
    graph, source: int, target: int, k: int, answer: Set[Edge], budget: float
) -> bool:
    """Time-boxed enumeration edges ⊆ answer ⊆ ``G^k_st``."""
    from repro.enumeration import PathEnum
    from repro.enumeration.spg_via_enumeration import EnumerationSPGBuilder

    space = _search_space(graph, source, target, k)
    found = EnumerationSPGBuilder(space, PathEnum, time_budget=budget).query(source, target, k)
    return bool(found.edges) and set(found.edges) <= answer <= set(space.edges())


def reference_spg(graph, source: int, target: int, k: int) -> Set[Edge]:
    """``SPG_k(source, target)`` from the dict-based reference phases."""
    from repro.core import distances_reference, essential_reference, labeling_reference
    from repro.core import verification_reference

    distances = distances_reference.compute_distance_index(graph, source, target, k)
    if distances.shortest_st_distance() > k:
        return set()
    forward = essential_reference.propagate_forward(graph, source, target, k, distances=distances)
    backward = essential_reference.propagate_backward(graph, source, target, k, distances=distances)
    upper = labeling_reference.compute_upper_bound(
        graph, source, target, k, distances, forward, backward
    )
    return set(verification_reference.verify_undetermined_edges_reference(upper))
