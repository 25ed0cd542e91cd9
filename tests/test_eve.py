"""End-to-end tests of the EVE query driver."""

from __future__ import annotations

import time

import pytest

from repro import EVE, EVEConfig, build_spg, build_upper_bound
from repro.analysis.validate import brute_force_spg
from repro.core.result import EdgeLabel
from repro.exceptions import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi, layered_dag, path_graph, power_law_cluster


class TestFigure1:
    """The motivating example: Figure 1(a) with k = 4 (Figure 1(c))."""

    def test_spg4_matches_figure_1c(self, figure1):
        graph, builder = figure1
        vid = builder.vertex_id
        result = build_spg(graph, vid("s"), vid("t"), 4)
        expected = {
            (vid("s"), vid("c")),
            (vid("s"), vid("a")),
            (vid("a"), vid("c")),
            (vid("a"), vid("h")),
            (vid("h"), vid("b")),
            (vid("c"), vid("t")),
            (vid("c"), vid("b")),
            (vid("b"), vid("t")),
        }
        assert result.edges == expected
        assert result.exact

    def test_vertices_match_figure_1c(self, figure1):
        graph, builder = figure1
        vid = builder.vertex_id
        result = build_spg(graph, vid("s"), vid("t"), 4)
        expected_vertices = {vid(x) for x in ("s", "a", "c", "b", "h", "t")}
        assert set(result.vertices) == expected_vertices

    @pytest.mark.parametrize("k", range(1, 9))
    def test_all_k_match_brute_force(self, figure1, k):
        graph, builder = figure1
        vid = builder.vertex_id
        result = build_spg(graph, vid("s"), vid("t"), k)
        assert result.edges == brute_force_spg(graph, vid("s"), vid("t"), k)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dense_graphs(self, seed):
        graph = erdos_renyi(12, 2.2, seed=seed)
        for k in range(1, 8):
            result = build_spg(graph, 0, 11, k)
            assert result.edges == brute_force_spg(graph, 0, 11, k), (seed, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_power_law_graphs(self, seed):
        graph = power_law_cluster(14, 2, seed=seed)
        for k in (3, 5, 7):
            result = build_spg(graph, 0, 13, k)
            assert result.edges == brute_force_spg(graph, 0, 13, k), (seed, k)

    def test_layered_dag(self):
        graph = layered_dag(5, 3, forward_probability=0.7, seed=2)
        result = build_spg(graph, 0, graph.num_vertices - 1, 4)
        assert result.edges == brute_force_spg(graph, 0, graph.num_vertices - 1, 4)

    def test_unreachable_pair_gives_empty_result(self):
        graph = DiGraph(4, [(0, 1), (2, 3)])
        result = build_spg(graph, 0, 3, 5)
        assert result.is_empty
        assert result.num_edges == 0
        assert result.exact

    def test_target_too_far_for_k(self):
        graph = DiGraph.from_edge_list([(0, 1), (1, 2), (2, 3)])
        result = build_spg(graph, 0, 3, 2)
        assert result.is_empty

    def test_direct_edge_only(self):
        graph = DiGraph(2, [(0, 1)])
        result = build_spg(graph, 0, 1, 1)
        assert result.edges == {(0, 1)}

    def test_huge_k_costs_what_n_minus_1_costs(self):
        # No simple path has more than n - 1 edges, so k = 10**9 must be
        # answered like k = 29 on 30 vertices, not in time linear in k.
        graph = path_graph(30)
        expected = build_spg(graph, 0, 29, 29)
        started = time.perf_counter()
        result = build_spg(graph, 0, 29, 10**9)
        assert time.perf_counter() - started < 1.0
        assert result.edges == expected.edges == set(graph.edges())
        assert result.k == 10**9


class TestConfigurations:
    """All ablation variants must return the same exact answer."""

    CONFIGS = [
        EVEConfig(),
        EVEConfig.naive(),
        EVEConfig(distance_strategy="single"),
        EVEConfig(distance_strategy="bidirectional"),
        EVEConfig(forward_looking=False),
        EVEConfig(search_ordering=False),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.distance_strategy}-fl{c.forward_looking}-so{c.search_ordering}")
    @pytest.mark.parametrize("seed", range(4))
    def test_variants_agree(self, config, seed):
        graph = erdos_renyi(12, 2.0, seed=seed)
        expected = brute_force_spg(graph, 0, 11, 6)
        result = build_spg(graph, 0, 11, 6, config=config)
        assert result.edges == expected

    def test_invalid_strategy_rejected(self):
        with pytest.raises(QueryError):
            EVEConfig(distance_strategy="warp")

    def test_with_overrides(self):
        config = EVEConfig().with_overrides(forward_looking=False)
        assert not config.forward_looking
        assert config.distance_strategy == "adaptive"

    def test_no_verify_returns_upper_bound(self):
        graph = erdos_renyi(12, 2.5, seed=9)
        upper_only = build_upper_bound(graph, 0, 11, 6)
        exact = brute_force_spg(graph, 0, 11, 6)
        assert exact <= upper_only.edges
        assert upper_only.algorithm == "EVE-upper-bound"

    def test_no_verify_is_exact_for_small_k(self):
        graph = erdos_renyi(12, 2.5, seed=9)
        upper_only = build_upper_bound(graph, 0, 11, 4)
        assert upper_only.exact
        assert upper_only.edges == brute_force_spg(graph, 0, 11, 4)


class TestQueryValidation:
    def test_same_source_and_target(self):
        graph = DiGraph(3, [(0, 1)])
        with pytest.raises(QueryError):
            build_spg(graph, 0, 0, 3)

    def test_bad_k(self):
        graph = DiGraph(3, [(0, 1)])
        with pytest.raises(QueryError):
            build_spg(graph, 0, 1, 0)

    def test_bad_vertex(self):
        graph = DiGraph(3, [(0, 1)])
        from repro.exceptions import VertexError

        with pytest.raises(VertexError):
            build_spg(graph, 0, 7, 3)


class TestResultMetadata:
    def test_phase_stats_are_populated(self):
        graph = erdos_renyi(30, 3.0, seed=11)
        result = build_spg(graph, 0, 29, 6)
        assert result.phases.total_seconds > 0
        breakdown = result.phases.as_dict()
        assert set(breakdown) == {
            "distance",
            "propagation",
            "upper_bound",
            "ordering",
            "verification",
            "total",
        }

    def test_labels_cover_upper_bound(self):
        graph = erdos_renyi(15, 2.0, seed=8)
        result = build_spg(graph, 0, 14, 5)
        for edge in result.upper_bound_edges:
            assert result.labels[edge] in (EdgeLabel.DEFINITE, EdgeLabel.UNDETERMINED)

    def test_space_meter_positive_for_reachable_query(self):
        graph = erdos_renyi(15, 2.5, seed=8)
        result = build_spg(graph, 0, 14, 5)
        if not result.is_empty:
            assert result.space.peak > 0

    def test_engine_reuse_across_queries(self):
        graph = erdos_renyi(20, 2.0, seed=13)
        engine = EVE(graph)
        first = engine.query(0, 19, 4)
        second = engine.query(1, 18, 4)
        assert first.edges == brute_force_spg(graph, 0, 19, 4)
        assert second.edges == brute_force_spg(graph, 1, 18, 4)

    def test_to_graph_roundtrip(self):
        graph = erdos_renyi(12, 2.0, seed=3)
        result = build_spg(graph, 0, 11, 5)
        subgraph = result.to_graph(graph)
        assert set(subgraph.edges()) == result.edges
        upper_graph = result.upper_bound_graph(graph)
        assert set(upper_graph.edges()) == result.upper_bound_edges
