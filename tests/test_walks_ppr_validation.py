"""Restart walks, exact PPR, and the walk-distribution validation tools."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.graph.generators import chung_lu_graph, cycle_graph, star_graph
from repro.graph.labels import assign_random_weights
from repro.walks.node2vec import Node2VecWalk
from repro.walks.ppr import RestartWalk, exact_ppr, visit_frequencies
from repro.walks.static import StaticWalk
from repro.walks.stepper import PWRSSampler, run_walks
from repro.walks.uniform import UniformWalk
from repro.walks.validation import (
    chi_square_step_test,
    empirical_step_distribution,
    exact_step_distribution,
    total_variation_distance,
)


def _restart_walks(graph, starts, n_steps, alpha, seed, k=16):
    return run_walks(graph, starts, n_steps, RestartWalk(alpha), PWRSSampler(k, seed))


class TestRestartWalk:
    def test_invalid_alpha(self):
        with pytest.raises(QueryError):
            RestartWalk(alpha=1.0)
        with pytest.raises(QueryError):
            RestartWalk(alpha=-0.1)

    def test_alpha_zero_never_teleports(self):
        graph = cycle_graph(8)
        starts = np.zeros(16, dtype=np.int64)
        session = _restart_walks(graph, starts, 10, alpha=0.0, seed=1)
        # On a directed cycle with no restarts every path is deterministic.
        for q in range(16):
            np.testing.assert_array_equal(
                session.path(q), np.arange(11) % 8
            )

    def test_alpha_high_teleports_often(self):
        graph = cycle_graph(8)
        starts = np.zeros(64, dtype=np.int64)
        session = _restart_walks(graph, starts, 20, alpha=0.8, seed=2)
        # Most visited vertices are the source.
        freq = visit_frequencies(session.paths, 8)
        assert freq[0] > 0.5

    def test_paths_valid_edges_or_teleports(self):
        graph = chung_lu_graph(128, avg_degree=6, seed=3, directed=False)
        starts = graph.nonzero_degree_vertices()[:32]
        session = _restart_walks(graph, starts, 12, alpha=0.2, seed=3)
        for q in range(starts.size):
            path = session.path(q)
            for u, v in zip(path[:-1], path[1:]):
                assert graph.has_edge(int(u), int(v)) or v == starts[q]

    def test_trace_records_zero_degree_on_restart(self):
        graph = cycle_graph(4)
        session = _restart_walks(graph, np.zeros(8, dtype=np.int64), 6, 0.9, seed=5)
        degrees = np.concatenate([r.degrees for r in session.records])
        assert (degrees == 0).any()  # restarts recorded as free steps

    def test_deterministic(self):
        graph = chung_lu_graph(64, avg_degree=5, seed=1, directed=False)
        starts = graph.nonzero_degree_vertices()[:10]
        a = _restart_walks(graph, starts, 8, 0.3, seed=9)
        b = _restart_walks(graph, starts, 8, 0.3, seed=9)
        np.testing.assert_array_equal(a.paths, b.paths)


class TestExactPPR:
    def test_probability_vector(self):
        graph = chung_lu_graph(64, avg_degree=5, seed=2, directed=False)
        source = int(graph.nonzero_degree_vertices()[0])
        ppr = exact_ppr(graph, source, alpha=0.2)
        assert ppr.sum() == pytest.approx(1.0, abs=1e-6)
        assert ppr[source] > 1.0 / graph.num_vertices  # source is favored

    def test_visit_frequencies_converge_to_ppr(self):
        graph = chung_lu_graph(96, avg_degree=6, seed=4, directed=False)
        source = int(graph.nonzero_degree_vertices()[0])
        starts = np.full(600, source, dtype=np.int64)
        session = _restart_walks(graph, starts, 40, alpha=0.2, seed=6)
        estimate = visit_frequencies(session.paths, graph.num_vertices)
        exact = exact_ppr(graph, source, alpha=0.2)
        assert np.corrcoef(estimate, exact)[0, 1] > 0.95

    def test_invalid_source(self):
        graph = cycle_graph(4)
        with pytest.raises(QueryError):
            exact_ppr(graph, 99)


class TestExactStepDistribution:
    def test_matches_weights_on_star(self):
        graph = star_graph(3)
        graph = assign_random_weights(graph, seed=1)
        dist = exact_step_distribution(graph, StaticWalk(), 0)
        weights = graph.neighbor_weights(0).astype(np.float64)
        np.testing.assert_allclose(
            dist[graph.neighbors(0)], weights / weights.sum()
        )
        assert dist.sum() == pytest.approx(1.0)

    def test_sink_gives_zero_vector(self):
        graph = star_graph(3)  # leaves are sinks
        assert exact_step_distribution(graph, UniformWalk(), 1).sum() == 0.0

    def test_node2vec_conditioning(self, tiny_graph):
        dist_first = exact_step_distribution(tiny_graph, Node2VecWalk(2, 0.5), 0)
        dist_second = exact_step_distribution(
            tiny_graph, Node2VecWalk(2, 0.5), 0, prev=3, step=1
        )
        # Conditioning on prev changes the law (the second-order property).
        assert total_variation_distance(dist_first, dist_second) > 0.05

    def test_out_of_range(self, tiny_graph):
        with pytest.raises(QueryError):
            exact_step_distribution(tiny_graph, UniformWalk(), 999)


class TestChiSquareStepTest:
    @pytest.mark.parametrize("algorithm", [UniformWalk(), StaticWalk()],
                             ids=["uniform", "static"])
    def test_sampled_steps_match_exact_law(self, labeled_graph, algorithm):
        vertex = int(np.argmax(labeled_graph.degrees))
        samples = empirical_step_distribution(
            labeled_graph, algorithm, vertex, 4000, seed=8
        )
        __, p_value = chi_square_step_test(labeled_graph, algorithm, vertex, samples)
        assert p_value > 1e-4

    def test_wrong_distribution_detected(self, labeled_graph):
        """Feeding uniform samples against the weighted law must fail."""
        vertex = int(np.argmax(labeled_graph.degrees))
        rng = np.random.default_rng(0)
        neighbors = labeled_graph.neighbors(vertex)
        fake = rng.choice(neighbors, size=4000)  # uniform, not weighted
        __, p_value = chi_square_step_test(labeled_graph, StaticWalk(), vertex, fake)
        assert p_value < 1e-4

    def test_samples_outside_support_rejected(self, tiny_graph):
        with pytest.raises(QueryError):
            chi_square_step_test(
                tiny_graph, UniformWalk(), 0, np.array([4, 4, 4])
            )


class TestTotalVariation:
    def test_zero_for_identical(self):
        p = np.array([0.5, 0.5])
        assert total_variation_distance(p, p) == 0.0

    def test_one_for_disjoint(self):
        assert total_variation_distance(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            total_variation_distance(np.ones(2), np.ones(3))


class TestSecondOrderEmpirical:
    def test_two_step_conditional_matches_exact(self, labeled_graph):
        """The sampled second step, conditioned on the first, follows the
        Node2Vec conditional law exactly (chi-square)."""
        from collections import Counter

        from repro.walks.stepper import PWRSSampler, run_walks

        walk = Node2VecWalk(2.0, 0.5)
        # A low-degree start concentrates the first step on few branches.
        degrees = labeled_graph.degrees
        start = int(np.nonzero((degrees >= 3) & (degrees <= 5))[0][0])
        starts = np.full(6000, start, dtype=np.int64)
        session = run_walks(labeled_graph, starts, 2, walk, PWRSSampler(16, 31))
        # Group by the first step and test the most common branch.
        firsts = session.paths[:, 1]
        branch, count = Counter(firsts[firsts >= 0].tolist()).most_common(1)[0]
        assert count > 300
        mask = (session.paths[:, 1] == branch) & (session.paths[:, 2] >= 0)
        seconds = session.paths[mask, 2]
        __, p_value = chi_square_step_test(
            labeled_graph, walk, int(branch), seconds, prev=start, step=1
        )
        assert p_value > 1e-4
