"""Graph statistics and degree reordering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import chung_lu_graph, erdos_renyi_graph, star_graph
from repro.graph.reorder import (
    degree_sort_reorder,
    hot_prefix_hit_ratio,
    reordering_cost_model,
)
from repro.graph.stats import degree_histogram, degree_stats


class TestDegreeStats:
    def test_star(self):
        graph = star_graph(10)
        stats = degree_stats(graph)
        assert stats.maximum == 10
        assert stats.mean == pytest.approx(10 / 11)
        # All edges belong to the hub.
        assert stats.stationary_mean_degree == pytest.approx(10.0)

    def test_gini_zero_for_regular(self):
        from repro.graph.generators import cycle_graph

        stats = degree_stats(cycle_graph(16))
        assert stats.gini == pytest.approx(0.0, abs=1e-9)

    def test_powerlaw_more_skewed_than_er(self):
        pl = degree_stats(chung_lu_graph(2048, avg_degree=8, seed=1))
        er = degree_stats(erdos_renyi_graph(2048, avg_degree=8, seed=1))
        assert pl.gini > er.gini
        assert pl.stationary_mean_degree > er.stationary_mean_degree
        assert pl.top_percent_edge_share > er.top_percent_edge_share

    def test_as_row(self):
        row = degree_stats(star_graph(4)).as_row()
        assert "stationary_mean_degree" in row


class TestHistogram:
    def test_buckets_cover_all_vertices(self):
        graph = chung_lu_graph(512, avg_degree=6, seed=2)
        rows = degree_histogram(graph)
        assert sum(count for __, count in rows) == graph.num_vertices


class TestReorder:
    def test_permutation_is_bijective(self, labeled_graph):
        reordered = degree_sort_reorder(labeled_graph)
        n = labeled_graph.num_vertices
        assert np.array_equal(np.sort(reordered.new_to_old), np.arange(n))
        assert np.array_equal(
            reordered.old_to_new[reordered.new_to_old], np.arange(n)
        )

    def test_degrees_descending(self, labeled_graph):
        reordered = degree_sort_reorder(labeled_graph)
        degrees = reordered.graph.degrees
        assert np.all(np.diff(degrees) <= 0)

    def test_edges_preserved_under_relabeling(self, labeled_graph):
        reordered = degree_sort_reorder(labeled_graph)
        assert reordered.graph.num_edges == labeled_graph.num_edges
        # Spot-check a handful of edges map correctly.
        rng = np.random.default_rng(0)
        for __ in range(50):
            u = int(rng.choice(labeled_graph.nonzero_degree_vertices()))
            v = int(rng.choice(labeled_graph.neighbors(u)))
            assert reordered.graph.has_edge(
                int(reordered.old_to_new[u]), int(reordered.old_to_new[v])
            )

    def test_vertex_labels_follow(self, labeled_graph):
        reordered = degree_sort_reorder(labeled_graph)
        for new_id in range(0, labeled_graph.num_vertices, 37):
            old_id = reordered.new_to_old[new_id]
            assert (
                reordered.graph.vertex_labels[new_id]
                == labeled_graph.vertex_labels[old_id]
            )

    def test_translate_round_trip(self, labeled_graph):
        reordered = degree_sort_reorder(labeled_graph)
        starts = labeled_graph.nonzero_degree_vertices()[:10]
        translated = reordered.translate_starts(starts)
        paths = np.stack([translated, np.full(10, -1)], axis=1)
        back = reordered.translate_paths_back(paths)
        np.testing.assert_array_equal(back[:, 0], starts)
        assert (back[:, 1] == -1).all()

    def test_cost_model_positive_and_scales(self, labeled_graph):
        small = reordering_cost_model(labeled_graph)
        big = reordering_cost_model(chung_lu_graph(4096, avg_degree=16, seed=1))
        assert 0 < small < big

    def test_hot_prefix_bounds(self, labeled_graph):
        assert hot_prefix_hit_ratio(labeled_graph, 0) == 0.0
        assert hot_prefix_hit_ratio(
            labeled_graph, labeled_graph.num_vertices
        ) == pytest.approx(1.0)
        mid = hot_prefix_hit_ratio(labeled_graph, 16)
        # 16 hubs of a power-law graph carry far more than 16/|V| of mass.
        assert mid > 16 / labeled_graph.num_vertices * 2
