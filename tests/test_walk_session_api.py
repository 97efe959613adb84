"""WalkSession container semantics and remaining stepper surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import cycle_graph, star_graph
from repro.walks.stepper import (
    InverseTransformSampler,
    PWRSSampler,
    run_walks,
)
from repro.walks.uniform import UniformWalk


class TestWalkSessionContainer:
    @pytest.fixture
    def session(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:12]
        return run_walks(labeled_graph, starts, 7, UniformWalk(), PWRSSampler(8, 3))

    def test_counts(self, session):
        assert session.num_queries == 12
        assert session.total_steps == int(session.lengths.sum())
        assert session.algorithm == "uniform"
        assert session.sampler == "pwrs"

    def test_path_accessor_matches_matrix(self, session):
        for q in range(session.num_queries):
            np.testing.assert_array_equal(
                session.path(q), session.paths[q, : session.lengths[q] + 1]
            )

    def test_starts_preserved(self, session):
        np.testing.assert_array_equal(session.paths[:, 0], session.starts)

    def test_record_steps_sum_to_lengths(self, session):
        per_query = np.zeros(session.num_queries, dtype=np.int64)
        for record in session.records:
            moved = record.next_vertex >= 0
            np.add.at(per_query, record.query_ids[moved], 1)
        np.testing.assert_array_equal(per_query, session.lengths)

    def test_record_n_queries(self, session):
        assert session.records[0].n_queries == session.num_queries


class TestSamplerStateAccounting:
    def test_pwrs_counters_advance_by_batches(self):
        """After one step on a hub of degree d, the query's RNG counter
        sits at ceil(d / k) — the hardware's cycle consumption."""
        graph = star_graph(21)  # hub degree 21
        sampler = PWRSSampler(k=8, seed=5)
        run_walks(graph, np.array([0]), 1, UniformWalk(), sampler)
        assert int(sampler._counters[0]) == -(-21 // 8)

    def test_itx_counters_advance_by_steps(self):
        graph = cycle_graph(6)
        sampler = InverseTransformSampler(seed=5)
        run_walks(graph, np.array([0, 1]), 4, UniformWalk(), sampler)
        assert int(sampler._counters[0]) == 4
        assert int(sampler._counters[1]) == 4


class TestDeterministicTopologies:
    def test_cycle_walk_is_forced(self):
        graph = cycle_graph(5)
        session = run_walks(graph, np.array([2]), 7, UniformWalk(), PWRSSampler(4, 0))
        np.testing.assert_array_equal(
            session.path(0), (np.arange(8) + 2) % 5
        )

    def test_star_hub_reaches_leaf_and_stops(self):
        graph = star_graph(8)  # directed: leaves are sinks
        session = run_walks(graph, np.array([0, 0, 0]), 5, UniformWalk(), PWRSSampler(4, 1))
        assert (session.lengths == 1).all()
        assert (session.paths[:, 1] >= 1).all()

    def test_undirected_star_bounces(self):
        graph = star_graph(8, directed=False)
        session = run_walks(graph, np.array([0]), 6, UniformWalk(), PWRSSampler(4, 2))
        path = session.path(0)
        assert session.lengths[0] == 6
        np.testing.assert_array_equal(path[::2], np.zeros(4))  # hub every other
        assert (path[1::2] >= 1).all()
