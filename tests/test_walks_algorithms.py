"""Walk algorithms: the weight-update functions of Equations (1) and (2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.graph.builders import from_edge_list
from repro.graph.labels import assign_edge_labels
from repro.walks.base import MAX_WEIGHT, WEIGHT_SCALE, gather_step, quantize_weights
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk, connected_to_previous
from repro.walks.static import StaticWalk
from repro.walks.stepper import PWRSSampler, run_walks
from repro.walks.uniform import UniformWalk


def _context_for(graph, vertex, prev=-1, step=0):
    """Single-query StepContext over all of ``vertex``'s out-edges."""
    return gather_step(graph, step, np.array([vertex]), np.array([prev]))


class TestQuantize:
    def test_zero_stays_zero(self):
        np.testing.assert_array_equal(quantize_weights(np.array([0.0])), [0])

    def test_positive_never_becomes_zero(self):
        quantized = quantize_weights(np.array([1e-9]))
        assert quantized[0] == 1

    def test_scale(self):
        np.testing.assert_array_equal(
            quantize_weights(np.array([1.0, 2.5])), [WEIGHT_SCALE, int(2.5 * WEIGHT_SCALE)]
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantize_weights(np.array([-0.5]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nan_and_negative_infinity_rejected(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            quantize_weights(np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [1e17, np.inf, 2.0**24, (2**32 - 0.5) / WEIGHT_SCALE])
    def test_beyond_fixed_point_rejected(self, bad):
        # 1e17 * 256 used to wrap to 0 in the uint64 cast and come out as 1,
        # so the heaviest edge became the lightest.
        with pytest.raises(ValueError, match="fixed-point"):
            quantize_weights(np.array([bad, 1.0, 1.0]))

    def test_largest_weight_fills_32_bits(self):
        largest = np.nextafter((2**32 - 0.5) / WEIGHT_SCALE, 0.0)
        np.testing.assert_array_equal(quantize_weights(np.array([largest])), [2**32 - 1])

    def test_negative_zero_is_zero(self):
        np.testing.assert_array_equal(quantize_weights(np.array([-0.0, 1.0])), [0, WEIGHT_SCALE])


class TestUniformAndStatic:
    def test_uniform_all_ones(self, tiny_graph):
        ctx = _context_for(tiny_graph, 0)
        np.testing.assert_array_equal(UniformWalk().dynamic_weights(ctx), [1, 1, 1])

    def test_uniform_weights_allocate_nothing(self, tiny_graph):
        weights = UniformWalk().dynamic_weights(_context_for(tiny_graph, 0))
        assert weights.strides == (0,)
        assert not weights.flags.writeable

    def test_static_returns_edge_weights(self, tiny_graph):
        ctx = _context_for(tiny_graph, 0)
        np.testing.assert_allclose(StaticWalk().dynamic_weights(ctx), [3, 1, 4])

    def test_static_requires_weights(self):
        graph = from_edge_list(np.array([[0, 1]]), num_vertices=2)
        with pytest.raises(ValueError, match="static edge weights"):
            StaticWalk().validate_graph(graph)


class TestMetaPath:
    def test_vertex_match_selects_by_label(self, tiny_graph):
        # Labels: v0=0, v1=1, v2=0, v3=1, v4=0.
        graph = tiny_graph
        graph.vertex_labels = np.array([0, 1, 0, 1, 0], dtype=np.int16)
        walk = MetaPathWalk([0, 1])  # step 0 requires label schema[1] = 1
        ctx = _context_for(graph, 0, step=0)
        # Neighbors 1 (label 1), 2 (label 0), 3 (label 1): weights w* or 0.
        np.testing.assert_allclose(walk.dynamic_weights(ctx), [3.0, 0.0, 4.0])

    def test_cyclic_schema(self, tiny_graph):
        graph = tiny_graph
        graph.vertex_labels = np.array([0, 1, 0, 1, 0], dtype=np.int16)
        walk = MetaPathWalk([0, 1])
        # Step 1 requires schema[(1+1) % 2] = schema[0] = 0.
        ctx = _context_for(graph, 0, step=1)
        np.testing.assert_allclose(walk.dynamic_weights(ctx), [0.0, 1.0, 0.0])

    def test_unweighted_variant(self, tiny_graph):
        graph = tiny_graph
        graph.vertex_labels = np.array([0, 1, 0, 1, 0], dtype=np.int16)
        walk = MetaPathWalk([0, 1], weighted=False)
        ctx = _context_for(graph, 0, step=0)
        np.testing.assert_allclose(walk.dynamic_weights(ctx), [1.0, 0.0, 1.0])

    def test_edge_match(self, tiny_graph):
        graph = assign_edge_labels(tiny_graph, n_labels=2, seed=1)
        walk = MetaPathWalk([0], match="edge", weighted=False)
        ctx = _context_for(graph, 0, step=0)
        labels = graph.edge_labels[ctx.edge_positions]
        np.testing.assert_allclose(walk.dynamic_weights(ctx), (labels == 0).astype(float))

    def test_requires_labels(self, tiny_graph):
        with pytest.raises(QueryError, match="vertex labels"):
            MetaPathWalk([0, 1]).validate_graph(tiny_graph)
        with pytest.raises(QueryError, match="edge labels"):
            MetaPathWalk([0], match="edge").validate_graph(tiny_graph)

    def test_invalid_schema(self):
        with pytest.raises(QueryError):
            MetaPathWalk([])
        with pytest.raises(QueryError):
            MetaPathWalk([0, -1])
        with pytest.raises(QueryError):
            MetaPathWalk([0], match="both")


class TestNode2Vec:
    def test_first_step_is_static(self, tiny_graph):
        walk = Node2VecWalk(p=2.0, q=0.5)
        ctx = _context_for(tiny_graph, 0, prev=-1)
        np.testing.assert_allclose(walk.dynamic_weights(ctx), [3.0, 1.0, 4.0])

    def test_second_order_weights(self, tiny_graph):
        """From vertex 0 having arrived from 3: checks all three cases.

        Neighbors of 0 are {1, 2, 3} with w* {3, 1, 4}:
        * 3 is the previous vertex        -> w*/p = 4/2 = 2
        * 2 satisfies (3, 2) in E         -> w*   = 1
        * 1: (3, 1) not in E              -> w*/q = 3/0.5 = 6
        """
        walk = Node2VecWalk(p=2.0, q=0.5)
        ctx = _context_for(tiny_graph, 0, prev=3, step=1)
        np.testing.assert_allclose(walk.dynamic_weights(ctx), [6.0, 1.0, 2.0])

    def test_p_q_one_reduces_to_static(self, tiny_graph):
        walk = Node2VecWalk(p=1.0, q=1.0)
        ctx = _context_for(tiny_graph, 0, prev=3, step=1)
        np.testing.assert_allclose(walk.dynamic_weights(ctx), [3.0, 1.0, 4.0])

    def test_invalid_params(self):
        with pytest.raises(QueryError):
            Node2VecWalk(p=0)
        with pytest.raises(QueryError):
            Node2VecWalk(q=-1)

    @pytest.mark.parametrize("p, q", [(0.5, 1.0), (2.0, 0.5)])
    def test_scaled_weights_beyond_fixed_point_refused_before_walking(self, p, q):
        # 1e7 is a valid static weight (< 2**24), but 1/p or 1/q = 2 scales
        # it to 2e7, which the 32-bit fixed point cannot hold.
        graph = from_edge_list(
            np.array([[0, 1], [1, 0], [1, 2]]), num_vertices=3, weights=np.array([1e7, 1.0, 1.0])
        )
        with pytest.raises(QueryError, match="fixed-point"):
            run_walks(graph, np.array([0, 1]), 3, Node2VecWalk(p, q), PWRSSampler(k=2))
        fits = from_edge_list(
            np.array([[0, 1], [1, 0], [1, 2]]), num_vertices=3, weights=np.array([8e6, 1.0, 1.0])
        )
        assert 2 * 8e6 < MAX_WEIGHT
        run_walks(fits, np.array([0, 1]), 3, Node2VecWalk(p, q), PWRSSampler(k=2))

    def test_memory_profile_flags(self):
        walk = Node2VecWalk()
        assert walk.needs_previous
        assert walk.fetches_previous_neighbors
        assert walk.row_lookups_per_step == 2
        assert not UniformWalk().needs_previous


class TestEdgesExist:
    def test_vectorized_membership(self, tiny_graph):
        # deg(prev) < deg(curr) searches N(prev); otherwise each candidate.
        curr = np.array([0, 0, 3, 2, 0, 3, 1])
        prev = np.array([3, 1, 0, 1, -1, 4, 2])
        ctx = gather_step(tiny_graph, 1, curr, prev)
        owners = prev[np.repeat(np.arange(curr.size), ctx.degrees)]
        expected = np.array(
            [u >= 0 and tiny_graph.has_edge(u, v) for u, v in zip(owners, ctx.dst)]
        )
        connected = np.zeros(ctx.n_edges, dtype=bool)
        connected[connected_to_previous(ctx)] = True
        np.testing.assert_array_equal(connected, expected)

    def test_requires_edge_keys(self, tiny_graph):
        """The membership test reads the graph's edge keys, staged once."""
        ctx = _context_for(tiny_graph, 0, prev=3)
        keys = tiny_graph.edge_keys()
        assert tiny_graph.edge_keys() is keys
        connected = np.zeros(ctx.n_edges, dtype=bool)
        connected[connected_to_previous(ctx)] = True
        assert tiny_graph.edge_keys() is keys
        expected = [tiny_graph.has_edge(3, int(v)) for v in ctx.dst]
        np.testing.assert_array_equal(connected, expected)
