"""CSRGraph container: validation, adjacency access, bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.builders import from_edge_list
from repro.graph.csr import (
    EDGE_RECORD_BYTES,
    MAX_STATIC_WEIGHT,
    NEIGHBOR_INFO_BYTES,
    CSRGraph,
)
from repro.walks.base import WEIGHT_SCALE, quantize_weights


def test_basic_shape(tiny_graph):
    assert tiny_graph.num_vertices == 5
    assert tiny_graph.num_edges == 7
    assert tiny_graph.average_degree == pytest.approx(7 / 5)
    assert tiny_graph.max_degree == 3


def test_degrees(tiny_graph):
    np.testing.assert_array_equal(tiny_graph.degrees, [3, 1, 1, 2, 0])
    assert tiny_graph.degree(0) == 3
    assert tiny_graph.degree(4) == 0


def test_neighbors_sorted_and_correct(tiny_graph):
    np.testing.assert_array_equal(tiny_graph.neighbors(0), [1, 2, 3])
    np.testing.assert_array_equal(tiny_graph.neighbors(3), [0, 2])
    assert tiny_graph.neighbors(4).size == 0
    assert tiny_graph.neighbors_sorted()


def test_neighbor_slice(tiny_graph):
    start, end = tiny_graph.neighbor_slice(1)
    assert end - start == 1
    assert tiny_graph.col_index[start] == 2


def test_neighbor_weights(tiny_graph):
    np.testing.assert_allclose(tiny_graph.neighbor_weights(0), [3, 1, 4])
    np.testing.assert_allclose(tiny_graph.neighbor_weights(3), [5, 2])


def test_neighbor_weights_default_ones():
    graph = CSRGraph(row_index=np.array([0, 1]), col_index=np.array([0]))
    np.testing.assert_allclose(graph.neighbor_weights(0), [1.0])


def test_has_edge(tiny_graph):
    assert tiny_graph.has_edge(0, 2)
    assert tiny_graph.has_edge(3, 0)
    assert not tiny_graph.has_edge(1, 0)
    assert not tiny_graph.has_edge(4, 0)
    assert not tiny_graph.has_edge(2, 3)


def test_edge_keys_sorted(tiny_graph, rmat_small):
    for graph in (tiny_graph, rmat_small):
        keys = graph.edge_keys()
        assert keys.size == graph.num_edges
        assert np.all(np.diff(keys) >= 0)


def test_nonzero_degree_vertices(tiny_graph):
    np.testing.assert_array_equal(tiny_graph.nonzero_degree_vertices(), [0, 1, 2, 3])


def test_memory_bytes(tiny_graph):
    footprint = tiny_graph.memory_bytes()
    assert footprint["row_index"] == 5 * NEIGHBOR_INFO_BYTES
    assert footprint["col_index"] == 7 * EDGE_RECORD_BYTES
    assert footprint["edge_weights"] == 7 * 4
    assert tiny_graph.total_bytes() == sum(footprint.values())


def test_to_networkx(tiny_graph):
    nx_graph = tiny_graph.to_networkx()
    assert nx_graph.number_of_nodes() == 5
    assert nx_graph.number_of_edges() == 7
    assert nx_graph[0][1]["weight"] == pytest.approx(3.0)


def test_repr(tiny_graph):
    assert "tiny" in repr(tiny_graph)
    assert "|V|=5" in repr(tiny_graph)


class TestValidation:
    def test_row_index_must_start_at_zero(self):
        with pytest.raises(GraphFormatError, match="row_index\\[0\\]"):
            CSRGraph(row_index=np.array([1, 2]), col_index=np.array([0, 0]))

    def test_row_index_monotone(self):
        with pytest.raises(GraphFormatError, match="monotonically"):
            CSRGraph(row_index=np.array([0, 2, 1]), col_index=np.array([0, 0]))

    def test_row_index_total_matches_edges(self):
        with pytest.raises(GraphFormatError, match="num_edges"):
            CSRGraph(row_index=np.array([0, 1]), col_index=np.array([0, 0]))

    def test_col_index_in_range(self):
        with pytest.raises(GraphFormatError, match="references vertex"):
            CSRGraph(row_index=np.array([0, 1]), col_index=np.array([5]))

    def test_weight_alignment(self):
        with pytest.raises(GraphFormatError, match="edge_weights"):
            CSRGraph(
                row_index=np.array([0, 1]),
                col_index=np.array([0]),
                edge_weights=np.array([1.0, 2.0]),
            )

    def test_vertex_label_alignment(self):
        with pytest.raises(GraphFormatError, match="vertex_labels"):
            CSRGraph(
                row_index=np.array([0, 1]),
                col_index=np.array([0]),
                vertex_labels=np.array([1, 2, 3]),
            )

    def test_negative_weights_rejected(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            CSRGraph(
                row_index=np.array([0, 1]),
                col_index=np.array([0]),
                edge_weights=np.array([-1.0]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(GraphFormatError, match="finite"):
            CSRGraph(
                row_index=np.array([0, 2]),
                col_index=np.array([0, 0]),
                edge_weights=np.array([1.0, bad]),
            )

    def test_weights_beyond_fixed_point_rejected(self):
        # The 1e17 reproducer: edges 0->2 (w=1e17) and 1->{0,2,3} (w=1).
        # Quantized, 1e17 wrapped to 0 and then became 1, so the heavy
        # edge lost to its light neighbours; now the graph is refused.
        with pytest.raises(GraphFormatError, match="2\\*\\*24"):
            from_edge_list(
                np.array([[0, 2], [1, 0], [1, 2], [1, 3]]),
                num_vertices=4,
                weights=np.array([1e17, 1.0, 1.0, 1.0]),
            )

    def test_largest_static_weight_accepted(self):
        below = np.nextafter(np.float32(MAX_STATIC_WEIGHT), np.float32(0))
        graph = CSRGraph(
            row_index=np.array([0, 1]), col_index=np.array([0]), edge_weights=np.array([below])
        )
        assert quantize_weights(graph.edge_weights)[0] == int(below) * WEIGHT_SCALE
        with pytest.raises(GraphFormatError):
            CSRGraph(
                row_index=np.array([0, 1]),
                col_index=np.array([0]),
                edge_weights=np.array([MAX_STATIC_WEIGHT]),
            )

    def test_empty_graph_is_valid(self):
        graph = CSRGraph(row_index=np.array([0]), col_index=np.array([], dtype=np.uint32))
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert graph.average_degree == 0.0
