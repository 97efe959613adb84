"""Graph persistence and random attribute assignment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.builders import from_edge_list
from repro.graph.io import load_csr_npz, load_edge_list_text, save_csr_npz
from repro.graph.labels import (
    assign_edge_labels,
    assign_random_weights,
    assign_vertex_labels,
)


class TestNpzRoundTrip:
    def test_exact_round_trip(self, labeled_graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_csr_npz(labeled_graph, path)
        loaded = load_csr_npz(path)
        np.testing.assert_array_equal(loaded.row_index, labeled_graph.row_index)
        np.testing.assert_array_equal(loaded.col_index, labeled_graph.col_index)
        np.testing.assert_array_equal(loaded.edge_weights, labeled_graph.edge_weights)
        np.testing.assert_array_equal(loaded.vertex_labels, labeled_graph.vertex_labels)
        assert loaded.directed == labeled_graph.directed
        assert loaded.name == labeled_graph.name

    def test_optional_attributes_absent(self, tmp_path):
        graph = from_edge_list(np.array([[0, 1]]), num_vertices=2)
        path = tmp_path / "bare.npz"
        save_csr_npz(graph, path)
        loaded = load_csr_npz(path)
        assert loaded.edge_weights is None
        assert loaded.vertex_labels is None
        assert loaded.edge_labels is None


class TestTextFormat:
    def test_round_trip_unweighted(self, tmp_path):
        graph = from_edge_list(np.array([[0, 1], [1, 2], [2, 0]]), num_vertices=3)
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        loaded = load_edge_list_text(path, num_vertices=3)
        np.testing.assert_array_equal(loaded.row_index, graph.row_index)
        np.testing.assert_array_equal(loaded.col_index, graph.col_index)

    def test_round_trip_weighted(self, tiny_graph, tmp_path):
        path = tmp_path / "weighted.txt"
        sources = np.repeat(np.arange(tiny_graph.num_vertices), tiny_graph.degrees)
        path.write_text("".join(
            f"{src} {dst} {weight:.6g}\n"
            for src, dst, weight in zip(sources, tiny_graph.col_index, tiny_graph.edge_weights)
        ))
        loaded = load_edge_list_text(path, num_vertices=5)
        np.testing.assert_allclose(loaded.edge_weights, tiny_graph.edge_weights, rtol=1e-5)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("# header\n\n0 1\n1 2\n")
        loaded = load_edge_list_text(path)
        assert loaded.num_edges == 2

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nnot-an-edge\n")
        with pytest.raises(GraphFormatError, match="bad.txt:2"):
            load_edge_list_text(path)

    def test_non_integer_vertex(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            load_edge_list_text(path)

    def test_inconsistent_weight_column(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("0 1 2.5\n1 2\n")
        with pytest.raises(GraphFormatError, match="missing weight"):
            load_edge_list_text(path)

    def test_name_from_stem(self, tmp_path):
        path = tmp_path / "mygraph.txt"
        path.write_text("0 1\n")
        assert load_edge_list_text(path).name == "mygraph"


class TestLabels:
    def test_vertex_labels_deterministic_and_in_range(self, tiny_graph):
        a = assign_vertex_labels(tiny_graph, n_labels=4, seed=1)
        b = assign_vertex_labels(tiny_graph, n_labels=4, seed=1)
        np.testing.assert_array_equal(a.vertex_labels, b.vertex_labels)
        assert a.vertex_labels.min() >= 0
        assert a.vertex_labels.max() < 4

    def test_vertex_labels_do_not_mutate_input(self, tiny_graph):
        assign_vertex_labels(tiny_graph, n_labels=2, seed=0)
        assert tiny_graph.vertex_labels is None

    def test_weights_in_range(self, tiny_graph):
        graph = assign_random_weights(tiny_graph, low=2.0, high=3.0, seed=5)
        assert graph.edge_weights.min() >= 2.0
        assert graph.edge_weights.max() < 3.0

    def test_undirected_weights_symmetric(self):
        base = from_edge_list(
            np.array([[0, 1], [1, 2], [0, 2]]), num_vertices=3, directed=False
        )
        graph = assign_random_weights(base, seed=3)
        for u in range(3):
            for v in graph.neighbors(u).tolist():
                start_u, __ = graph.neighbor_slice(u)
                pos_u = start_u + int(np.searchsorted(graph.neighbors(u), v))
                start_v, __ = graph.neighbor_slice(v)
                pos_v = start_v + int(np.searchsorted(graph.neighbors(v), u))
                assert graph.edge_weights[pos_u] == graph.edge_weights[pos_v]

    def test_undirected_edge_labels_symmetric(self):
        base = from_edge_list(
            np.array([[0, 1], [1, 2]]), num_vertices=3, directed=False
        )
        graph = assign_edge_labels(base, n_labels=5, seed=9)
        start0, __ = graph.neighbor_slice(0)
        start1, __ = graph.neighbor_slice(1)
        pos_01 = start0 + int(np.searchsorted(graph.neighbors(0), 1))
        pos_10 = start1 + int(np.searchsorted(graph.neighbors(1), 0))
        assert graph.edge_labels[pos_01] == graph.edge_labels[pos_10]

    def test_invalid_parameters(self, tiny_graph):
        with pytest.raises(ValueError):
            assign_vertex_labels(tiny_graph, n_labels=0)
        with pytest.raises(ValueError):
            assign_random_weights(tiny_graph, low=3.0, high=2.0)
        with pytest.raises(ValueError):
            assign_edge_labels(tiny_graph, n_labels=-1)
