"""Edge-list builders: CSR construction, symmetrization, attributes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.builders import from_edge_list, symmetrize_edges


def _edge_multiset(graph):
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    return sorted(zip(sources.tolist(), graph.col_index.tolist()))


class TestFromEdgeList:
    def test_simple(self):
        graph = from_edge_list(np.array([[1, 0], [0, 1], [0, 2]]), num_vertices=3)
        assert _edge_multiset(graph) == [(0, 1), (0, 2), (1, 0)]

    def test_rows_sorted_by_destination(self):
        graph = from_edge_list(np.array([[0, 5], [0, 1], [0, 3]]), num_vertices=6)
        np.testing.assert_array_equal(graph.neighbors(0), [1, 3, 5])

    def test_infers_num_vertices(self):
        graph = from_edge_list(np.array([[0, 9]]))
        assert graph.num_vertices == 10

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError, match="num_vertices"):
            from_edge_list(np.array([[0, 5]]), num_vertices=3)

    def test_rejects_more_than_2_32_vertices(self):
        # Refused before anything sized by num_vertices is allocated; uint32
        # col_index would otherwise wrap ids of 2**32 and above.
        with pytest.raises(GraphFormatError, match="2\\*\\*32"):
            from_edge_list(np.array([[0, 1]]), num_vertices=2**32 + 1)
        with pytest.raises(GraphFormatError, match="2\\*\\*32"):
            from_edge_list(np.array([[0, 2**32]]))

    def test_rejects_negative_ids(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            from_edge_list(np.array([[-1, 0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(GraphFormatError, match="shape"):
            from_edge_list(np.array([[0, 1, 2]]))

    def test_weights_permuted_with_edges(self):
        edges = np.array([[1, 0], [0, 2], [0, 1]])
        weights = np.array([10.0, 20.0, 30.0], dtype=np.float32)
        graph = from_edge_list(edges, num_vertices=3, weights=weights)
        # After sorting, row 0 is [(0,1,w=30), (0,2,w=20)], row 1 is [(1,0,w=10)].
        np.testing.assert_allclose(graph.neighbor_weights(0), [30.0, 20.0])
        np.testing.assert_allclose(graph.neighbor_weights(1), [10.0])

    def test_edge_labels_permuted_with_edges(self):
        edges = np.array([[1, 0], [0, 2]])
        labels = np.array([7, 9], dtype=np.int16)
        graph = from_edge_list(edges, num_vertices=3, edge_labels=labels)
        assert graph.neighbor_edge_labels(0)[0] == 9
        assert graph.neighbor_edge_labels(1)[0] == 7

    def test_misaligned_weights(self):
        with pytest.raises(GraphFormatError, match="align"):
            from_edge_list(np.array([[0, 1]]), weights=np.array([1.0, 2.0]))

    def test_deduplicate(self):
        edges = np.array([[0, 1], [0, 1], [0, 2], [0, 1]])
        graph = from_edge_list(edges, num_vertices=3, deduplicate=True)
        assert _edge_multiset(graph) == [(0, 1), (0, 2)]

    def test_deduplicate_keeps_first_weight(self):
        edges = np.array([[0, 1], [0, 1]])
        # Equal (src, dst) keys keep their input order, so the first
        # occurrence's weight survives.
        graph = from_edge_list(
            edges, num_vertices=2, weights=np.array([5.0, 9.0]), deduplicate=True
        )
        assert graph.num_edges == 1
        assert graph.neighbor_weights(0)[0] == pytest.approx(5.0)

    def test_empty_edge_list(self):
        graph = from_edge_list(np.zeros((0, 2), dtype=np.int64), num_vertices=4)
        assert graph.num_vertices == 4
        assert graph.num_edges == 0

    def test_undirected_creates_both_arcs(self):
        graph = from_edge_list(np.array([[0, 1], [1, 2]]), num_vertices=3, directed=False)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert graph.has_edge(1, 2) and graph.has_edge(2, 1)
        assert graph.num_edges == 4

    def test_undirected_mirrors_weights(self):
        graph = from_edge_list(
            np.array([[0, 1]]), num_vertices=2, weights=np.array([4.5]), directed=False
        )
        assert graph.neighbor_weights(0)[0] == pytest.approx(4.5)
        assert graph.neighbor_weights(1)[0] == pytest.approx(4.5)

    def test_undirected_self_loop_single_arc(self):
        graph = from_edge_list(np.array([[1, 1]]), num_vertices=2, directed=False)
        assert graph.num_edges == 1

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=0, max_size=60
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_edge_multiset_preserved(self, edges):
        """CSR construction is a permutation of the input edges."""
        array = (
            np.asarray(edges, dtype=np.int64)
            if edges
            else np.zeros((0, 2), dtype=np.int64)
        )
        graph = from_edge_list(array, num_vertices=16)
        assert _edge_multiset(graph) == sorted(map(tuple, array.tolist()))
        assert graph.neighbors_sorted()


def _lexsort_reference(edges, num_vertices, weights, edge_labels, directed, deduplicate):
    """CSR arrays by a stable two-key lexsort: the builder's specification."""
    if not directed:
        mirrored = edges[:, 0] != edges[:, 1]
        edges = np.concatenate([edges, edges[mirrored][:, ::-1]])
        if weights is not None:
            weights = np.concatenate([weights, weights[mirrored]])
        if edge_labels is not None:
            edge_labels = np.concatenate([edge_labels, edge_labels[mirrored]])
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    keep = order
    if deduplicate and order.size:
        ordered = edges[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        keep = order[first]
    counts = np.bincount(edges[keep, 0], minlength=num_vertices)
    return (
        np.concatenate([[0], np.cumsum(counts)]),
        edges[keep, 1].astype(np.uint32),
        None if weights is None else weights[keep],
        None if edge_labels is None else edge_labels[keep],
    )


@st.composite
def _attributed_edge_lists(draw):
    """Multigraph edge lists whose repeated pairs carry distinct attributes."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, 2**20)))
    vertex = st.one_of(
        st.integers(0, n - 1),
        st.integers(max(n - 3, 0), n - 1),
        st.integers(0, min(n - 1, 2)),
    )
    arc = st.one_of(st.tuples(vertex, vertex), vertex.map(lambda v: (v, v)))
    pool = draw(st.lists(arc, min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=80))
    edges = np.array([pool[i] for i in picks], dtype=np.int64).reshape(-1, 2)
    m = edges.shape[0]
    weights = edge_labels = None
    if draw(st.booleans()):
        weights = np.array(draw(st.permutations(range(m))), dtype=np.float32)
    if draw(st.booleans()):
        labels = st.lists(st.integers(-3, 300), min_size=m, max_size=m)
        edge_labels = np.array(draw(labels), dtype=np.int16)
    return edges, n, weights, edge_labels


class TestLexsortEquivalence:
    @given(
        case=_attributed_edge_lists(),
        directed=st.booleans(),
        deduplicate=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_lexsort_reference(self, case, directed, deduplicate):
        """Repeated pairs keep their input order, attributes included."""
        edges, n, weights, edge_labels = case
        graph = from_edge_list(
            edges,
            num_vertices=n,
            weights=weights,
            edge_labels=edge_labels,
            directed=directed,
            deduplicate=deduplicate,
        )
        row_index, col_index, ref_weights, ref_labels = _lexsort_reference(
            edges, n, weights, edge_labels, directed, deduplicate
        )
        np.testing.assert_array_equal(graph.row_index, row_index)
        np.testing.assert_array_equal(graph.col_index, col_index)
        assert graph.col_index.dtype == np.uint32
        for built, expected in ((graph.edge_weights, ref_weights), (graph.edge_labels, ref_labels)):
            if expected is None:
                assert built is None
            else:
                assert built.dtype == expected.dtype
                np.testing.assert_array_equal(built, expected)


class TestSymmetrize:
    def test_mirrors_non_loops(self):
        out = symmetrize_edges(np.array([[0, 1], [2, 2]]))
        assert sorted(map(tuple, out.tolist())) == [(0, 1), (1, 0), (2, 2)]

    def test_bad_shape(self):
        with pytest.raises(GraphFormatError):
            symmetrize_edges(np.array([0, 1]))
