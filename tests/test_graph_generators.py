"""Synthetic graph generators."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.graph.generators import (
    chung_lu_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    rmat_graph,
    star_graph,
)


class TestRMAT:
    def test_shape(self):
        graph = rmat_graph(8, edge_factor=4, seed=1)
        assert graph.num_vertices == 256
        assert graph.num_edges == 1024

    def test_deterministic(self):
        a = rmat_graph(7, seed=42)
        b = rmat_graph(7, seed=42)
        np.testing.assert_array_equal(a.col_index, b.col_index)
        np.testing.assert_array_equal(a.row_index, b.row_index)

    def test_seed_changes_graph(self):
        a = rmat_graph(7, seed=1)
        b = rmat_graph(7, seed=2)
        assert not np.array_equal(a.col_index, b.col_index)

    def test_power_law_skew(self):
        """RMAT's quadrant bias concentrates degree on low vertex ids."""
        graph = rmat_graph(12, edge_factor=8, seed=5)
        degrees = np.sort(graph.degrees)[::-1]
        top_share = degrees[: graph.num_vertices // 100].sum() / graph.num_edges
        assert top_share > 0.15  # top 1% of vertices hold >15% of edges

    def test_deduplicate(self):
        dup = rmat_graph(6, edge_factor=16, seed=3, deduplicate=False)
        simple = rmat_graph(6, edge_factor=16, seed=3, deduplicate=True)
        assert simple.num_edges < dup.num_edges

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat_graph(4, a=0.9, b=0.2, c=0.2)

    def test_negative_scale(self):
        with pytest.raises(ValueError):
            rmat_graph(-1)

    def test_scale_zero(self):
        graph = rmat_graph(0, edge_factor=3, seed=1, deduplicate=True)
        assert graph.num_vertices == 1


def _graph_digest(graph) -> str:
    """SHA-256 over the CSR arrays and the labels (dtype, shape and bytes)."""
    digest = hashlib.sha256()
    for array in (
        graph.row_index,
        graph.col_index,
        graph.edge_weights,
        graph.edge_labels,
        graph.vertex_labels,
    ):
        if array is None:
            digest.update(b"none")
            continue
        array = np.ascontiguousarray(array)
        digest.update(array.dtype.str.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestPinnedGraphs:
    """The paper's graphs are the same bytes whatever builds them.

    Every modeled figure and walk digest rests on these arrays, so a faster
    generator or CSR builder must reproduce them exactly.
    """

    @pytest.mark.parametrize(
        "build, expected",
        [
            (
                lambda: rmat_graph(12, seed=1),
                "bc34c51d68f026504bc925ec64698dbacc2302f4a2c7367539ff0b0345b19672",
            ),
            (
                lambda: rmat_graph(10, seed=2, directed=False, deduplicate=True),
                "0e9e62134db7b97ef9d141439acdbd2c772c9871610bf6b053e6906cd12ae42a",
            ),
            (
                lambda: load_dataset("livejournal", 1024),
                "8931fb948fe59e43e7c7119c82149a80c3f30372c280307de15f3e7ef22f6832",
            ),
            (
                lambda: load_dataset("us-patents", 1024),
                "5a2be45e7f38981d9ca76b8c1b9ce705f5cc78d8f67fb71c43be1ca7263e0c02",
            ),
        ],
        ids=["rmat-12", "rmat-10-undirected-dedup", "livejournal-1024", "us-patents-1024"],
    )
    def test_digest(self, build, expected):
        assert _graph_digest(build()) == expected


class TestChungLu:
    def test_average_degree_calibrated(self):
        for target in (5.0, 14.0, 38.0):
            graph = chung_lu_graph(4096, avg_degree=target, seed=2, directed=False)
            assert graph.average_degree == pytest.approx(target, rel=0.25)

    def test_directed(self):
        graph = chung_lu_graph(512, avg_degree=8.0, seed=1, directed=True)
        assert graph.directed
        assert graph.average_degree == pytest.approx(8.0, rel=0.3)

    def test_skewed(self):
        graph = chung_lu_graph(4096, avg_degree=10.0, seed=3)
        assert graph.max_degree > 10 * graph.average_degree

    def test_no_self_loops(self):
        graph = chung_lu_graph(256, avg_degree=6.0, seed=4)
        sources = np.repeat(np.arange(graph.num_vertices), graph.degrees)
        assert not np.any(sources == graph.col_index)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            chung_lu_graph(0, avg_degree=5)
        with pytest.raises(ValueError):
            chung_lu_graph(10, avg_degree=0)


class TestErdosRenyi:
    def test_average_degree(self):
        graph = erdos_renyi_graph(2048, avg_degree=10.0, seed=1)
        assert graph.average_degree == pytest.approx(10.0, rel=0.15)

    def test_degree_concentration(self):
        """ER degrees concentrate near the mean, unlike power laws."""
        graph = erdos_renyi_graph(2048, avg_degree=10.0, seed=2)
        assert graph.max_degree < 5 * graph.average_degree


class TestMicroGraphs:
    def test_path(self):
        graph = path_graph(5)
        np.testing.assert_array_equal(graph.degrees, [1, 1, 1, 1, 0])
        assert graph.has_edge(2, 3)

    def test_cycle(self):
        graph = cycle_graph(4)
        assert graph.has_edge(3, 0)
        np.testing.assert_array_equal(graph.degrees, np.ones(4))

    def test_star(self):
        graph = star_graph(6)
        assert graph.degree(0) == 6
        assert graph.degree(3) == 0

    def test_star_undirected(self):
        graph = star_graph(6, directed=False)
        assert graph.degree(0) == 6
        assert graph.degree(3) == 1

    def test_complete(self):
        graph = complete_graph(4)
        assert graph.num_edges == 12
        np.testing.assert_array_equal(graph.degrees, np.full(4, 3))
