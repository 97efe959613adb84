"""Cross-cutting integration scenarios through the public API.

Each test exercises a realistic multi-module flow a downstream user would
run — generation, persistence, walking on several backends, analysis —
asserting the invariants that tie the subsystems together.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CPUSpec,
    LightRW,
    LightRWConfig,
    MetaPathWalk,
    Node2VecWalk,
    UniformWalk,
    compare_engines,
    load_dataset,
    make_queries,
    rmat_graph,
)
from repro.graph.io import load_csr_npz, save_csr_npz
from repro.graph.labels import assign_random_weights, assign_vertex_labels
from repro.graph.reorder import degree_sort_reorder
from repro.walks.stepper import PWRSSampler, run_walks


class TestPersistAndWalk:
    def test_saved_graph_walks_identically(self, tmp_path, labeled_graph):
        """Persistence round-trips preserve walk determinism exactly."""
        path = tmp_path / "graph.npz"
        save_csr_npz(labeled_graph, path)
        reloaded = load_csr_npz(path)
        starts = labeled_graph.nonzero_degree_vertices()[:24]
        original = run_walks(
            labeled_graph, starts, 8, Node2VecWalk(), PWRSSampler(16, 3)
        )
        replayed = run_walks(reloaded, starts, 8, Node2VecWalk(), PWRSSampler(16, 3))
        np.testing.assert_array_equal(original.paths, replayed.paths)


class TestAllAlgorithmsAllBackends:
    @pytest.mark.parametrize("algorithm", [
        UniformWalk(),
        MetaPathWalk([0, 1, 2]),
        Node2VecWalk(2.0, 0.5),
    ], ids=["uniform", "metapath", "node2vec"])
    def test_backends_agree_functionally(self, labeled_graph, algorithm):
        starts = make_queries(labeled_graph, n_queries=10, seed=4)
        config = LightRWConfig(n_instances=2, max_inflight=8)
        model = LightRW(labeled_graph, config=config, backend="fpga-model",
                        hardware_scale=64, seed=4)
        cycle = LightRW(labeled_graph, config=config, backend="fpga-cycle",
                        hardware_scale=64, seed=4)
        r_model = model.run(algorithm, 5, starts=starts)
        r_cycle = cycle.run(algorithm, 5, starts=starts)
        np.testing.assert_array_equal(r_model.lengths, r_cycle.lengths)
        for q in range(10):
            length = r_model.lengths[q]
            np.testing.assert_array_equal(
                r_model.paths[q, : length + 1], r_cycle.paths[q, : length + 1]
            )

    def test_cpu_backend_runs_everything(self, labeled_graph):
        engine = LightRW(labeled_graph, backend="cpu-baseline", hardware_scale=64)
        for algorithm in (UniformWalk(), MetaPathWalk([0, 1]), Node2VecWalk()):
            result = engine.run(algorithm, 4, max_sampled_queries=32)
            assert result.kernel_s > 0


class TestReorderedGraphEndToEnd:
    def test_walks_on_reordered_graph_translate_back(self, labeled_graph):
        """Degree reordering composes with the engine and translates back."""
        reordered = degree_sort_reorder(labeled_graph)
        starts = labeled_graph.nonzero_degree_vertices()[:16]
        engine = LightRW(reordered.graph, hardware_scale=64, seed=5)
        result = engine.run(
            UniformWalk(), 6, starts=reordered.translate_starts(starts)
        )
        translated = reordered.translate_paths_back(result.paths)
        # Every translated transition is an edge of the ORIGINAL graph.
        for q in range(16):
            path = translated[q][translated[q] >= 0]
            assert path[0] == starts[q]
            for u, v in zip(path[:-1], path[1:]):
                assert labeled_graph.has_edge(int(u), int(v))


class TestScaleConsistency:
    def test_speedup_stable_across_sample_sizes(self):
        """Query-sampled extrapolation doesn't change the verdict."""
        graph = load_dataset("livejournal", scale_divisor=1024, seed=7)
        small = compare_engines(
            graph, MetaPathWalk([0, 1, 2, 3]), 5, hardware_scale=1024,
            max_sampled_queries=256, seed=7,
        )
        large = compare_engines(
            graph, MetaPathWalk([0, 1, 2, 3]), 5, hardware_scale=1024,
            max_sampled_queries=2048, seed=7,
        )
        assert small.speedup == pytest.approx(large.speedup, rel=0.35)

    def test_scale_divisors_give_similar_speedups(self):
        """The scaled-platform rule keeps the comparison scale-invariant."""
        speedups = []
        for divisor in (512, 1024):
            graph = load_dataset("livejournal", scale_divisor=divisor, seed=7)
            report = compare_engines(
                graph, MetaPathWalk([0, 1, 2, 3]), 5, hardware_scale=divisor,
                max_sampled_queries=512, seed=7,
            )
            speedups.append(report.speedup)
        ratio = max(speedups) / min(speedups)
        assert ratio < 1.8, speedups


class TestGeneratedGraphPipeline:
    def test_rmat_to_walks_to_stats(self):
        """Generator -> labels -> weights -> walks -> models, end to end."""
        graph = rmat_graph(9, edge_factor=8, seed=11, deduplicate=True)
        graph = assign_vertex_labels(graph, n_labels=3, seed=12)
        graph = assign_random_weights(graph, seed=13)
        engine = LightRW(graph, hardware_scale=32, seed=11,
                         cpu_spec=CPUSpec().scaled(32))
        result = engine.run(MetaPathWalk([0, 1, 2]), 5)
        assert result.total_steps > 0
        breakdown = result.breakdown.detail
        # Dead-end MetaPath steps still perform the row_index lookup, so
        # accesses can exceed the completed-step count.
        assert breakdown.cache_accesses >= result.total_steps
        assert 0 < breakdown.valid_ratio <= 1
        # The paths respect the schema: step t moves to label
        # schema[(t+1) % len], so path position i >= 1 has label
        # schema[i % len] (the start vertex is unconstrained).
        for q in range(min(20, result.paths.shape[0])):
            path = result.paths[q][result.paths[q] >= 0]
            for position, vertex in enumerate(path[1:], start=1):
                expected = [0, 1, 2][position % 3]
                assert graph.vertex_labels[vertex] == expected
