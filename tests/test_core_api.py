"""Public API: LightRW facade, queries, results, comparisons."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import LightRW
from repro.core.compare import compare_engines
from repro.core.queries import make_queries, sample_queries
from repro.core.results import latency_box_stats
from repro.errors import ConfigError, QueryError
from repro.graph.generators import path_graph
from repro.obs import Observer
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.ppr import RestartWalk
from repro.walks.uniform import UniformWalk


class TestMakeQueries:
    def test_default_all_walkable(self, tiny_graph):
        starts = make_queries(tiny_graph, shuffle=False)
        np.testing.assert_array_equal(np.sort(starts), [0, 1, 2, 3])

    def test_shuffled_deterministic(self, labeled_graph):
        a = make_queries(labeled_graph, seed=4)
        b = make_queries(labeled_graph, seed=4)
        np.testing.assert_array_equal(a, b)
        c = make_queries(labeled_graph, seed=5)
        assert not np.array_equal(a, c)

    def test_subset(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=10)
        assert starts.size == 10

    def test_wraps_past_walkable(self, tiny_graph):
        starts = make_queries(tiny_graph, n_queries=11)
        assert starts.size == 11
        assert (tiny_graph.degrees[starts] > 0).all()

    def test_no_walkable_vertices(self):
        graph = path_graph(1)
        with pytest.raises(QueryError):
            make_queries(graph)

    def test_invalid_count(self, tiny_graph):
        with pytest.raises(QueryError):
            make_queries(tiny_graph, n_queries=0)


class TestSampleQueries:
    def test_pass_through_when_small(self):
        starts = np.arange(10)
        sampled, total = sample_queries(starts, 20)
        assert total == 10
        np.testing.assert_array_equal(sampled, starts)

    def test_subsample(self):
        starts = np.arange(1000)
        sampled, total = sample_queries(starts, 100, seed=1)
        assert total == 1000
        assert sampled.size == 100
        assert np.unique(sampled).size == 100

    def test_invalid(self):
        with pytest.raises(QueryError):
            sample_queries(np.arange(5), 0)


class TestLatencyStats:
    def test_five_numbers(self):
        stats = latency_box_stats(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert stats.minimum == 1.0
        assert stats.maximum == 100.0
        assert stats.median == 3.0
        assert stats.q1 <= stats.median <= stats.q3

    def test_empty(self):
        with pytest.raises(ValueError):
            latency_box_stats(np.array([]))

    def test_unit_scale(self):
        row = latency_box_stats(np.array([1e-6, 2e-6])).as_row(unit_scale=1e6)
        assert row["min"] == pytest.approx(1.0)


class TestLightRWFacade:
    def test_invalid_backend(self, labeled_graph):
        with pytest.raises(ConfigError):
            LightRW(labeled_graph, backend="gpu")

    @pytest.mark.parametrize("scale", [0, -3, 2.5, "64"])
    def test_invalid_hardware_scale(self, labeled_graph, scale):
        """A scale the model cannot apply is refused, not silently ignored."""
        with pytest.raises(ConfigError, match="hardware_scale"):
            LightRW(labeled_graph, hardware_scale=scale)

    @pytest.mark.parametrize("backend", ["fpga-model", "cpu-baseline"])
    def test_run_defaults(self, labeled_graph, backend):
        engine = LightRW(labeled_graph, backend=backend, hardware_scale=64, seed=2)
        result = engine.run(UniformWalk(), 5, max_sampled_queries=64)
        assert result.backend == backend
        assert result.total_steps > 0
        assert result.kernel_s > 0
        assert result.steps_per_second > 0
        assert 0 <= result.pcie_fraction < 1

    def test_cycle_backend_small(self, labeled_graph):
        engine = LightRW(labeled_graph, backend="fpga-cycle", hardware_scale=64, seed=2)
        starts = make_queries(labeled_graph, n_queries=8, seed=2)
        result = engine.run(UniformWalk(), 4, starts=starts)
        assert result.num_queries == 8
        assert result.paths.shape[0] == 8
        assert result.query_latency_s.shape == (8,)

    def test_fpga_backends_agree_on_walks(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=12, seed=6)
        model = LightRW(labeled_graph, backend="fpga-model", hardware_scale=64, seed=6)
        cycle = LightRW(labeled_graph, backend="fpga-cycle", hardware_scale=64, seed=6)
        r_model = model.run(Node2VecWalk(), 5, starts=starts)
        r_cycle = cycle.run(Node2VecWalk(), 5, starts=starts)
        for q in range(12):
            length = r_model.lengths[q]
            np.testing.assert_array_equal(
                r_model.paths[q, : length + 1], r_cycle.paths[q, : length + 1]
            )
            assert r_cycle.lengths[q] == length

    def test_query_sampling_extrapolates(self, labeled_graph):
        engine = LightRW(labeled_graph, backend="fpga-model", hardware_scale=64, seed=1)
        full = make_queries(labeled_graph, seed=1)
        result = engine.run(UniformWalk(), 5, starts=full, max_sampled_queries=32)
        assert result.num_queries == full.size
        assert result.paths.shape[0] == 32  # functional sample only

    def test_cpu_setup_separated(self, labeled_graph):
        engine = LightRW(labeled_graph, backend="cpu-baseline", hardware_scale=64)
        result = engine.run(UniformWalk(), 5, max_sampled_queries=64)
        assert result.setup_s > 0
        assert result.end_to_end_s == pytest.approx(
            result.kernel_s + result.setup_s + result.pcie_s
        )

    def test_pcie_excluded_option(self, labeled_graph):
        # PCIe is charged on the FPGA backends only, and never in kernel_s.
        fpga = LightRW(labeled_graph, backend="fpga-model", hardware_scale=64)
        result = fpga.run(UniformWalk(), 5, max_sampled_queries=32)
        assert result.pcie_s > 0
        assert result.end_to_end_s == pytest.approx(
            result.kernel_s + result.setup_s + result.pcie_s
        )
        cpu = LightRW(labeled_graph, backend="cpu-baseline", hardware_scale=64)
        assert cpu.run(UniformWalk(), 5, max_sampled_queries=32).pcie_s == 0.0


class TestCompareEngines:
    def test_report_structure(self, labeled_graph):
        report = compare_engines(
            labeled_graph,
            MetaPathWalk([0, 1, 2]),
            5,
            hardware_scale=64,
            max_sampled_queries=64,
            include_pwrs_variant=True,
        )
        assert report.speedup > 0
        assert report.thunderrw.kernel_s > 0 and report.lightrw.kernel_s > 0
        assert report.pwrs_on_cpu_speedup is not None
        assert report.thunderrw_pwrs.sampler == "pwrs"
        assert report.thunderrw_pwrs.num_queries == report.lightrw.num_queries
        assert report.power_efficiency_improvement() > 0

    def test_fpga_wins_on_scaled_platform(self, labeled_graph):
        report = compare_engines(
            labeled_graph, Node2VecWalk(), 10, hardware_scale=256,
            max_sampled_queries=64,
        )
        assert report.thunderrw.kernel_s > report.lightrw.kernel_s

    def test_no_pwrs_variant_by_default(self, labeled_graph):
        report = compare_engines(
            labeled_graph, UniformWalk(), 3, hardware_scale=64, max_sampled_queries=32
        )
        assert report.thunderrw_pwrs is None
        assert report.pwrs_on_cpu_speedup is None


class TestRestartFacade:
    def test_restart_walk_produces_walks_and_timing(self, labeled_graph):
        engine = LightRW(labeled_graph, hardware_scale=64, seed=3)
        result = engine.run(RestartWalk(0.2), 10, max_sampled_queries=64)
        assert result.algorithm == "restart"
        assert result.total_steps > 0
        assert result.kernel_s > 0
        assert result.query_latency_s is not None

    def test_restart_walk_paths_teleport_to_start(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=16, seed=4)
        engine = LightRW(labeled_graph, hardware_scale=64, seed=4)
        result = engine.run(RestartWalk(0.5), 12, starts=starts)
        for q in range(min(16, result.paths.shape[0])):
            path = result.paths[q][result.paths[q] >= 0]
            for u, v in zip(path[:-1], path[1:]):
                assert labeled_graph.has_edge(int(u), int(v)) or v == path[0]

    def test_restart_walk_requires_model_backend(self, labeled_graph):
        """Refused at plan time: these backends would walk it without restarts."""
        starts = make_queries(labeled_graph, n_queries=8, seed=1)
        for backend in ("cpu-baseline", "fpga-cycle"):
            engine = LightRW(labeled_graph, backend=backend, hardware_scale=64)
            observer = Observer()
            with pytest.raises(ConfigError, match="restart"):
                engine.run(RestartWalk(0.3), 5, starts=starts, observer=observer)
            assert observer.spans.find("shard") == []
