"""Runtime layer: backend registry, query planner, sharded scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import LightRW
from repro.core.queries import make_queries
from repro.errors import ConfigError
from repro.runtime import (
    BackendCapabilities,
    BatchScheduler,
    FPGAModelBackend,
    RuntimeContext,
    backend_names,
    comparison_backends,
    create_backend,
    describe_backends,
    plan_run,
    register_backend,
    resolve_backend,
)
from repro.runtime import backends
from repro.runtime.timing import FPGAModelBreakdown, TimingBreakdown
from repro.walks.node2vec import Node2VecWalk
from repro.walks.ppr import RestartWalk
from repro.walks.uniform import UniformWalk


class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        assert ("fpga-model", "fpga-cycle", "cpu-baseline") == names

    def test_resolve_unknown_is_actionable(self):
        with pytest.raises(ConfigError, match="fpga-model"):
            resolve_backend("gpu")

    def test_descriptions_cover_every_backend(self):
        rows = dict(describe_backends())
        for name in backend_names():
            assert rows[name], name

    def test_comparison_pairs_from_capabilities(self):
        pairs = dict(comparison_backends())
        assert pairs["fpga-model"] == "LightRW"
        assert pairs["cpu-baseline"] == "ThunderRW"
        assert "fpga-cycle" not in pairs

    def test_register_and_unregister_custom_backend(self, labeled_graph, monkeypatch):
        # Register into a copy of the registry; undo() restores the original.
        monkeypatch.setattr(backends, "_REGISTRY", dict(backends._REGISTRY))

        @register_backend
        class EchoBackend(FPGAModelBackend):
            name = "test-echo"
            capabilities = BackendCapabilities(
                description="test double", system_label="Echo"
            )

        assert "test-echo" in backend_names()
        engine = LightRW(labeled_graph, backend="test-echo", hardware_scale=64, seed=3)
        result = engine.run(UniformWalk(), 4, max_sampled_queries=32)
        assert result.backend == "test-echo"
        assert result.total_steps > 0
        monkeypatch.undo()
        with pytest.raises(ConfigError):
            resolve_backend("test-echo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):

            @register_backend
            class Clash(FPGAModelBackend):  # noqa: F811 - intentional clash
                name = "fpga-model"


class TestPlanner:
    def test_shard_partition_is_exact(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=37, seed=1)
        plan = plan_run("fpga-model", UniformWalk(), 3, starts, shards=4)
        assert plan.shard_count == 4
        assert sum(s.num_queries for s in plan.shards) == 37
        assert sum(s.total_queries for s in plan.shards) == plan.total_queries
        offsets = [s.offset for s in plan.shards]
        assert offsets == sorted(offsets)
        rebuilt = np.concatenate([s.starts for s in plan.shards])
        np.testing.assert_array_equal(rebuilt, plan.starts)
        for shard in plan.shards:
            np.testing.assert_array_equal(
                shard.query_ids(),
                np.arange(shard.offset, shard.offset + shard.num_queries),
            )

    def test_shard_count_clamped_to_batch(self, tiny_graph):
        starts = make_queries(tiny_graph, shuffle=False)
        plan = plan_run("fpga-model", UniformWalk(), 3, starts, shards=100)
        assert plan.shard_count == starts.size

    def test_invalid_shards(self, tiny_graph):
        starts = make_queries(tiny_graph, shuffle=False)
        for shards in (0, -1, 2.5, "2"):
            with pytest.raises(ConfigError, match="shards"):
                plan_run("fpga-model", UniformWalk(), 3, starts, shards=shards)

    def test_unknown_backend(self, tiny_graph):
        starts = make_queries(tiny_graph, shuffle=False)
        with pytest.raises(ConfigError, match="got 'warp'"):
            plan_run("warp", UniformWalk(), 3, starts)

    def test_cycle_batch_cap_fails_fast(self):
        cap = resolve_backend("fpga-cycle").capabilities.max_batch_queries
        starts = np.zeros(cap + 1, dtype=np.int64)
        with pytest.raises(ConfigError, match="capped"):
            plan_run("fpga-cycle", UniformWalk(), 2, starts)

    def test_cycle_backend_never_samples(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=50, seed=2)
        plan = plan_run("fpga-cycle", UniformWalk(), 2, starts, max_sampled_queries=8)
        assert plan.num_sampled == 50
        assert plan.total_queries == 50

    def test_model_backend_samples_and_extrapolates(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=50, seed=2)
        plan = plan_run("fpga-model", UniformWalk(), 2, starts, max_sampled_queries=8)
        assert plan.num_sampled == 8
        assert plan.total_queries == 50

    def test_restart_requires_capability(self, tiny_graph):
        starts = make_queries(tiny_graph, shuffle=False)
        with pytest.raises(ConfigError, match="restart"):
            plan_run("cpu-baseline", RestartWalk(0.2), 3, starts)


class TestShardParity:
    """Same seed => bit-identical paths, whatever the shard layout."""

    @pytest.mark.parametrize("backend", ["fpga-model", "fpga-cycle", "cpu-baseline"])
    def test_one_vs_four_shards(self, labeled_graph, backend):
        starts = make_queries(labeled_graph, n_queries=24, seed=6)
        engine = LightRW(labeled_graph, backend=backend, hardware_scale=64, seed=6)
        one = engine.run(Node2VecWalk(), 6, starts=starts, shards=1)
        if not resolve_backend(backend).capabilities.shardable:
            # The cycle simulator walks and costs in one pass: refused at
            # plan time instead of costing shards separately.
            with pytest.raises(ConfigError, match="single shard"):
                engine.run(Node2VecWalk(), 6, starts=starts, shards=4)
            return
        four = engine.run(Node2VecWalk(), 6, starts=starts, shards=4)
        width = min(one.paths.shape[1], four.paths.shape[1])
        np.testing.assert_array_equal(one.paths[:, :width], four.paths[:, :width])
        np.testing.assert_array_equal(one.lengths, four.lengths)
        assert one.total_steps == four.total_steps
        assert one.kernel_s == four.kernel_s

    def test_parallel_pool_matches_sequential(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=32, seed=9)
        engine = LightRW(labeled_graph, hardware_scale=64, seed=9)
        seq = engine.run(Node2VecWalk(), 8, starts=starts, shards=4)
        pooled = engine.run(Node2VecWalk(), 8, starts=starts, shards=4, mode="thread")
        np.testing.assert_array_equal(seq.paths, pooled.paths)
        np.testing.assert_array_equal(seq.lengths, pooled.lengths)

    def test_fpga_backends_agree_through_runtime(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=12, seed=6)
        model = LightRW(labeled_graph, backend="fpga-model", hardware_scale=64, seed=6)
        cycle = LightRW(labeled_graph, backend="fpga-cycle", hardware_scale=64, seed=6)
        r_model = model.run(Node2VecWalk(), 5, starts=starts, shards=3)
        r_cycle = cycle.run(Node2VecWalk(), 5, starts=starts)
        for q in range(12):
            length = r_model.lengths[q]
            assert r_cycle.lengths[q] == length
            np.testing.assert_array_equal(
                r_model.paths[q, : length + 1], r_cycle.paths[q, : length + 1]
            )

    def test_restart_shard_parity(self, labeled_graph):
        engine = LightRW(labeled_graph, hardware_scale=64, seed=4)
        starts = make_queries(labeled_graph, n_queries=16, seed=4)
        one = engine.run(RestartWalk(0.3), 10, starts=starts, shards=1)
        four = engine.run(RestartWalk(0.3), 10, starts=starts, shards=4)
        np.testing.assert_array_equal(one.paths, four.paths)
        np.testing.assert_array_equal(one.lengths, four.lengths)


class TestMergedReports:
    def test_merged_breakdown_totals(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=20, seed=3)
        engine = LightRW(labeled_graph, hardware_scale=64, seed=3)
        merged = engine.run(UniformWalk(), 5, starts=starts, shards=4)
        assert isinstance(merged.breakdown, TimingBreakdown)
        assert isinstance(merged.breakdown, FPGAModelBreakdown)
        assert merged.breakdown.total_steps == merged.total_steps
        assert merged.breakdown.num_queries == 20
        assert merged.query_latency_s.shape == (20,)
        assert merged.breakdown.detail.cache_accesses > 0
        assert 0 < merged.breakdown.detail.valid_ratio <= 1
        components = merged.breakdown.components()
        assert components["kernel"] > 0
        assert "sampler" in components

    def test_merged_session_is_global(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=20, seed=3)
        engine = LightRW(labeled_graph, hardware_scale=64, seed=3)
        merged = engine.run(UniformWalk(), 5, starts=starts, shards=4)
        assert merged.session is not None
        assert merged.session.num_queries == 20
        assert merged.session.graph is labeled_graph
        seen = np.concatenate([r.query_ids for r in merged.session.records])
        assert seen.max() == 19
        # Step-aligned: one record per step, exactly as one shard records.
        single = engine.run(UniformWalk(), 5, starts=starts, shards=1)
        assert len(merged.session.records) == len(single.session.records)
        for got, want in zip(merged.session.records, single.session.records):
            assert got.step == want.step
            np.testing.assert_array_equal(got.query_ids, want.query_ids)
            np.testing.assert_array_equal(got.curr, want.curr)
            np.testing.assert_array_equal(got.next_vertex, want.next_vertex)

    def test_scheduler_rejects_empty_plan(self, labeled_graph):
        backend = create_backend(
            "fpga-model",
            RuntimeContext(
                graph=labeled_graph,
                config=LightRW(labeled_graph).config,
                cpu_spec=LightRW(labeled_graph).cpu_spec,
                seed=0,
            ),
        )
        plan = plan_run(
            "fpga-model", UniformWalk(), 3, make_queries(labeled_graph, n_queries=4)
        )
        object.__setattr__(plan, "shards", ())
        with pytest.raises(ValueError):
            BatchScheduler().execute(backend, plan)

    def test_cycle_merge_keeps_instances(self, labeled_graph):
        starts = make_queries(labeled_graph, n_queries=16, seed=2)
        engine = LightRW(labeled_graph, backend="fpga-cycle", hardware_scale=64, seed=2)
        merged = engine.run(UniformWalk(), 4, starts=starts)
        native = merged.breakdown.detail
        assert len(native.instances) == engine.config.n_instances
        assert native.utilization_report()
        assert set(native.paths) == set(range(16))
