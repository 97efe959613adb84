"""Cycle-accurate simulator: kernel semantics and cross-backend agreement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.fpga.accelerator import LightRWAcceleratorSim
from repro.fpga.burst import FIXED_LONG, SHORT_ONLY, BurstStrategy
from repro.fpga.config import LightRWConfig
from repro.fpga.dram import DRAMTimings
from repro.fpga.perfmodel import FPGAPerfModel
from repro.fpga.sim.clock import Simulator
from repro.fpga.sim.fifo import FIFO
from repro.fpga.sim.module import Module
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.stepper import PWRSSampler, run_walks
from repro.walks.uniform import UniformWalk


class TestFIFO:
    def test_two_phase_visibility(self):
        fifo = FIFO("f", depth=4)
        fifo.push(1)
        assert not fifo.can_pop()  # not visible until commit
        fifo.commit()
        assert fifo.can_pop()
        assert fifo.pop() == 1

    def test_capacity_counts_pending(self):
        fifo = FIFO("f", depth=2)
        fifo.push(1)
        fifo.push(2)
        assert not fifo.can_push()
        with pytest.raises(SimulationError):
            fifo.push(3)

    def test_order_preserved(self):
        fifo = FIFO("f", depth=8)
        for i in range(5):
            fifo.push(i)
        fifo.commit()
        assert [fifo.pop() for _ in range(5)] == list(range(5))

    def test_pop_empty_raises(self):
        fifo = FIFO("f", depth=2)
        with pytest.raises(SimulationError):
            fifo.pop()
        with pytest.raises(SimulationError):
            fifo.peek()

    def test_stats(self):
        fifo = FIFO("f", depth=4)
        fifo.push(1)
        fifo.push(2)
        fifo.commit()
        assert fifo.total_pushed == 2
        assert fifo.max_occupancy == 2

    def test_invalid_depth(self):
        with pytest.raises(SimulationError):
            FIFO("f", depth=0)


class TestSimulator:
    def test_deadlock_detection(self):
        class Stuck(Module):
            def tick(self, cycle):
                pass

        sim = Simulator([Stuck("stuck")], [])
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until(lambda: False, max_cycles=100)

    def test_requires_modules(self):
        with pytest.raises(SimulationError):
            Simulator([], [])

    def test_run_until(self):
        class Counter(Module):
            def __init__(self):
                super().__init__("counter")
                self.value = 0

            def tick(self, cycle):
                self.value += 1

        counter = Counter()
        sim = Simulator([counter], [])
        cycles = sim.run_until(lambda: counter.value >= 10)
        assert cycles == 10


@pytest.fixture
def small_setup(labeled_graph):
    config = LightRWConfig(n_instances=2, max_inflight=8).scaled(64)
    starts = labeled_graph.nonzero_degree_vertices()[:24]
    return labeled_graph, config, starts


class TestWalkEquivalence:
    """The cycle simulator's walks are bit-identical to the fast engine."""

    @pytest.mark.parametrize("algorithm,steps", [
        (UniformWalk(), 6),
        (MetaPathWalk([0, 1, 2]), 5),
        (Node2VecWalk(2.0, 0.5), 6),
    ], ids=["uniform", "metapath", "node2vec"])
    def test_identical_paths(self, small_setup, algorithm, steps):
        graph, config, starts = small_setup
        sim = LightRWAcceleratorSim(graph, config, algorithm, seed=21)
        result = sim.run(starts, steps)
        session = run_walks(
            graph, starts, steps, algorithm, PWRSSampler(k=config.k, seed=21)
        )
        for q in range(starts.size):
            np.testing.assert_array_equal(result.path(q), session.path(q), err_msg=f"query {q}")

    def test_all_queries_complete(self, small_setup):
        graph, config, starts = small_setup
        result = LightRWAcceleratorSim(graph, config, UniformWalk(), seed=1).run(starts, 5)
        assert len(result.paths) == starts.size
        assert set(result.query_latency_cycles) == set(range(starts.size))


class TestTimingAgreement:
    """Cycle counts agree with the analytic model within the fill tolerance."""

    @pytest.mark.parametrize("algorithm,steps", [
        (UniformWalk(), 8),
        (Node2VecWalk(2.0, 0.5), 6),
    ], ids=["uniform", "node2vec"])
    def test_kernel_cycles_close(self, small_setup, algorithm, steps):
        graph, config, starts = small_setup
        result = LightRWAcceleratorSim(graph, config, algorithm, seed=5).run(starts, steps)
        session = run_walks(
            graph, starts, steps, algorithm, PWRSSampler(k=config.k, seed=5)
        )
        model = FPGAPerfModel(config, algorithm).evaluate(session)
        ratio = result.cycles / model.kernel_cycles
        assert 0.6 < ratio < 1.7, (result.cycles, model.kernel_cycles)

    @pytest.mark.parametrize("strategy", [
        SHORT_ONLY, FIXED_LONG, BurstStrategy(1, 8), BurstStrategy(1, 32),
        BurstStrategy(2, 16),
    ], ids=lambda strategy: strategy.label)
    @pytest.mark.parametrize("bus_bytes", [32, 64])
    @pytest.mark.parametrize("algorithm", [
        UniformWalk(), Node2VecWalk(2.0, 0.5),
    ], ids=["uniform", "node2vec"])
    def test_byte_accounting_matches(self, small_setup, algorithm, bus_bytes, strategy):
        from dataclasses import replace

        graph, config, starts = small_setup
        # A small previous-stream buffer makes Node2Vec re-fetch membership
        # lists, so those chunks are planned and counted too.
        config = replace(
            config, strategy=strategy, dram=DRAMTimings(bus_bytes=bus_bytes),
            prev_buffer_edges=8,
        )
        result = LightRWAcceleratorSim(graph, config, algorithm, seed=5).run(starts, 8)
        session = run_walks(graph, starts, 8, algorithm, PWRSSampler(config.k, 5))
        model = FPGAPerfModel(config, algorithm).evaluate(session)
        sim_valid = sum(s.bytes_valid for s in result.instances)
        sim_loaded = sum(s.bytes_loaded for s in result.instances)
        assert sim_valid == model.bytes_valid
        assert sim_loaded == model.bytes_loaded

    @pytest.mark.parametrize("policy", ["degree", "none"])
    @pytest.mark.parametrize("algorithm", [
        UniformWalk(), Node2VecWalk(2.0, 0.5),
    ], ids=["uniform", "node2vec"])
    def test_cache_stats_match(self, small_setup, policy, algorithm):
        from dataclasses import replace

        graph, config, starts = small_setup
        config = replace(config, cache_policy=policy)
        result = LightRWAcceleratorSim(graph, config, algorithm, seed=5).run(starts, 8)
        session = run_walks(graph, starts, 8, algorithm, PWRSSampler(config.k, 5))
        model = FPGAPerfModel(config, algorithm).evaluate(session)
        sim_hits = sum(s.cache_hits for s in result.instances)
        sim_total = sum(s.cache_hits + s.cache_misses for s in result.instances)
        assert sim_total == model.cache_accesses
        if policy == "none":
            assert sim_hits == model.cache_hits == 0
        # The pipelined simulator can reorder accesses of different queries
        # slightly relative to the model's step-major replay, moving a few
        # hits across the boundary.
        assert abs(sim_hits - model.cache_hits) <= max(3, 0.05 * sim_total)


class TestConfigurationVariants:
    def test_short_only_strategy_runs(self, small_setup):
        from repro.fpga.burst import SHORT_ONLY
        from dataclasses import replace

        graph, config, starts = small_setup
        config = replace(config, strategy=SHORT_ONLY)
        result = LightRWAcceleratorSim(graph, config, UniformWalk(), seed=2).run(starts, 4)
        assert result.total_steps > 0
        for stats in result.instances:
            assert stats.valid_ratio > 0.5  # shorts waste at most a beat

    def test_cache_policies_run(self, small_setup):
        from dataclasses import replace

        graph, config, starts = small_setup
        for policy in ("degree", "none"):
            variant = replace(config, cache_policy=policy)
            result = LightRWAcceleratorSim(graph, variant, UniformWalk(), seed=3).run(
                starts[:8], 3
            )
            assert result.total_steps > 0

    def test_single_instance(self, labeled_graph):
        config = LightRWConfig(n_instances=1, max_inflight=4).scaled(64)
        starts = labeled_graph.nonzero_degree_vertices()[:6]
        result = LightRWAcceleratorSim(labeled_graph, config, UniformWalk(), seed=4).run(
            starts, 4
        )
        assert len(result.paths) == 6

    def test_sink_start(self, tiny_graph):
        config = LightRWConfig(n_instances=1, max_inflight=2, cache_entries=4)
        result = LightRWAcceleratorSim(tiny_graph, config, UniformWalk(), seed=0).run(
            np.array([4]), 5
        )
        assert result.paths[0] == [4]


class TestUtilizationReport:
    def test_memory_bound_profile(self, small_setup):
        """On a memory-bound workload, DRAM is the busiest resource."""
        graph, config, starts = small_setup
        result = LightRWAcceleratorSim(graph, config, UniformWalk(), seed=7).run(
            starts, 8
        )
        report = result.utilization_report()
        assert report, "expected a non-empty report"
        for name, value in report.items():
            assert 0.0 <= value <= 1.0, (name, value)
        assert report["dram"] == max(report.values())

    def test_empty_instances_skipped(self, labeled_graph):
        config = LightRWConfig(n_instances=4, max_inflight=4).scaled(64)
        # Two queries on four instances leave two instances idle.
        starts = labeled_graph.nonzero_degree_vertices()[:2]
        result = LightRWAcceleratorSim(labeled_graph, config, UniformWalk(), seed=1).run(
            starts, 3
        )
        report = result.utilization_report()
        assert report  # computed over the active instances only


class TestBackpressure:
    """Tiny FIFO depths force constant stalls; the pipeline must neither
    deadlock nor change the sampled walks."""

    @pytest.mark.parametrize("depth", [2, 4])
    @pytest.mark.parametrize("algorithm", [
        UniformWalk(), Node2VecWalk(2.0, 0.5), MetaPathWalk([0, 1, 2]),
    ], ids=["uniform", "node2vec", "metapath"])
    def test_tiny_fifos_still_correct(self, labeled_graph, depth, algorithm):
        from dataclasses import replace

        config = LightRWConfig(
            n_instances=1, max_inflight=8, fifo_depth=depth
        ).scaled(64)
        starts = labeled_graph.nonzero_degree_vertices()[:12]
        result = LightRWAcceleratorSim(labeled_graph, config, algorithm, seed=2).run(
            starts, 5, max_cycles=2_000_000
        )
        session = run_walks(labeled_graph, starts, 5, algorithm, PWRSSampler(16, 2))
        for q in range(12):
            np.testing.assert_array_equal(result.path(q), session.path(q))

    def test_deeper_fifos_never_slower(self, labeled_graph):
        """Backpressure costs cycles; relaxing it must not hurt."""
        starts = labeled_graph.nonzero_degree_vertices()[:12]
        cycles = []
        for depth in (2, 8, 64):
            config = LightRWConfig(
                n_instances=1, max_inflight=8, fifo_depth=depth
            ).scaled(64)
            result = LightRWAcceleratorSim(
                labeled_graph, config, UniformWalk(), seed=3
            ).run(starts, 6)
            cycles.append(result.cycles)
        assert cycles[0] >= cycles[1] >= cycles[2]


def test_cycle_sim_rejects_table_ablation(labeled_graph):
    """use_wrs=False is an analytic-model-only ablation."""
    from repro.errors import ConfigError

    config = LightRWConfig().with_ablation(wrs=False)
    with pytest.raises(ConfigError, match="streaming WRS"):
        LightRWAcceleratorSim(labeled_graph, config, UniformWalk())


def test_cycle_sim_rejects_restart(labeled_graph):
    """The simulated pipeline has no restart coin; it refuses the walk."""
    from repro.errors import ConfigError
    from repro.walks.ppr import RestartWalk

    with pytest.raises(ConfigError, match="restart"):
        LightRWAcceleratorSim(labeled_graph, LightRWConfig(), RestartWalk(0.3))


class TestPlannerConsistency:
    """The cycle sim's Burst cmd Generator and the analytic planner must
    agree on burst counts and byte totals for any degree."""

    @pytest.mark.parametrize("long_beats", [0, 8, 32])
    def test_chunk_plan_matches_plan_bursts(self, labeled_graph, long_beats):
        import numpy as np

        from repro.fpga.burst import SHORT_ONLY, BurstStrategy, plan_bursts
        from repro.fpga.modules import BurstCmdGenerator, DRAMChannelSim
        from repro.fpga.sim.fifo import FIFO
        from repro.graph.csr import EDGE_RECORD_BYTES

        strategy = (
            SHORT_ONLY if long_beats == 0
            else BurstStrategy(short_beats=1, long_beats=long_beats)
        )
        config = LightRWConfig(strategy=strategy)
        generator = BurstCmdGenerator(
            config, DRAMChannelSim(config), FIFO("i", 4), FIFO("m", 4)
        )
        rng = np.random.default_rng(0)
        degrees = np.concatenate([[0, 1, 15, 16, 17, 512, 513],
                                  rng.integers(0, 3000, size=40)])
        plan = plan_bursts(degrees * EDGE_RECORD_BYTES, strategy, config.dram)
        for index, degree in enumerate(degrees.tolist()):
            chunks = generator._plan(int(degree))
            n_long = sum(1 for port, *_ in chunks if port == "long")
            n_short = sum(1 for port, *_ in chunks if port == "short")
            covered = sum(edges for *_, edges in chunks)
            assert covered == degree
            if strategy.is_dynamic:
                assert n_long == plan.n_long[index], degree
                assert n_short == plan.n_short[index], degree
            loaded = sum(
                beats * config.dram.bus_bytes for __, beats, __ in chunks
            )
            assert loaded == plan.loaded_bytes[index], degree
