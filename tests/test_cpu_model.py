"""CPU baseline: LLC hit model, cost model, profiling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.costmodel import CPUSpec, cpu_time_for_session
from repro.errors import ConfigError
from repro.cpu.memory_model import llc_hit_ratio
from repro.cpu.profiling import profile_session
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.stepper import InverseTransformSampler, PWRSSampler, run_walks
from repro.walks.uniform import UniformWalk


class TestLLCHitRatio:
    def test_everything_fits(self):
        assert llc_hit_ratio(np.array([3, 2, 1]), 8, 1000) == 1.0

    def test_nothing_fits(self):
        assert llc_hit_ratio(np.array([3, 2, 1]), 8, 0.5) == 0.0

    def test_hot_prefix(self):
        # Capacity holds 1 of 3 vertices; the hottest has 6/10 of visits.
        degrees = np.array([6.0, 3.0, 1.0])
        assert llc_hit_ratio(degrees, 8, 8) == pytest.approx(0.6)

    def test_monotone_in_capacity(self):
        degrees = np.random.default_rng(0).zipf(2.0, 500).astype(float)
        ratios = [llc_hit_ratio(degrees, 8, c) for c in (8, 64, 512, 4096)]
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            llc_hit_ratio(np.array([1.0]), 0, 100)


@pytest.fixture
def session(labeled_graph):
    starts = labeled_graph.nonzero_degree_vertices()[:64]
    return run_walks(labeled_graph, starts, 10, UniformWalk(), InverseTransformSampler(3))


@pytest.fixture
def n2v_session(labeled_graph):
    starts = labeled_graph.nonzero_degree_vertices()[:64]
    return run_walks(
        labeled_graph, starts, 10, Node2VecWalk(), InverseTransformSampler(3)
    )


class TestCostModel:
    def test_components_positive(self, session):
        timing = cpu_time_for_session(session, UniformWalk(), CPUSpec())
        assert timing.seq_time_s > 0
        assert timing.rand_time_s > 0
        assert timing.instr_time_s > 0
        assert timing.wall_s > timing.exec_s
        assert timing.steps_per_second > 0

    def test_threads_divide_busy_time(self, session):
        t8 = cpu_time_for_session(session, UniformWalk(), CPUSpec(n_threads=8))
        t16 = cpu_time_for_session(session, UniformWalk(), CPUSpec(n_threads=16))
        assert t8.exec_s == pytest.approx(2 * t16.exec_s)

    def test_pwrs_variant_drops_intermediate_traffic(self, session):
        itx = cpu_time_for_session(session, UniformWalk(), CPUSpec(), "inverse-transform")
        pwrs = cpu_time_for_session(session, UniformWalk(), CPUSpec(), "pwrs")
        assert pwrs.seq_time_s < itx.seq_time_s
        assert pwrs.instr_time_s > itx.instr_time_s  # per-item RNG cost

    def test_node2vec_costs_more_per_step(self, session, n2v_session):
        uniform = cpu_time_for_session(session, UniformWalk(), CPUSpec())
        n2v = cpu_time_for_session(n2v_session, Node2VecWalk(), CPUSpec())
        assert (n2v.exec_s / n2v.total_steps) > (uniform.exec_s / uniform.total_steps)

    def test_scaled_platform_slows_model(self, session):
        """Shrinking the LLC with the dataset raises the miss ratio."""
        unscaled = cpu_time_for_session(session, UniformWalk(), CPUSpec())
        # The fixture graph is tiny; only a large divisor shrinks the LLC
        # below its footprint.
        scaled = cpu_time_for_session(session, UniformWalk(), CPUSpec().scaled(8192))
        assert scaled.llc_miss_ratio > unscaled.llc_miss_ratio
        assert scaled.exec_s > unscaled.exec_s

    def test_extrapolation(self, session):
        base = cpu_time_for_session(session, UniformWalk(), CPUSpec())
        doubled = cpu_time_for_session(
            session, UniformWalk(), CPUSpec(), total_queries=2 * session.num_queries
        )
        assert doubled.total_steps == 2 * base.total_steps
        assert doubled.exec_s == pytest.approx(2 * base.exec_s)
        with pytest.raises(ValueError):
            cpu_time_for_session(session, UniformWalk(), CPUSpec(), total_queries=1)

    def test_query_latencies(self, session):
        timing = cpu_time_for_session(session, UniformWalk(), CPUSpec())
        assert timing.query_latency_s.shape == (session.num_queries,)
        moved = session.lengths > 0
        assert (timing.query_latency_s[moved] > 0).all()

    def test_rejects_traceless_session(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:4]
        bare = run_walks(
            labeled_graph, starts, 0, UniformWalk(), InverseTransformSampler(0)
        )
        with pytest.raises(ValueError):
            cpu_time_for_session(bare, UniformWalk(), CPUSpec())

    def test_unknown_sampler(self, session):
        with pytest.raises(ValueError):
            cpu_time_for_session(session, UniformWalk(), CPUSpec(), sampler="rejection")


class TestEngine:
    """ThunderRW is ``run_walks`` plus ``cpu_time_for_session``."""

    def test_run_produces_walks_and_timing(self, labeled_graph):
        algorithm = MetaPathWalk([0, 1, 2])
        starts = labeled_graph.nonzero_degree_vertices()[:32]
        walked = run_walks(labeled_graph, starts, 6, algorithm, InverseTransformSampler(3))
        timing = cpu_time_for_session(walked, algorithm, CPUSpec().scaled(64))
        assert walked.num_queries == 32
        assert timing.total_steps == walked.total_steps
        assert timing.wall_s > 0
        assert timing.steps_per_second > 0

    def test_invalid_sampler_kind(self, labeled_graph):
        # Each walk strategy's name is a cost label; other labels are refused.
        starts = labeled_graph.nonzero_degree_vertices()[:8]
        for sampler in (InverseTransformSampler(3), PWRSSampler(4, 3)):
            walked = run_walks(labeled_graph, starts, 3, UniformWalk(), sampler)
            timing = cpu_time_for_session(
                walked, UniformWalk(), CPUSpec(), sampler=walked.sampler
            )
            assert timing.sampler == sampler.name
            with pytest.raises(ValueError, match="unknown sampler 'rejection'"):
                cpu_time_for_session(walked, UniformWalk(), CPUSpec(), "rejection")


class TestProfiling:
    def test_profile_fractions_valid(self, session):
        timing = cpu_time_for_session(session, UniformWalk(), CPUSpec().scaled(64))
        profile = profile_session(timing, "Uniform", "labeled")
        assert 0 <= profile.llc_miss_ratio <= 1
        assert 0 <= profile.memory_bound <= 1
        assert 0 <= profile.retiring <= 1
        assert profile.memory_bound + profile.retiring <= 1.01

    def test_profile_row_format(self, session):
        timing = cpu_time_for_session(session, UniformWalk(), CPUSpec())
        row = profile_session(timing, "Uniform", "labeled").as_row()
        assert row["Application"] == "Uniform"
        assert row["LLC Miss"].endswith("%")


class TestCPUSpecValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"hardware_scale": 0},
            {"hardware_scale": 2.5},
            {"n_threads": 0},
            {"llc_bytes": 1.5e6},
            {"interleave_width": -1},
            {"frequency_hz": float("nan")},
            {"frequency_hz": 0.0},
            {"instr_rate": float("inf")},
            {"random_mlp": 0.0},
            {"dram_stream_bw": -1.0},
            {"dram_latency_s": float("nan")},
            {"llc_latency_s": -1e-9},
            {"engine_init_s": float("inf")},
            {"instr_per_edge": -1.0},
            {"frequency_hz": "fast"},
        ],
    )
    def test_refused_at_construction(self, changes):
        with pytest.raises(ConfigError, match=next(iter(changes))):
            CPUSpec(**changes)

    def test_scaled_refuses_zero(self):
        with pytest.raises(ConfigError):
            CPUSpec().scaled(0)

    def test_boundary_values_accepted(self):
        spec = CPUSpec(
            hardware_scale=np.int64(4), dram_latency_s=0.0, engine_init_s=0, n_threads=1
        )
        assert spec.scaled_llc_bytes == spec.llc_bytes / 4
