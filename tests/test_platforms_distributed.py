"""Platform presets, the distributed model, and the alias CPU mode."""

from __future__ import annotations

import pytest

from repro.cpu.costmodel import CPUSpec, cpu_time_for_session
from repro.errors import ConfigError
from repro.fpga.distributed import DistributedLightRW, NetworkSpec
from repro.fpga.perfmodel import FPGAPerfModel
from repro.fpga.platforms import HBM_PSEUDO_CHANNEL, U280, u250_config, u280_hbm_config
from repro.walks.stepper import InverseTransformSampler, PWRSSampler, run_walks
from repro.walks.uniform import UniformWalk


@pytest.fixture
def session(labeled_graph):
    starts = labeled_graph.nonzero_degree_vertices()[:64]
    return run_walks(labeled_graph, starts, 10, UniformWalk(), PWRSSampler(16, 4))


class TestPlatforms:
    def test_u250_defaults(self):
        config = u250_config()
        assert config.n_instances == 4
        assert config.k == 16

    def test_u250_overrides(self):
        config = u250_config(k=8)
        assert config.k == 8

    def test_u280_channels(self):
        config = u280_hbm_config(32)
        assert config.n_instances == 32
        assert config.dram.bus_bytes == 32
        assert config.dram is HBM_PSEUDO_CHANNEL

    def test_hbm_aggregate_beats_ddr(self, labeled_graph, session):
        """32 pseudo-channels out-run 4 DDR channels on the same walks."""
        ddr = FPGAPerfModel(u250_config(), UniformWalk()).evaluate(session)
        hbm_session = run_walks(
            labeled_graph,
            labeled_graph.nonzero_degree_vertices()[:64],
            10,
            UniformWalk(),
            PWRSSampler(8, 4),
        )
        hbm = FPGAPerfModel(u280_hbm_config(32), UniformWalk()).evaluate(hbm_session)
        assert hbm.kernel_s < ddr.kernel_s

    def test_u280_device(self):
        assert U280.dsps == 9_024


class TestDistributed:
    def test_invalid_boards(self):
        with pytest.raises(ConfigError):
            DistributedLightRW(u250_config(), UniformWalk(), 0)

    def test_single_board_no_migration(self, session):
        model = DistributedLightRW(u250_config(), UniformWalk(), 1)
        outcome = model.evaluate(session)
        assert outcome.migrated_steps == 0
        assert outcome.network_s == 0.0
        assert outcome.total_steps == session.total_steps

    def test_migration_fraction_grows_with_boards(self, session):
        fractions = []
        for boards in (2, 4, 8):
            outcome = DistributedLightRW(u250_config(), UniformWalk(), boards).evaluate(
                session
            )
            fractions.append(outcome.migration_fraction)
        assert fractions == sorted(fractions)
        # Hash partitioning migrates ~ (B-1)/B of steps.
        assert fractions[0] == pytest.approx(0.5, abs=0.15)

    def test_kernel_shrinks_with_boards(self, session):
        one = DistributedLightRW(u250_config(), UniformWalk(), 1).evaluate(session)
        eight = DistributedLightRW(u250_config(), UniformWalk(), 8).evaluate(session)
        assert eight.kernel_s < one.kernel_s

    def test_slow_network_dominates(self, session):
        slow = NetworkSpec(bandwidth_bytes_per_s=1e6, per_message_cycles=1000)
        outcome = DistributedLightRW(
            u250_config(), UniformWalk(), 4, network=slow
        ).evaluate(session)
        assert outcome.network_s > outcome.kernel_s
        assert outcome.wall_s >= outcome.network_s

    def test_scaling_curve(self, session):
        sweep = DistributedLightRW(u250_config(), UniformWalk(), 1).scaling_curve(
            session, [1, 2, 4]
        )
        assert [o.n_boards for o in sweep] == [1, 2, 4]

    def test_requires_trace(self, labeled_graph):
        bare = run_walks(
            labeled_graph,
            labeled_graph.nonzero_degree_vertices()[:4],
            0,
            UniformWalk(),
            PWRSSampler(16, 0),
        )
        with pytest.raises(ConfigError):
            DistributedLightRW(u250_config(), UniformWalk(), 2).evaluate(bare)


class TestAliasCPUMode:
    def test_alias_between_itx_and_pwrs_traffic(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:64]
        session = run_walks(
            labeled_graph, starts, 10, UniformWalk(), InverseTransformSampler(4)
        )
        spec = CPUSpec()
        itx = cpu_time_for_session(session, UniformWalk(), spec, "inverse-transform")
        alias = cpu_time_for_session(session, UniformWalk(), spec, "alias")
        pwrs = cpu_time_for_session(session, UniformWalk(), spec, "pwrs")
        # Alias builds a bigger table (more traffic + instructions than ITX).
        assert alias.seq_time_s > itx.seq_time_s
        assert alias.instr_time_s > itx.instr_time_s
        # PWRS has no intermediate traffic at all.
        assert pwrs.seq_time_s < itx.seq_time_s

    def test_engine_accepts_alias(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:8]
        session = run_walks(
            labeled_graph, starts, 3, UniformWalk(), InverseTransformSampler(0)
        )
        timing = cpu_time_for_session(session, UniformWalk(), CPUSpec(), "alias")
        assert timing.sampler == "alias"
