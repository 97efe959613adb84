"""DRAM timing model and dynamic burst planning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fpga.burst import (
    FIXED_LONG,
    SHORT_ONLY,
    BurstStrategy,
    plan_bursts,
)
from repro.fpga.dram import DRAMTimings, PEAK_BANDWIDTH_GBPS, burst_bandwidth_gbps


class TestDRAMTimings:
    def test_bandwidth_monotone_in_burst_length(self):
        timings = DRAMTimings()
        bandwidths = [burst_bandwidth_gbps(timings, 1 << i) for i in range(7)]
        assert all(b1 <= b2 + 1e-9 for b1, b2 in zip(bandwidths, bandwidths[1:]))

    def test_peak_reached_at_long_bursts(self):
        timings = DRAMTimings()
        assert burst_bandwidth_gbps(timings, 64) == pytest.approx(
            PEAK_BANDWIDTH_GBPS, rel=0.01
        )

    def test_short_burst_far_below_peak(self):
        timings = DRAMTimings()
        assert burst_bandwidth_gbps(timings, 1) < 0.25 * PEAK_BANDWIDTH_GBPS

    def test_request_cycles(self):
        timings = DRAMTimings()
        assert timings.request_cycles(4) == 4 + timings.request_overhead_cycles

    def test_invalid_burst(self):
        with pytest.raises(ConfigError):
            burst_bandwidth_gbps(DRAMTimings(), 0)

    @pytest.mark.parametrize(
        "changes",
        [
            {"latency_cycles": float("nan")},
            {"latency_cycles": 60.5},
            {"latency_cycles": -1},
            {"request_overhead_cycles": 5.0},
            {"long_pipe_extra_cycles": -2},
            {"bus_bytes": 0},
            {"frequency_hz": float("nan")},
            {"frequency_hz": float("inf")},
            {"frequency_hz": 0.0},
            {"peak_bandwidth_gbps": float("nan")},
            {"peak_bandwidth_gbps": -17.57},
            {"peak_bandwidth_gbps": float("inf")},
        ],
    )
    def test_invalid_timings_refused(self, changes):
        with pytest.raises(ConfigError, match=next(iter(changes))):
            DRAMTimings(**changes)

    @pytest.mark.parametrize("bus_bytes", [2, 6, 10])
    def test_bus_splitting_an_edge_record_refused(self, bus_bytes):
        with pytest.raises(ConfigError, match="bus_bytes must be a multiple"):
            DRAMTimings(bus_bytes=bus_bytes)

    @pytest.mark.parametrize("bus_bytes", [4, 32, 64])
    def test_bus_of_whole_edge_records_accepted(self, bus_bytes):
        assert DRAMTimings(bus_bytes=bus_bytes).bus_bytes == bus_bytes

    def test_zero_cycle_counts_accepted(self):
        timings = DRAMTimings(latency_cycles=0, request_overhead_cycles=0, long_pipe_extra_cycles=0)
        assert timings.request_cycles(4) == 4


class TestBurstStrategy:
    def test_labels(self):
        assert BurstStrategy(1, 32).label == "b1+b32"
        assert SHORT_ONLY.label == "b1+b0"
        assert FIXED_LONG.label == "b0+b32"

    def test_dynamic_flag(self):
        assert BurstStrategy(1, 32).is_dynamic
        assert not SHORT_ONLY.is_dynamic
        assert not FIXED_LONG.is_dynamic

    def test_invalid(self):
        with pytest.raises(ConfigError):
            BurstStrategy(0, 0)
        with pytest.raises(ConfigError):
            BurstStrategy(8, 4)  # short > long
        with pytest.raises(ConfigError):
            BurstStrategy(-1, 4)


class TestPlanBursts:
    def test_paper_example(self):
        """Figure 7's worked example with S1 = 16 units, S2 = 1 unit.

        The paper's units are abstract; with a 64-byte bus, a request of 33
        units (33 x 64 B) splits into two 16-beat longs and one short.
        """
        strategy = BurstStrategy(short_beats=1, long_beats=16)
        plan = plan_bursts(np.array([33 * 64, 2 * 64]), strategy)
        np.testing.assert_array_equal(plan.n_long, [2, 0])
        np.testing.assert_array_equal(plan.n_short, [1, 2])

    def test_unused_data_bounded_by_short_burst(self):
        """Section 5.2's bound: loaded - valid <= S2 per request."""
        strategy = BurstStrategy(short_beats=1, long_beats=32)
        sizes = np.arange(0, 5000, 7)
        plan = plan_bursts(sizes, strategy)
        waste = plan.loaded_bytes - plan.valid_bytes
        assert (waste >= 0).all()
        assert (waste < strategy.short_beats * 64).all()

    def test_loaded_equals_ceil_c_over_s2(self):
        strategy = BurstStrategy(short_beats=1, long_beats=32)
        sizes = np.array([1, 63, 64, 65, 2047, 2048, 2049, 10_000])
        plan = plan_bursts(sizes, strategy)
        expected = -(-sizes // 64) * 64
        np.testing.assert_array_equal(plan.loaded_bytes, expected)

    def test_short_only(self):
        plan = plan_bursts(np.array([200]), SHORT_ONLY)
        assert plan.n_long[0] == 0
        assert plan.n_short[0] == 4  # ceil(200/64)

    def test_fixed_long_overfetches(self):
        plan = plan_bursts(np.array([100]), FIXED_LONG)
        assert plan.n_long[0] == 1
        assert plan.loaded_bytes[0] == 2048
        assert plan.valid_ratio == pytest.approx(100 / 2048)

    def test_zero_bytes_cost_nothing(self):
        plan = plan_bursts(np.array([0]), BurstStrategy(1, 32))
        assert plan.interface_cycles[0] == 0
        assert plan.loaded_bytes[0] == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            plan_bursts(np.array([-1]), SHORT_ONLY)

    def test_interface_cycles_include_long_pipe_extra(self):
        timings = DRAMTimings()
        strategy = BurstStrategy(short_beats=1, long_beats=32)
        plan = plan_bursts(np.array([2048]), strategy, timings)
        expected = 32 + timings.request_overhead_cycles + timings.long_pipe_extra_cycles
        assert plan.interface_cycles[0] == pytest.approx(expected)

    def test_device_bandwidth_floor(self):
        """Huge bursts cannot stream faster than the DDR4 core."""
        timings = DRAMTimings()
        strategy = BurstStrategy(short_beats=0, long_beats=256)
        plan = plan_bursts(np.array([256 * 64]), strategy, timings)
        floor = 256 * timings.min_cycles_per_beat
        assert plan.interface_cycles[0] >= floor - 1e-9

    @given(
        sizes=st.lists(st.integers(0, 100_000), min_size=1, max_size=50),
        short=st.integers(1, 4),
        long=st.integers(4, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_dynamic_plan_invariants(self, sizes, short, long):
        strategy = BurstStrategy(short_beats=short, long_beats=long)
        plan = plan_bursts(np.asarray(sizes), strategy)
        # Everything requested is loaded.
        assert (plan.loaded_bytes >= plan.valid_bytes).all()
        # Waste bounded by one short burst.
        assert (plan.loaded_bytes - plan.valid_bytes < short * 64).all()
        # Long bursts cover exactly floor(c / S1).
        np.testing.assert_array_equal(
            plan.n_long, np.asarray(sizes) // (long * 64)
        )


class TestPlanDtypes:
    @pytest.mark.parametrize(
        "strategy", [SHORT_ONLY, FIXED_LONG, BurstStrategy(1, 32)]
    )
    def test_every_plan_field_stays_int64(self, strategy):
        """The bandwidth-cap maximum must not drift cycles to float64."""
        sizes = np.array([0, 1, 63, 64, 100, 2048, 256 * 64, 10**6])
        plan = plan_bursts(sizes, strategy)
        for field in ("n_long", "n_short", "loaded_bytes", "valid_bytes",
                      "interface_cycles"):
            assert getattr(plan, field).dtype == np.int64, field

    def test_bandwidth_floor_rounds_up_to_whole_cycles(self):
        timings = DRAMTimings()
        strategy = BurstStrategy(short_beats=0, long_beats=256)
        plan = plan_bursts(np.array([256 * 64]), strategy, timings)
        floor = 256 * timings.min_cycles_per_beat
        assert plan.interface_cycles[0] == int(np.ceil(floor))
