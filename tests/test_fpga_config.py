"""LightRWConfig validation and derived properties."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fpga.burst import FIXED_LONG, BurstStrategy
from repro.fpga.config import LightRWConfig, PAPER_CACHE_ENTRIES


class TestValidation:
    def test_defaults_match_paper(self):
        config = LightRWConfig()
        assert config.k == 16
        assert config.frequency_hz == 300e6
        assert config.n_instances == 4
        assert config.cache_entries == PAPER_CACHE_ENTRIES == 4096
        assert config.strategy.label == "b1+b32"

    @pytest.mark.parametrize("k", [0, 3, 12, -4, 2.0, "16"])
    def test_k_power_of_two(self, k):
        with pytest.raises(ConfigError):
            LightRWConfig(k=k)

    def test_cache_power_of_two(self):
        for entries in (1000, 0, 1024.0):
            with pytest.raises(ConfigError):
                LightRWConfig(cache_entries=entries)

    def test_positive_frequency(self):
        for frequency in (0, -1.0, float("nan"), float("inf"), "300e6"):
            with pytest.raises(ConfigError, match="frequency"):
                LightRWConfig(frequency_hz=frequency)

    def test_positive_instances(self):
        for n in (0, 1.5, 4.0):
            with pytest.raises(ConfigError, match="n_instances"):
                LightRWConfig(n_instances=n)

    def test_cache_policy_names(self):
        for policy in ("degree", "none"):
            LightRWConfig(cache_policy=policy)
        for policy in ("direct", "lru", "fifo", "random"):
            with pytest.raises(ConfigError, match="cache_policy"):
                LightRWConfig(cache_policy=policy)

    def test_positive_depths(self):
        for depth in (0, 8.0):
            with pytest.raises(ConfigError, match="fifo_depth"):
                LightRWConfig(fifo_depth=depth)
        for inflight in (-1, 8.5):
            with pytest.raises(ConfigError, match="max_inflight"):
                LightRWConfig(max_inflight=inflight)

    def test_prev_buffer_edges_non_negative_integer(self):
        assert LightRWConfig(prev_buffer_edges=0).scaled_prev_buffer_edges == 0
        for edges in (-5, 4096.0):
            with pytest.raises(ConfigError, match="prev_buffer_edges"):
                LightRWConfig(prev_buffer_edges=edges)

    def test_hardware_scale_positive(self):
        for scale in (0, -3, 2.5):
            with pytest.raises(ConfigError, match="hardware_scale"):
                LightRWConfig(hardware_scale=scale)
        with pytest.raises(ConfigError, match="hardware_scale"):
            LightRWConfig().scaled(2.5)


class TestScaledProperties:
    def test_cache_scales_and_stays_power_of_two(self):
        config = LightRWConfig().scaled(512)
        assert config.scaled_cache_entries == 8  # 4096 / 512
        odd = LightRWConfig(cache_entries=4096).scaled(500)
        entries = odd.scaled_cache_entries
        assert entries & (entries - 1) == 0
        assert entries >= 1

    def test_unscaled_passthrough(self):
        config = LightRWConfig()
        assert config.scaled_cache_entries == config.cache_entries
        assert config.scaled_prev_buffer_edges == config.prev_buffer_edges

    def test_prev_buffer_power_law_scaling(self):
        """Degree thresholds scale as V^0.71, not linearly."""
        config = LightRWConfig().scaled(512)
        assert config.scaled_prev_buffer_edges > 4096 // 512  # milder than linear
        assert config.scaled_prev_buffer_edges < 4096
        tiny = LightRWConfig().scaled(10**9)
        assert tiny.scaled_prev_buffer_edges >= 8  # floor

    def test_scaled_returns_copy(self):
        base = LightRWConfig()
        scaled = base.scaled(64)
        assert base.hardware_scale == 1
        assert scaled.hardware_scale == 64
        assert scaled.k == base.k


class TestAblationDerivation:
    def test_wrs_off(self):
        config = LightRWConfig().with_ablation(wrs=False)
        assert not config.use_wrs
        assert config.cache_policy == "degree"  # untouched

    def test_dyb_off_uses_fixed_long(self):
        config = LightRWConfig().with_ablation(dynamic_burst=False)
        assert config.strategy == FIXED_LONG
        assert not config.strategy.is_dynamic

    def test_cache_off(self):
        config = LightRWConfig().with_ablation(cache=False)
        assert config.cache_policy == "none"

    def test_no_changes_returns_same_config(self):
        config = LightRWConfig()
        assert config.with_ablation() is config

    def test_combined_ablation(self):
        config = LightRWConfig().with_ablation(wrs=False, dynamic_burst=False, cache=False)
        assert not config.use_wrs
        assert config.strategy == FIXED_LONG
        assert config.cache_policy == "none"


class TestBurstStrategyEquality:
    def test_frozen_and_comparable(self):
        assert BurstStrategy(1, 32) == BurstStrategy(1, 32)
        assert BurstStrategy(1, 16) != BurstStrategy(1, 32)
        with pytest.raises(Exception):
            BurstStrategy(1, 32).long_beats = 16  # frozen dataclass
