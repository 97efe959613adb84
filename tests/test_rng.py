"""ThundeRiNG-substitute RNG: determinism, equivalence, statistical quality."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from repro.sampling.rng import (
    ThundeRingRNG,
    derive_seed,
    splitmix64,
    splitmix64_inplace,
)


class TestSplitMix64:
    def test_scalar_matches_array(self):
        values = np.array([0, 1, 2, 12345, 2**63], dtype=np.uint64)
        array_out = splitmix64(values)
        for value, expected in zip(values.tolist(), array_out.tolist()):
            assert splitmix64(int(value)) == expected

    def test_avalanche(self):
        # Flipping one input bit flips roughly half the output bits.
        base = splitmix64(0xDEADBEEF)
        flipped = splitmix64(0xDEADBEEF ^ 1)
        assert 16 <= bin(base ^ flipped).count("1") <= 48

    def test_returns_python_int_for_scalar(self):
        assert isinstance(splitmix64(7), int)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_salt_changes_seed(self):
        seeds = {derive_seed(42, salt) for salt in range(100)}
        assert len(seeds) == 100

    def test_order_matters(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def _uniform_block(rng: ThundeRingRNG, n_cycles: int) -> np.ndarray:
    """``(n_cycles, n_lanes)`` floats in ``[0, 1)``: the raw draws over 2^32."""
    return rng.uint32_block(n_cycles) / 2**32


class TestThundeRingRNG:
    def test_block_matches_scalar_path(self):
        a = ThundeRingRNG(8, seed=99)
        b = ThundeRingRNG(8, seed=99)
        block = a.uint32_block(16)
        singles = np.stack([b.next_uint32() for _ in range(16)])
        np.testing.assert_array_equal(block, singles)

    def test_counter_advances(self):
        rng = ThundeRingRNG(4, seed=1)
        rng.uint32_block(10)
        assert rng.counter == 10
        rng.next_uint32()
        assert rng.counter == 11

    def test_reset_replays(self):
        rng = ThundeRingRNG(4, seed=5)
        first = rng.uint32_block(8)
        rng.reset()
        np.testing.assert_array_equal(first, rng.uint32_block(8))

    def test_different_seeds_differ(self):
        a = ThundeRingRNG(4, seed=1).uint32_block(4)
        b = ThundeRingRNG(4, seed=2).uint32_block(4)
        assert not np.array_equal(a, b)

    def test_fork_is_decorrelated(self):
        rng = ThundeRingRNG(4, seed=1)
        fork = rng.fork(7)
        assert not np.array_equal(rng.uint32_block(4), fork.uint32_block(4))

    def test_uniform_range(self):
        uniforms = _uniform_block(ThundeRingRNG(16, seed=3), 100)
        assert uniforms.min() >= 0.0
        assert uniforms.max() < 1.0

    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            ThundeRingRNG(0)

    def test_negative_cycles(self):
        with pytest.raises(ValueError):
            ThundeRingRNG(2).uint32_block(-1)

    def test_per_lane_uniformity_chi_square(self):
        """Every lane's output is uniform over 16 buckets (chi-square)."""
        rng = ThundeRingRNG(8, seed=11)
        block = rng.uint32_block(4000)
        for lane in range(8):
            buckets = np.bincount(block[:, lane] >> np.uint32(28), minlength=16)
            __, p_value = stats.chisquare(buckets)
            assert p_value > 1e-4, f"lane {lane} failed uniformity (p={p_value})"

    def test_cross_lane_independence(self):
        """Pairwise lane correlations are near zero."""
        rng = ThundeRingRNG(8, seed=13)
        block = _uniform_block(rng, 5000)
        corr = np.corrcoef(block.T)
        off_diagonal = corr[~np.eye(8, dtype=bool)]
        assert np.abs(off_diagonal).max() < 0.05

    def test_serial_correlation_within_lane(self):
        rng = ThundeRingRNG(2, seed=17)
        series = _uniform_block(rng, 5000)[:, 0]
        lagged = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert abs(lagged) < 0.05

    def test_mean_is_half(self):
        rng = ThundeRingRNG(4, seed=23)
        assert abs(_uniform_block(rng, 2000).mean() - 0.5) < 0.02


class TestSplitMix64InPlace:
    @pytest.mark.parametrize("with_scratch", [False, True])
    def test_matches_scalar(self, with_scratch):
        values = np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 12345], dtype=np.uint64)
        z = values.copy()
        scratch = np.empty_like(z) if with_scratch else None
        out = splitmix64_inplace(z, scratch=scratch)
        assert out is z
        assert [int(v) for v in z] == [splitmix64(int(v)) for v in values]

    def test_writes_only_z_and_scratch(self):
        z = np.arange(1 << 12, dtype=np.uint64)
        expected = splitmix64(z.copy())
        scratch = np.zeros_like(z)
        tracemalloc.start()
        try:
            splitmix64_inplace(z, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(z, expected)
        assert scratch.any()  # the mix ran in scratch
        assert peak < z.nbytes // 8  # and made no buffer of its own
