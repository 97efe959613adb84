"""The scalar inverse-transform table on fixed-point weights and 32-bit draws."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.sampling.inverse_transform import InverseTransformTable


class TestInverseTransform:
    def test_boundaries(self):
        table = InverseTransformTable(np.array([1, 2, 3]))
        assert table.sample(0) == 0
        # CDF = [1, 3, 6]; r* = 2^31 -> target 3 -> first entry > 3 is idx 2.
        assert table.sample(1 << 31) == 2
        assert table.sample((1 << 32) - 1) == 2

    def test_zero_weight_items_skipped(self):
        table = InverseTransformTable(np.array([0, 1, 0, 1]))
        draws = [table.sample(int(r)) for r in np.linspace(0, 2**32 - 1, 100)]
        assert set(draws) == {1, 3}

    def test_all_zero_returns_minus_one(self):
        table = InverseTransformTable(np.zeros(3, dtype=np.uint64))
        assert table.sample(1 << 31) == -1
        assert table.sample(0) == -1

    def test_empty(self):
        table = InverseTransformTable(np.array([]))
        assert len(table) == 0
        assert table.sample(1 << 31) == -1

    def test_uniform_out_of_range(self):
        table = InverseTransformTable(np.ones(2, dtype=np.uint64))
        with pytest.raises(ValueError):
            table.sample(1 << 32)
        with pytest.raises(ValueError):
            table.sample(-1)

    def test_negative_weights(self):
        with pytest.raises(ValueError):
            InverseTransformTable(np.array([1, -2]))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            InverseTransformTable(np.ones((2, 2), dtype=np.uint64))

    def test_float_weights_rejected(self):
        with pytest.raises(ValueError, match="fixed-point"):
            InverseTransformTable(np.array([0.5, 1.0]))

    def test_distribution(self):
        weights = np.array([256, 1024, 1280])
        table = InverseTransformTable(weights)
        r_star = np.random.default_rng(2).integers(0, 1 << 32, 30_000)
        draws = np.array([table.sample(int(r)) for r in r_star])
        counts = np.bincount(draws, minlength=3)
        expected = weights / weights.sum() * draws.size
        __, p_value = stats.chisquare(counts, expected)
        assert p_value > 1e-4
