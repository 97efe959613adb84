"""Parallel WRS (Algorithm 4.1): exact batch equivalence and correctness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.errors import ConfigError
from repro.sampling.parallel_wrs import ParallelWRS, integer_accept
from repro.sampling.rng import ThundeRingRNG
from repro.walks.stepper import _accept_threshold


class TestIntegerAccept:
    """Equation 8's integer comparison is exactly p > r."""

    @given(
        w=st.integers(0, 2**20),
        prefix_extra=st.integers(0, 2**28),
        r_star=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_rational_comparison(self, w, prefix_extra, r_star):
        prefix = w + prefix_extra  # inclusive prefix always >= own weight
        if prefix == 0:
            return
        got = integer_accept(
            np.array([w], dtype=np.uint64),
            np.array([prefix], dtype=np.uint64),
            np.array([r_star], dtype=np.uint64),
        )[0]
        # Eq. 6: accept iff w / prefix > r* / (2^32 - 1), in exact integers.
        expected = w * (2**32 - 1) > r_star * prefix
        assert bool(got) == expected

    @given(
        w=st.integers(0, 2**32 - 1),
        prefix=st.integers(0, 2**63),
        r_star=st.integers(0, 2**32 - 1),
        others=st.lists(st.integers(0, 2**63), max_size=3),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_python_integers_up_to_2_63(self, w, prefix, r_star, others):
        """Prefixes past 32 bits take the two-limb path; lanes stay exact."""
        prefixes = [max(prefix, w)] + others
        got = integer_accept(
            np.full(len(prefixes), w, dtype=np.uint64),
            np.array(prefixes, dtype=np.uint64),
            np.full(len(prefixes), r_star, dtype=np.uint64),
        )
        expected = [(w << 32) > r_star * p + w for p in prefixes]
        assert got.tolist() == expected

    def test_zero_weight_never_accepted(self):
        got = integer_accept(
            np.zeros(4, dtype=np.uint64),
            np.arange(1, 5, dtype=np.uint64),
            np.zeros(4, dtype=np.uint64),
        )
        assert not got.any()

    def test_large_prefix_fallback_path(self):
        """Prefixes beyond 32 bits use the two-limb branch."""
        w = np.array([1 << 20, 1], dtype=object)
        prefix = np.array([1 << 40, (1 << 40) + 1], dtype=object)
        r = np.array([0, 2**32 - 1], dtype=object)
        got = integer_accept(w, prefix, r)
        assert got[0]  # r = 0 accepts any positive weight
        assert not got[1]

    def test_fallback_agrees_with_uint64_path(self):
        rng = np.random.default_rng(4)
        w = rng.integers(0, 2**16, size=64).astype(np.uint64)
        prefix = (np.cumsum(w) + 1).astype(np.uint64)
        r = rng.integers(0, 2**32, size=64).astype(np.uint64)
        fast = integer_accept(w, prefix, r)
        slow = integer_accept(
            w.astype(object), prefix.astype(object) + (1 << 33) - (1 << 33), r.astype(object)
        )
        # Force the two-limb path by inflating one prefix beyond 2^32 at
        # the end (it only affects its own lane).
        prefix_big = prefix.astype(object)
        prefix_big[-1] = int(prefix_big[-1]) + (1 << 33)
        mixed = integer_accept(w.astype(object), prefix_big, r.astype(object))
        np.testing.assert_array_equal(fast[:-1], mixed[:-1])
        np.testing.assert_array_equal(fast, slow)


class TestConstantWeightThreshold:
    """PWRS's constant-weight table is Equation 8 at prefix ``w * (j + 1)``."""

    @given(
        w=st.one_of(st.integers(1, 2**12), st.integers(1, 2**32 - 1)),
        within=st.one_of(st.integers(0, 64), st.integers(0, 2**24)),
        low=st.sampled_from([0, 1, 2**32 - 1]),
        above=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_threshold_matches_integer_accept(self, w, within, low, above):
        bound = int(_accept_threshold(np.array([within]))[0])
        # The largest accepted r* and the first rejected one.
        r_star = (2**32 - 2) // (within + 1) + above
        raw = (r_star << 32) | low
        accepted = integer_accept(
            np.array([w], dtype=np.uint64),
            np.array([w * (within + 1)], dtype=np.uint64),
            np.array([r_star], dtype=np.uint64),
        )[0]
        assert bool(accepted) == (not above)
        assert (raw < bound) == bool(accepted)

    @given(
        w=st.integers(2**31, 2**32 - 1),
        within=st.integers(1, 2**20),
        r_star=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_on_the_two_limb_path(self, w, within, r_star):
        """``w * (j + 1) >= 2^32``: integer_accept splits the prefix into limbs."""
        prefix = w * (within + 1)
        assert prefix >= 2**32
        accepted = integer_accept(
            np.array([w], dtype=np.uint64),
            np.array([prefix], dtype=np.uint64),
            np.array([r_star], dtype=np.uint64),
        )[0]
        bound = int(_accept_threshold(np.array([within]))[0])
        assert ((r_star << 32) < bound) == bool(accepted)
        assert bool(accepted) == (r_star <= (2**32 - 2) // (within + 1))


class TestParallelWRSStateful:
    def test_requires_positive_k(self):
        with pytest.raises(ConfigError):
            ParallelWRS(0, ThundeRingRNG(1))

    def test_requires_enough_lanes(self):
        with pytest.raises(ConfigError):
            ParallelWRS(8, ThundeRingRNG(4))

    def test_oversized_batch_rejected(self):
        sampler = ParallelWRS(2, ThundeRingRNG(2))
        with pytest.raises(ValueError):
            sampler.consume(np.arange(3), np.ones(3, dtype=np.uint64))

    def test_empty_stream_yields_none(self):
        sampler = ParallelWRS(4, ThundeRingRNG(4))
        assert sampler.result() is None

    def test_zero_weights_yield_none(self):
        sampler = ParallelWRS(4, ThundeRingRNG(4, seed=1))
        sampler.consume(np.arange(4), np.zeros(4, dtype=np.uint64))
        assert sampler.result() is None

    def test_reset_clears_reservoir_not_rng(self):
        rng = ThundeRingRNG(4, seed=3)
        sampler = ParallelWRS(4, rng)
        sampler.consume(np.arange(4), np.ones(4, dtype=np.uint64))
        counter_before = rng.counter
        sampler.reset()
        assert sampler.result() is None
        assert rng.counter == counter_before


def _sample_stream(sampler: ParallelWRS, items: np.ndarray, weights: np.ndarray):
    """Feed one whole stream to ``sampler``, ``k`` items per cycle."""
    sampler.reset()
    for start in range(0, items.size, sampler.k):
        batch = slice(start, start + sampler.k)
        sampler.consume(items[batch], weights[batch])
    return sampler.result()


class TestDistribution:
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_selection_probability_proportional_to_weight(self, k):
        weights = np.array([1, 3, 6, 10, 30], dtype=np.uint64)
        items = np.arange(weights.size)
        sampler = ParallelWRS(k, ThundeRingRNG(k, seed=101))
        counts = np.zeros(weights.size)
        n_trials = 30_000
        for _ in range(n_trials):
            counts[_sample_stream(sampler, items, weights)] += 1
        expected = weights.astype(float) / weights.sum() * n_trials
        __, p_value = stats.chisquare(counts, expected)
        assert p_value > 1e-4, f"k={k}: counts {counts} vs expected {expected}"

    def test_k_invariance(self):
        """The sampling distribution is identical for every k (Section 4.1)."""
        weights = np.array([2, 5, 1, 8], dtype=np.uint64)
        items = np.arange(4)
        distributions = []
        for k in (1, 2, 8):
            sampler = ParallelWRS(k, ThundeRingRNG(k, seed=55))
            counts = np.zeros(4)
            for _ in range(20_000):
                counts[_sample_stream(sampler, items, weights)] += 1
            distributions.append(counts)
        # Homogeneity test across k values.
        table = np.stack(distributions)
        __, p_value, *_ = stats.chi2_contingency(table)
        assert p_value > 1e-4
