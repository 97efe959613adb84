"""On-chip vertex caches: policies and exact vectorized trace simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fpga.cache import (
    DegreeAwareCache,
    DirectMappedCache,
    FIFOCache,
    LRUCache,
    simulate_degree_aware,
    simulate_direct_mapped,
)


class TestDegreeAwareStateful:
    def test_paper_figure5_behaviour(self):
        """Low-degree vertices cannot evict high-degree residents."""
        cache = DegreeAwareCache(4)
        assert not cache.access(0, degree=10)  # cold miss, cached
        assert cache.access(0, degree=10)  # hit
        # Vertex 4 maps to the same line (4 % 4 == 0) with lower degree:
        assert not cache.access(4, degree=3)  # miss, NOT cached
        assert cache.access(0, degree=10)  # 0 still resident
        # Vertex 8 with higher degree evicts it:
        assert not cache.access(8, degree=20)
        assert not cache.access(0, degree=10)  # 0 was evicted ... and does
        # not displace 8 (degree 10 < 20):
        assert cache.access(8, degree=20)

    def test_tie_keeps_incumbent(self):
        cache = DegreeAwareCache(2)
        cache.access(0, degree=5)
        cache.access(2, degree=5)  # same set, same degree -> not replaced
        assert cache.access(0, degree=5)

    def test_miss_ratio(self):
        cache = DegreeAwareCache(2)
        cache.access(0, 1)
        cache.access(0, 1)
        assert cache.miss_ratio == pytest.approx(0.5)

    def test_capacity_power_of_two(self):
        with pytest.raises(ConfigError):
            DegreeAwareCache(3)


class TestDirectMappedStateful:
    def test_always_replaces(self):
        cache = DirectMappedCache(4)
        assert not cache.access(0)
        assert not cache.access(4)  # evicts 0
        assert not cache.access(0)  # miss again
        assert cache.access(0)


class TestRecencyCaches:
    def test_lru_promotes_on_hit(self):
        cache = LRUCache(4, ways=2)  # 2 sets x 2 ways
        cache.access(0)
        cache.access(2)  # set 0 now holds {0, 2}
        cache.access(0)  # touch 0 -> LRU victim is 2
        cache.access(4)  # evicts 2
        assert cache.access(0)
        assert not cache.access(2)

    def test_fifo_ignores_hits(self):
        cache = FIFOCache(4, ways=2)
        cache.access(0)
        cache.access(2)
        cache.access(0)  # hit does not refresh insertion order
        cache.access(4)  # evicts 0 (oldest inserted)
        assert not cache.access(0)  # miss; reinserting 0 evicts 2
        assert cache.access(4)  # 4 survived both evictions

    def test_ways_must_divide(self):
        for cache_cls in (LRUCache, FIFOCache):
            with pytest.raises(ConfigError, match="ways"):
                cache_cls(4, ways=3)


class TestVectorizedEquivalence:
    """The fast trace simulations must be *exact* vs the stateful caches."""

    @given(
        seed=st.integers(0, 10_000),
        capacity_log=st.integers(0, 17),
        n_lines=st.integers(1, 64),
        spread=st.integers(1, 128),
        trace_len=st.integers(1, 400),
        degree_pool=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=120, deadline=None)
    def test_degree_aware_matches_stateful(
        self, seed, capacity_log, n_lines, spread, trace_len, degree_pool
    ):
        """Capacities from a single set to 2^17 (both set-sort paths), a few
        lines (in pairs that differ only in the top set bit) each shared by
        up to ``spread`` vertices, so sets can be crowded, and degrees up to
        2^31 - 1, all random or drawn from a few values so that many
        accesses tie.  The vertex table is capped at 2^20 entries, which
        thins the spread only above capacity 2^13."""
        rng = np.random.default_rng(seed)
        capacity = 1 << capacity_log
        spread = min(spread, max(1, (1 << 20) >> capacity_log))
        lines = rng.integers(0, capacity, size=n_lines)
        lines = np.concatenate([lines, lines ^ (capacity >> 1)])
        trace = lines[rng.integers(0, lines.size, size=trace_len)]
        trace += capacity * rng.integers(0, spread, size=trace_len)
        if degree_pool is None:
            degrees = rng.integers(0, 2**31, size=spread * capacity)
        else:
            values = rng.choice([0, 1, 2**31 - 1, *rng.integers(0, 2**31, 2)], size=degree_pool)
            degrees = rng.choice(values, size=spread * capacity)
        vector_hits = simulate_degree_aware(trace, degrees, capacity)
        cache = DegreeAwareCache(capacity)
        stateful_hits = np.array(
            [cache.access(int(v), int(degrees[v])) for v in trace]
        )
        np.testing.assert_array_equal(vector_hits, stateful_hits)

    @given(
        seed=st.integers(0, 10_000),
        capacity_log=st.integers(1, 5),
        n_vertices=st.integers(2, 200),
        trace_len=st.integers(1, 400),
    )
    @settings(max_examples=60, deadline=None)
    def test_direct_mapped_matches_stateful(self, seed, capacity_log, n_vertices, trace_len):
        rng = np.random.default_rng(seed)
        capacity = 1 << capacity_log
        trace = rng.integers(0, n_vertices, size=trace_len)
        vector_hits = simulate_direct_mapped(trace, capacity)
        cache = DirectMappedCache(capacity)
        stateful_hits = np.array([cache.access(int(v)) for v in trace])
        np.testing.assert_array_equal(vector_hits, stateful_hits)

    def test_empty_trace(self):
        assert simulate_degree_aware(np.array([]), np.array([1]), 4).size == 0
        assert simulate_direct_mapped(np.array([]), 4).size == 0


class TestPolicyQuality:
    def test_degree_aware_beats_direct_mapped_on_skewed_trace(self):
        """The paper's Figure 11 claim on a synthetic skewed trace."""
        rng = np.random.default_rng(1)
        n_vertices = 1 << 14
        degrees = rng.zipf(2.5, size=n_vertices).clip(max=100_000)
        probs = degrees / degrees.sum()
        trace = rng.choice(n_vertices, size=40_000, p=probs)
        capacity = 1 << 8
        dac_hits = simulate_degree_aware(trace, degrees, capacity).mean()
        dmc_hits = simulate_direct_mapped(trace, capacity).mean()
        assert dac_hits > dmc_hits * 1.5

    def test_all_fits_eventually_all_hits(self):
        """With capacity >= universe, only cold misses remain (DAC)."""
        trace = np.tile(np.arange(16), 10)
        degrees = np.arange(16) + 1
        hits = simulate_degree_aware(trace, degrees, 16)
        assert (~hits).sum() == 16  # one cold miss per vertex
