"""The vectorized lane math must equal ThundeRingRNG bit-for-bit.

This identity is the foundation of the cross-backend walk equality: the
batch sampler computes lane draws with broadcast arithmetic
(`_query_lane_keys` / `_lane_uint32`), the scalar sampler instantiates
real :class:`ThundeRingRNG` objects — here we pin them to each other
directly, not just through end-to-end walks.  The batch sampler draws
by hardware cycle (`_cycle_draws`): each query takes ``ceil(d / k)`` rows
of ``k`` lanes, the last row partly spare, as ``ParallelWRS.consume`` does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builders import from_edge_list
from repro.sampling.parallel_wrs import ParallelWRS
from repro.sampling.rng import ThundeRingRNG, derive_seed
from repro.walks.base import gather_step, quantize_weights, unit_weights
from repro.walks.stepper import PWRSSampler, _cycle_draws, _lane_uint32, _query_lane_keys


@pytest.mark.parametrize("seed", [0, 7, 123456789])
@pytest.mark.parametrize("k", [1, 4, 16])
def test_lane_keys_match_rng_construction(seed, k):
    query_ids = np.array([0, 1, 5, 1000, 2**31], dtype=np.int64)
    keys = _query_lane_keys(seed, query_ids, k)
    for row, qid in enumerate(query_ids.tolist()):
        rng = ThundeRingRNG(k, derive_seed(seed, qid))
        np.testing.assert_array_equal(keys[row], rng._lane_keys)


@pytest.mark.parametrize("seed", [3, 99])
def test_lane_draws_match_rng_stream(seed):
    k = 8
    qid = 42
    keys = _query_lane_keys(seed, np.array([qid]), k)[0]
    rng = ThundeRingRNG(k, derive_seed(seed, qid))
    reference = rng.uint32_block(10)
    for cycle in range(10):
        counters = np.full(k, cycle, dtype=np.uint64)
        draws = _lane_uint32(counters, keys)
        np.testing.assert_array_equal(draws.astype(np.uint32), reference[cycle])


def test_distinct_queries_distinct_lanes():
    keys = _query_lane_keys(5, np.arange(1000), 4)
    assert np.unique(keys.reshape(-1)).size == keys.size


def test_counter_is_the_only_state():
    """Draw order does not matter: (counter, key) fully determines output."""
    keys = _query_lane_keys(1, np.array([0]), 2)[0]
    forward = [_lane_uint32(np.array([c, c], dtype=np.uint64), keys) for c in range(5)]
    backward = [_lane_uint32(np.array([c, c], dtype=np.uint64), keys) for c in reversed(range(5))]
    for c in range(5):
        np.testing.assert_array_equal(forward[c], backward[4 - c])


@pytest.mark.parametrize("k", [1, 3, 4, 16])
def test_cycle_draws_match_rng_blocks(k):
    seed = 11
    query_ids = np.array([3, 8, 21, 2**31])
    keys = _query_lane_keys(seed, query_ids, k)
    first = [0, 5, 1, 2**40]
    rows = [3, 1, 0, 2]
    row_query = np.repeat(np.arange(query_ids.size), rows)
    row_counters = np.concatenate(
        [np.arange(c, c + r, dtype=np.uint64) for c, r in zip(first, rows)]
    )
    draws = _cycle_draws(keys, row_query, row_counters)
    assert draws.shape == (sum(rows), k)
    expected = []
    for qid, c, r in zip(query_ids.tolist(), first, rows):
        rng = ThundeRingRNG(k, derive_seed(seed, qid))
        rng.counter = c
        expected.append(rng.uint32_block(r))
    np.testing.assert_array_equal((draws >> np.uint64(32)).astype(np.uint32), np.vstack(expected))


def _fan_graph(degrees):
    """Vertex ``v`` has ``degrees[v]`` out-edges (repeats kept); one sink."""
    n = len(degrees) + 1
    edges = [(v, (v + 1 + e) % n) for v, d in enumerate(degrees) for e in range(d)]
    return from_edge_list(np.array(edges), num_vertices=n)


@pytest.mark.parametrize(
    "k, degrees",
    [
        (4, [10, 1, 4, 9]),  # not multiples of k, and one multiple
        (1, [3, 1, 2]),
        (16, [5, 2, 1]),  # k larger than every degree
    ],
)
@pytest.mark.parametrize("constant", [True, False])
def test_select_takes_ceil_d_over_k_cycles(k, degrees, constant):
    seed = 5
    n = len(degrees)
    query_ids = np.array([7, 0, 12, 40][:n])
    first = np.array([2, 0, 9, 2**33][:n], dtype=np.uint64)
    sampler = PWRSSampler(k=k, seed=seed)
    sampler.attach(n, query_ids)
    sampler._counters[:] = first
    # Block position j is attached query active_index[j].
    active_index = np.roll(np.arange(n), 1)
    curr = np.arange(n)
    ctx = gather_step(_fan_graph(degrees), 0, curr, np.full(n, -1))
    if constant:
        weights = unit_weights(ctx.n_edges)
    else:
        weights = np.random.default_rng(k).uniform(0.5, 3.0, ctx.n_edges)
        weights[::3] = 0.0
    chosen = sampler.select(ctx, weights, active_index)

    d = np.array(degrees, dtype=np.uint64)
    advanced = first.copy()
    advanced[active_index] += (d + np.uint64(k - 1)) // np.uint64(k)
    np.testing.assert_array_equal(sampler._counters, advanced)
    w_int = quantize_weights(weights)
    for j, row in enumerate(active_index.tolist()):
        rng = ThundeRingRNG(k, derive_seed(seed, int(query_ids[row])))
        rng.counter = int(first[row])
        reference = ParallelWRS(k, rng)
        seg = slice(ctx.seg_starts[j], ctx.seg_starts[j] + degrees[j])
        for lo in range(0, degrees[j], k):
            hi = min(lo + k, degrees[j])
            reference.consume(np.arange(lo, hi), w_int[seg][lo:hi])
        assert rng.counter == int(advanced[row])
        want = reference.result()
        assert chosen[j] == (-1 if want is None else want)
