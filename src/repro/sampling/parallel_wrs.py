"""Parallel weighted reservoir sampling — the paper's Algorithm 4.1.

The sequential WRS acceptance test for item ``i`` needs the running weight
sum of all earlier items, which serializes the loop.  Algorithm 4.1 breaks
the dependency by processing ``k`` items per cycle:

1. compute the *intra-batch* inclusive prefix sum ``W_ps`` of the k weights,
2. add the carried total ``w_sum`` of all previous batches (Equation 5),
3. test each lane independently against its own random lane,
4. the highest-index accepted lane wins the batch (it would have overwritten
   the others sequentially),
5. carry ``w_sum += sum(batch)`` to the next cycle.

Because the lanes use independent uniforms, the combined process is
*distribution-identical* to sequential WRS for every ``k`` — an invariant the
test suite checks statistically for several ``k``.

Acceptance is evaluated with the paper's integer-only comparison
(Equation 8), which the hardware computes with one shift, one DSP multiply
and one add per lane:

    p > r   <=>   2^32 * w > r* * (w_sum + W_ps) + w

with ``r*`` the raw 32-bit random integer.  :func:`integer_accept` implements
it exactly in 64-bit arithmetic (splitting the running weight sum into two
32-bit limbs once it exceeds 32 bits), so the cycle simulator and the fast
analytic model produce bit-identical decisions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sampling.rng import ThundeRingRNG

_SHIFT32 = np.uint64(32)
_U32_LIMIT = np.uint64(1 << 32)
_LOW32 = np.uint64(0xFFFFFFFF)


def integer_accept(
    weights: np.ndarray, inclusive_prefix: np.ndarray, r_star: np.ndarray
) -> np.ndarray:
    """Equation (8): exact integer acceptance test, vectorized.

    Parameters
    ----------
    weights:
        Per-lane fixed-point weights ``w`` (non-negative integers < 2^32).
    inclusive_prefix:
        Per-lane ``w_sum + W_ps[j]`` — the inclusive running weight total up
        to and including this lane (an integer < 2^64).
    r_star:
        Per-lane raw 32-bit uniform integers.

    Returns
    -------
    ndarray of bool
        ``True`` where the lane's item is accepted as a candidate.

    Notes
    -----
    With ``inclusive_prefix < 2^32`` everything fits in uint64
    (``r* * prefix < 2^64``) and the comparison is done natively.  Larger
    running sums — possible only on extreme degree/weight combinations —
    split the prefix into 32-bit limbs ``P = hi * 2^32 + lo``.  Then
    ``2^32 w > r* P + w`` holds exactly when
    ``w > r* hi + ((r* lo + w) >> 32)``, and every term fits in uint64.
    """
    w64 = np.asarray(weights)
    if w64.dtype.kind == "i" and w64.size and int(w64.min()) < 0:
        raise ValueError("weights must be non-negative")
    w64 = w64.astype(np.uint64, copy=False)
    prefix64 = np.asarray(inclusive_prefix).astype(np.uint64, copy=False)
    r64 = np.asarray(r_star).astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        if not prefix64.size or prefix64.max() < _U32_LIMIT:
            return (w64 << _SHIFT32) > r64 * prefix64 + w64
        low = r64 * (prefix64 & _LOW32) + w64
        low >>= _SHIFT32
        return w64 > r64 * (prefix64 >> _SHIFT32) + low


class ParallelWRS:
    """Stateful k-wide WRS sampler — the software twin of the WRS Sampler.

    One instance samples a *single* stream.  Feed it batches of up to ``k``
    items with :meth:`consume` (one call per hardware cycle) and read the
    reservoir with :meth:`result` when the stream ends.

    Weights are non-negative **integers** (fixed-point; see
    :mod:`repro.walks.base` for the quantization used by the walk layer).
    """

    def __init__(self, k: int, rng: ThundeRingRNG) -> None:
        if k <= 0:
            raise ConfigError(f"parallelism k must be positive, got {k}")
        if rng.n_lanes < k:
            raise ConfigError(
                f"rng provides {rng.n_lanes} lanes but k={k} are required"
            )
        self.k = int(k)
        self.rng = rng
        self.w_sum = 0
        self.reservoir_item: int | None = None
        self.items_seen = 0
        self.cycles = 0

    def reset(self) -> None:
        """Clear the reservoir for a fresh stream (does not reseed the RNG)."""
        self.w_sum = 0
        self.reservoir_item = None
        self.items_seen = 0

    def consume(self, items: np.ndarray, weights: np.ndarray) -> None:
        """Process one cycle's batch of at most ``k`` (item, weight) pairs.

        A partial batch (fewer than ``k`` items, e.g. the stream tail) still
        consumes a full cycle of random lanes, exactly as the hardware does:
        the unused lanes' uniforms are drawn and discarded.
        """
        items = np.asarray(items)
        weights = np.asarray(weights, dtype=np.uint64)
        if items.shape != weights.shape or items.ndim != 1:
            raise ValueError("items and weights must be equal-length 1-D arrays")
        if items.size > self.k:
            raise ValueError(f"batch of {items.size} exceeds k={self.k}")
        r_star = self.rng.next_uint32()[: self.k]
        self.cycles += 1
        if items.size == 0:
            return
        prefix = np.cumsum(weights, dtype=np.uint64) + np.uint64(self.w_sum & 0xFFFFFFFFFFFFFFFF)
        accept = integer_accept(weights, prefix, r_star[: items.size])
        accepted = np.nonzero(accept)[0]
        if accepted.size:
            self.reservoir_item = int(items[accepted[-1]])
        self.w_sum += int(weights.sum())
        self.items_seen += items.size

    def result(self) -> int | None:
        """Sampled item for the stream consumed so far (None if nothing)."""
        return self.reservoir_item

