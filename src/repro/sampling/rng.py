"""Multi-lane pseudo-random number generation (ThundeRiNG substitute).

The paper's WRS sampler needs ``k`` *independent* uniform random numbers per
clock cycle.  On the real FPGA this is provided by ThundeRiNG (Tan et al.,
ICS'21), which shares one costly state-generation core among many output
instances, each followed by a per-instance *decorrelator* that makes the
lanes statistically independent.

We reproduce that architecture in software with a **counter-based** design
that is bit-exact, seedable, and vectorizable:

* the *shared state* is a 64-bit cycle counter (one increment per cycle,
  shared by all lanes — exactly the cheap-to-share part of ThundeRiNG);
* the *per-lane decorrelator* is a keyed SplitMix64 finalizer, with the lane
  key derived from the seed and lane index.

Each lane therefore traverses its own SplitMix64 sequence; the finalizer is
the standard avalanche function used by Java's ``SplittableRandom`` and
passes BigCrush as a 64-bit mixer.  Independence across lanes is exercised
directly by the test suite (chi-square per lane, cross-lane correlation).
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(value: int | np.ndarray) -> int | np.ndarray:
    """SplitMix64 avalanche finalizer.

    Accepts either a Python int (returned as int) or a ``uint64`` ndarray
    (returned as ndarray).  This is the per-lane decorrelator as well as the
    seed-expansion function used everywhere a sub-seed is derived.
    """
    if isinstance(value, np.ndarray):
        return splitmix64_inplace(value.astype(np.uint64))
    z = np.uint64(value & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN) & _MASK64
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK64
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK64
        z = z ^ (z >> np.uint64(31))
    return int(z)


def splitmix64_inplace(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """:func:`splitmix64` of a ``uint64`` array, overwriting and returning it.

    Uses one scratch buffer instead of a temporary per operation: ``scratch``
    (a ``uint64`` array of ``z``'s shape, overwritten) or a new one; uint64
    arithmetic wraps modulo 2**64, as the finalizer requires.
    """
    if scratch is None:
        scratch = np.empty_like(z)
    z += _GOLDEN
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= mix
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def derive_seed(seed: int, *salts: int) -> int:
    """Derive a decorrelated 64-bit sub-seed from ``seed`` and salt values.

    Used to hand out independent seeds to sub-components (per query, per
    accelerator instance, per lane) without any shared-stream aliasing.
    """
    acc = seed & 0xFFFFFFFFFFFFFFFF
    for salt in salts:
        acc = splitmix64(acc ^ (salt & 0xFFFFFFFFFFFFFFFF))
    return splitmix64(acc)


class ThundeRingRNG:
    """``n_lanes`` independent uniform 32-bit streams, one value per cycle.

    Parameters
    ----------
    n_lanes:
        Number of independent output lanes (the sampler parallelism ``k``).
    seed:
        64-bit seed.  Two generators with the same seed and lane count
        produce identical output forever.

    The generator is deterministic and supports save/restore through the
    ``counter`` attribute, which is all the mutable state there is.
    """

    def __init__(self, n_lanes: int, seed: int = 0) -> None:
        if n_lanes <= 0:
            raise ValueError(f"n_lanes must be positive, got {n_lanes}")
        self.n_lanes = int(n_lanes)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        lane_ids = np.arange(self.n_lanes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            raw = splitmix64(np.uint64(self.seed) ^ ((lane_ids + np.uint64(1)) * _GOLDEN))
        self._lane_keys = raw.astype(np.uint64)
        self.counter = 0

    # -- core generation ---------------------------------------------------

    def _raw64(self, counters: np.ndarray) -> np.ndarray:
        """Mix a column of counters against every lane key.

        ``counters`` has shape ``(n,)``; the result has shape
        ``(n, n_lanes)`` of uint64.
        """
        with np.errstate(over="ignore"):
            base = (counters[:, None].astype(np.uint64) * _GOLDEN) & _MASK64
            return splitmix64(base ^ self._lane_keys[None, :])

    def next_uint32(self) -> np.ndarray:
        """Return one uint32 per lane and advance the shared counter."""
        out = self.uint32_block(1)[0]
        return out

    def uint32_block(self, n_cycles: int) -> np.ndarray:
        """Return ``(n_cycles, n_lanes)`` uint32 values, advancing the counter.

        This is the vectorized path used by the analytic models: it produces
        exactly the same values, in the same order, as ``n_cycles`` calls to
        :meth:`next_uint32`.
        """
        if n_cycles < 0:
            raise ValueError(f"n_cycles must be non-negative, got {n_cycles}")
        counters = np.arange(self.counter, self.counter + n_cycles, dtype=np.uint64)
        self.counter += n_cycles
        raw = self._raw64(counters)
        return (raw >> np.uint64(32)).astype(np.uint32)

    # -- state management --------------------------------------------------

    def fork(self, salt: int) -> "ThundeRingRNG":
        """Create an independent generator keyed off this one's seed."""
        return ThundeRingRNG(self.n_lanes, derive_seed(self.seed, salt))

    def reset(self) -> None:
        """Rewind the shared counter to cycle zero."""
        self.counter = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ThundeRingRNG(n_lanes={self.n_lanes}, seed={self.seed:#x}, "
            f"counter={self.counter})"
        )

