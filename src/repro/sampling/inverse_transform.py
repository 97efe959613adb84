"""Inverse transform sampling — ThunderRW's configured method.

The two-phase structure is exactly what Section 2.2 of the paper describes
and what LightRW removes:

* **initialization** builds an intermediate table describing the discrete
  distribution — here the inclusive prefix sum (CDF) of the weights, with
  O(n) time and O(n) space; on a CPU this table lives in memory and is the
  source of the ``2 |N(v)|`` intermediate accesses per step;
* **generation** draws one 32-bit uniform ``r*`` and binary-searches the
  table for the target ``floor(r* T / 2^32)``, ``T`` being the total.

Weights are the same fixed-point integers the parallel WRS sampler compares
(see :func:`repro.walks.base.quantize_weights`), so the table and its
target are exact integers.  :class:`InverseTransformTable` is the scalar
reference of :class:`repro.walks.stepper.InverseTransformSampler`, as
:class:`repro.sampling.ParallelWRS` is of the PWRS sampler.
"""

from __future__ import annotations

import numpy as np


class InverseTransformTable:
    """CDF table over a vector of non-negative fixed-point weights.

    Parameters
    ----------
    weights:
        1-D array of non-negative integers.  An all-zero vector is allowed
        and makes :meth:`sample` return ``-1`` (nothing samplable).
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights)
        if weights.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {weights.shape}")
        if weights.size and weights.dtype.kind not in "iu":
            raise ValueError(f"weights must be fixed-point integers, got {weights.dtype}")
        if weights.dtype.kind == "i" and weights.size and weights.min() < 0:
            raise ValueError("weights must be non-negative")
        self.cdf = np.cumsum(weights, dtype=np.uint64)
        self.total = int(self.cdf[-1]) if weights.size else 0

    def __len__(self) -> int:
        return int(self.cdf.size)

    def sample(self, r_star: int) -> int:
        """Draw one index given a raw 32-bit uniform ``r_star``.

        Items with zero weight are never returned; if the total weight is
        zero, returns ``-1``.
        """
        if not 0 <= r_star < 1 << 32:
            raise ValueError(f"r_star must be in [0, 2**32), got {r_star}")
        if self.total == 0:
            return -1
        target = (int(r_star) * self.total) >> 32
        return int(np.searchsorted(self.cdf, np.uint64(target), side="right"))
