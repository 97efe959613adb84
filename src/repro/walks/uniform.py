"""Unbiased random walk (the DeepWalk primitive).

Every out-edge of the current vertex gets weight one, so the next vertex is
uniform over the neighbors.  Included as the simplest walk for tests and as
the paper's reference point for what *static* walk engines optimize.  Its
weights are a :func:`~repro.walks.base.unit_weights` view, so a step
allocates no weight array and PWRS skips its prefix sum.
"""

from __future__ import annotations

import numpy as np

from repro.walks.base import StepContext, WalkAlgorithm, unit_weights


class UniformWalk(WalkAlgorithm):
    """First-order unbiased walk: ``w^t = 1`` for every neighbor."""

    name = "uniform"

    def dynamic_weights(self, ctx: StepContext) -> np.ndarray:
        return unit_weights(ctx.n_edges)
