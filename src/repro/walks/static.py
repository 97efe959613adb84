"""Static biased random walk.

The transition probability is proportional to the *static* edge weight
``w*`` — the weights never depend on the walker's state, so per-edge
probabilities could be precomputed offline (which is exactly why static
walks are easy and GDRWs are the hard case the paper targets).
"""

from __future__ import annotations

import numpy as np

from repro.walks.base import StepContext, WalkAlgorithm


class StaticWalk(WalkAlgorithm):
    """First-order biased walk: ``w^t = w*`` for every neighbor."""

    name = "static"
    requires_edge_weights = True

    def dynamic_weights(self, ctx: StepContext) -> np.ndarray:
        return ctx.static_weights
