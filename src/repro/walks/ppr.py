"""Random walk with restart (the personalized-PageRank walk).

The walk the paper's introduction cites for recommendation and network
analysis: at every step the walker either restarts at its source vertex
(probability ``alpha``) or moves to a neighbor chosen proportionally to
the static edge weight.  The visit frequencies of such walks converge to
personalized PageRank scores.

Restart composes with the GDRW machinery rather than replacing it:
:class:`RestartWalk` is an ordinary walk algorithm whose weights are the
static ones, and the stepper's one walk loop flips the restart coin before
the neighbor choice (see "Restart" in :mod:`repro.walks.stepper`).  The
neighbor choice is the ordinary weighted selection, on the same parallel
WRS lanes every other walk uses, so the FPGA timing models replay the
trace unchanged.  The coin is one extra decorrelated lane per query per
step — hardware-wise a single extra comparison in the Query Controller.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.graph.csr import CSRGraph
from repro.walks.base import StepContext, WalkAlgorithm


class RestartWalk(WalkAlgorithm):
    """Weighted walk with per-step restart probability ``alpha``.

    Each step restarts at the query's start vertex with probability
    ``alpha`` and otherwise samples the static weights (``w^t = w*``).
    Run it like any walk: ``LightRW.run(RestartWalk(alpha), n_steps)`` on a
    backend that declares ``supports_restart``, or
    ``run_walks(graph, starts, n_steps, RestartWalk(alpha), sampler)``.
    Restarts appear in the paths, and a restarted step is recorded with
    degree 0: it decides before any memory access is issued.
    """

    name = "restart"

    def __init__(self, alpha: float = 0.15) -> None:
        if not 0.0 <= alpha < 1.0:
            raise QueryError(f"restart probability must be in [0, 1), got {alpha}")
        self.alpha = float(alpha)

    @property
    def restart_probability(self) -> float:
        return self.alpha

    def dynamic_weights(self, ctx: StepContext) -> np.ndarray:
        return ctx.static_weights


def visit_frequencies(paths: np.ndarray, num_vertices: int) -> np.ndarray:
    """Normalized visit counts over all paths — the PPR estimate."""
    visited = paths[paths >= 0]
    counts = np.bincount(visited, minlength=num_vertices).astype(np.float64)
    total = counts.sum()
    return counts / total if total > 0 else counts


def exact_ppr(
    graph: CSRGraph, source: int, alpha: float = 0.15, iterations: int = 200
) -> np.ndarray:
    """Exact personalized PageRank by power iteration (small graphs).

    The reference the statistical tests compare walk-based estimates to.
    Dangling mass restarts at the source (matching the walk semantics,
    where a stranded walker's query terminates and a new visit begins at
    the source on average).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise QueryError(f"source {source} out of range")
    weights = graph.edge_weights64
    if weights is None:
        weights = np.ones(graph.num_edges, dtype=np.float64)
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    out_weight = np.zeros(n)
    np.add.at(out_weight, sources, weights)
    probability = np.zeros(n)
    probability[source] = 1.0
    restart_vector = np.zeros(n)
    restart_vector[source] = 1.0
    for _ in range(iterations):
        flow = np.where(out_weight[sources] > 0, probability[sources] * weights / out_weight[sources], 0.0)
        spread = np.zeros(n)
        np.add.at(spread, graph.col_index64, flow)
        dangling = probability[out_weight == 0].sum()
        probability = alpha * restart_vector + (1 - alpha) * (spread + dangling * restart_vector)
    return probability
