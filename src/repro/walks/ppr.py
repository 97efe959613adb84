"""Random walk with restart (the personalized-PageRank walk).

The walk the paper's introduction cites for recommendation and network
analysis: at every step the walker either restarts at its source vertex
(probability ``alpha``) or moves to a neighbor chosen proportionally to
the static edge weight.  The visit frequencies of such walks converge to
personalized PageRank scores.

Restart composes with the GDRW machinery rather than replacing it: the
neighbor choice is the ordinary weighted selection (the same parallel WRS
lanes every other walk uses, so the FPGA timing models replay the trace
unchanged), and the restart coin is one extra decorrelated lane per query
per step — hardware-wise a single extra comparison in the Query
Controller.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.graph.csr import CSRGraph
from repro.sampling.rng import derive_seed
from repro.walks.base import StepContext, WalkAlgorithm, gather_step
from repro.walks.stepper import (
    PWRSSampler,
    StepRecord,
    WalkSession,
    _lane_uint32,
    _query_lane_keys,
)


class RestartWalk(WalkAlgorithm):
    """Weighted walk with per-step restart probability ``alpha``.

    The neighbor choice samples the static weights (``w^t = w*``) and the
    restart coin is flipped before it, both inside
    :func:`run_restart_walks`, which is the only stepper for this walk:
    run it with ``LightRW.run(RestartWalk(alpha), n_steps)`` on a backend
    that declares ``supports_restart``.
    """

    name = "restart"

    def __init__(self, alpha: float = 0.15) -> None:
        if not 0.0 <= alpha < 1.0:
            raise QueryError(f"restart probability must be in [0, 1), got {alpha}")
        self.alpha = float(alpha)

    def dynamic_weights(self, ctx: StepContext) -> np.ndarray:
        # The generic steppers would walk this without ever restarting.
        raise QueryError(
            "RestartWalk is stepped by run_restart_walks, which applies the "
            "restart; a generic stepper cannot run it"
        )


def run_restart_walks(
    graph: CSRGraph,
    starts: np.ndarray,
    n_steps: int,
    alpha: float = 0.15,
    k: int = 16,
    seed: int = 0,
    query_ids: np.ndarray | None = None,
) -> WalkSession:
    """Walk every query ``n_steps`` steps with restart probability ``alpha``.

    Teleports appear in the paths (the walker really is at its source
    after a restart), and the recorded trace charges each step the work
    the hardware performs: a restart step decides before any memory access
    is issued, so it contributes a zero-degree record entry.

    ``query_ids`` are the global ids that key per-query randomness
    (default ``arange``); sharded execution passes each shard's ids so
    restart walks are shard-invariant too.
    """
    starts = np.asarray(starts, dtype=np.int64)
    algorithm = RestartWalk(alpha)
    algorithm.validate_graph(graph)
    n_queries = starts.size
    if query_ids is None:
        query_ids = np.arange(n_queries, dtype=np.int64)
    else:
        query_ids = np.asarray(query_ids, dtype=np.int64)

    sampler = PWRSSampler(k=k, seed=seed)
    sampler.attach(n_queries, query_ids)
    coin_keys = _query_lane_keys(derive_seed(seed, 0x9E57A97), query_ids, 1)[:, 0]
    coin_counters = np.zeros(n_queries, dtype=np.uint64)

    degrees = graph.degrees
    col64 = graph.col_index.astype(np.int64)
    weights64 = (
        graph.edge_weights.astype(np.float64)
        if graph.edge_weights is not None
        else None
    )

    paths = np.full((n_queries, n_steps + 1), -1, dtype=np.int64)
    paths[:, 0] = starts
    lengths = np.zeros(n_queries, dtype=np.int64)
    curr = starts.copy()
    alive = degrees[starts] > 0
    records: list[StepRecord] = []

    for step in range(n_steps):
        active = np.nonzero(alive)[0]
        if active.size == 0:
            break
        coins = (
            _lane_uint32(coin_counters[active], coin_keys[active]).astype(np.float64)
            / float(1 << 32)
        )
        coin_counters[active] += np.uint64(1)
        restart = coins < alpha

        next_vertices = np.full(active.size, -1, dtype=np.int64)
        next_vertices[restart] = starts[active[restart]]

        walkers = active[~restart]
        if walkers.size:
            ctx = gather_step(
                graph,
                step,
                curr[walkers],
                np.full(walkers.size, -1, dtype=np.int64),
                col64,
                weights64,
            )
            chosen = sampler.select(ctx, ctx.static_weights, walkers)
            next_vertices[~restart] = ctx.next_vertices(chosen)

        # Trace: restart steps cost no memory traffic (degree recorded 0).
        step_degrees = np.where(restart, 0, degrees[curr[active]])
        records.append(
            StepRecord(
                step=step,
                query_ids=active.copy(),
                curr=curr[active].copy(),
                degrees=step_degrees.astype(np.int64),
                prev=np.full(active.size, -1, dtype=np.int64),
                prev_degrees=np.zeros(active.size, dtype=np.int64),
                next_vertex=next_vertices.copy(),
            )
        )

        moved = next_vertices >= 0
        targets = active[moved]
        curr[targets] = next_vertices[moved]
        paths[targets, step + 1] = next_vertices[moved]
        lengths[targets] = step + 1
        alive[active[~moved]] = False
        alive[targets] = degrees[curr[targets]] > 0

    return WalkSession(
        graph=graph,
        algorithm=algorithm.name,
        sampler=sampler.name,
        starts=starts,
        paths=paths,
        lengths=lengths,
        records=records,
    )


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
    weights = (
        graph.edge_weights.astype(np.float64)
        if graph.edge_weights is not None
        else np.ones(graph.num_edges, dtype=np.float64)
    )
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
        np.add.at(spread, graph.col_index.astype(np.int64), flow)
        dangling = probability[out_weight == 0].sum()
        probability = alpha * restart_vector + (1 - alpha) * (spread + dangling * restart_vector)
    return probability
