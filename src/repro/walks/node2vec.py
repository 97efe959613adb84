"""Node2Vec random walk — Equation (2) of the paper.

Node2Vec (Grover & Leskovec, KDD'16) is a second-order walk: the weight of
moving from the current vertex ``a`` to neighbor ``b`` depends on the
previously visited vertex ``a_{t-1}``:

    w^t(a, b) = w*(a, b) / p   if b == a_{t-1}           (return)
              = w*(a, b)       if (a_{t-1}, b) in E      (stay close)
              = w*(a, b) / q   otherwise                 (explore)

``p`` is the return parameter and ``q`` the in-out parameter; the paper's
evaluation uses ``p = 2, q = 0.5``.  The membership test
``(a_{t-1}, b) in E`` is what makes Node2Vec memory-hungry: the engine must
consult the previous vertex's adjacency for every candidate neighbor, which
on the accelerator means a second ``row_index`` lookup and a second
``col_index`` stream per step — those costs are declared through the class
attributes the hardware models read.

The first step of a query has no previous vertex and degenerates to a
static walk step (``w^t = w*``), matching the reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.walks.base import MAX_WEIGHT, StepContext, WalkAlgorithm


class Node2VecWalk(WalkAlgorithm):
    """Second-order biased walk with return/in-out parameters ``p``/``q``."""

    name = "node2vec"
    needs_previous = True
    row_lookups_per_step = 2
    fetches_previous_neighbors = True
    requires_edge_weights = False  # defaults to w* = 1 on unweighted graphs

    def __init__(self, p: float = 2.0, q: float = 0.5) -> None:
        if p <= 0 or q <= 0:
            raise QueryError(f"p and q must be positive, got p={p}, q={q}")
        self.p = float(p)
        self.q = float(q)

    def validate_graph(self, graph) -> None:
        """Also refuse, before the first step, static weights that ``1/p``
        or ``1/q`` would scale past the sampler's fixed point."""
        super().validate_graph(graph)
        if graph.edge_weights is None or not graph.edge_weights.size:
            return
        heaviest = float(graph.edge_weights.max()) * max(1.0, 1.0 / self.p, 1.0 / self.q)
        if heaviest > MAX_WEIGHT:
            raise QueryError(
                f"{self!r} scales the heaviest static edge weight to {heaviest:g}, "
                f"beyond the sampler's fixed-point domain (below {MAX_WEIGHT:.0f}); "
                "rescale the edge weights"
            )

    def dynamic_weights(self, ctx: StepContext) -> np.ndarray:
        if not np.any(ctx.prev >= 0):
            return ctx.static_weights
        prev = ctx.prev_per_edge()
        has_prev = prev >= 0
        is_return = (ctx.dst == prev) & has_prev
        explore = has_prev & ~is_return & ~connected_to_previous(ctx)
        scale = np.ones(ctx.n_edges, dtype=np.float64)
        scale[is_return] = 1.0 / self.p
        scale[explore] = 1.0 / self.q
        if ctx.graph.edge_weights is None:  # w* = 1, and 1 * scale is exactly scale
            return scale
        return ctx.static_weights * scale

    def __repr__(self) -> str:
        return f"Node2VecWalk(p={self.p}, q={self.q})"


def connected_to_previous(ctx: StepContext) -> np.ndarray:
    """``(prev, dst) in E`` for every candidate edge of the step.

    Edges of a query without a previous vertex are ``False``.  Each query
    is tested from its smaller side, in the graph's sorted global edge keys
    (:meth:`~repro.graph.csr.CSRGraph.edge_keys`):

    * ``deg(prev) >= deg(curr)``: one search per candidate edge, for the
      key ``prev * |V| + dst``;
    * ``deg(prev) < deg(curr)``: one search per ``y`` in ``N(prev)`` — the
      adjacency the accelerator buffers on chip — for the key
      ``curr * |V| + y``.  A hit is the run of curr's edges to ``y``
      (``[left, right)`` of the search; multigraphs repeat edges), and
      those candidates are marked connected.
    """
    graph = ctx.graph
    keys = graph.edge_keys()
    n = np.int64(graph.num_vertices)
    prev = ctx.prev
    has_prev = prev >= 0
    prev_degrees = np.where(has_prev, graph.degrees[np.maximum(prev, 0)], 0)
    from_prev = has_prev & (prev_degrees < ctx.degrees)
    connected = np.zeros(ctx.n_edges, dtype=bool)

    per_candidate = np.repeat(has_prev & ~from_prev, ctx.degrees)
    if np.any(per_candidate):
        needles = np.repeat(prev * n, ctx.degrees)[per_candidate] + ctx.dst[per_candidate]
        found = np.searchsorted(keys, needles)
        connected[per_candidate] = keys[np.minimum(found, keys.size - 1)] == needles

    queries = np.flatnonzero(from_prev)
    if queries.size:
        q_prev = prev[queries]
        q_curr = ctx.curr[queries]
        q_degrees = prev_degrees[queries]
        # Gather N(prev) of every such query as one flat stream.
        offsets = np.zeros(queries.size, dtype=np.int64)
        np.cumsum(q_degrees[:-1], out=offsets[1:])
        positions = np.repeat(graph.row_index[q_prev] - offsets, q_degrees)
        positions += np.arange(positions.size, dtype=np.int64)
        needles = np.repeat(q_curr * n, q_degrees) + graph.col_index64[positions]
        left = np.searchsorted(keys, needles, side="left")
        right = np.searchsorted(keys, needles, side="right")
        hit = right > left
        # Global edge position -> this step's flat candidate index.
        shift = np.repeat(ctx.seg_starts[queries] - graph.row_index[q_curr], q_degrees)[hit]
        marks = np.bincount(left[hit] + shift, minlength=ctx.n_edges + 1)
        marks -= np.bincount(right[hit] + shift, minlength=ctx.n_edges + 1)
        connected |= np.cumsum(marks[:-1]) > 0
    return connected

