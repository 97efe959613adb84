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

The host kernel searches the graph's sorted edge keys
(:meth:`~repro.graph.csr.CSRGraph.edge_keys`) and works in block indices:
:func:`connected_to_previous` and :func:`return_edges` return the flat
candidate indices of the step's "stay close" and "return" edges, and
:meth:`Node2VecWalk.dynamic_weights` starts every edge of a query with a
previous vertex at ``1/q`` (in the step's workspace, see "Workspace" in
:mod:`repro.walks.stepper`) and overwrites those two index sets.  So a
step's work beyond the one ``1/q`` fill is proportional to the searched
needles and their hits, not to the block's candidate edges, and an
unweighted step builds no per-edge :class:`StepContext` field.

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
        has_prev = ctx.prev >= 0
        if not np.any(has_prev):
            return ctx.static_weights
        scale = ctx.workspace.array("weights", ctx.n_edges, np.float64)
        scale.fill(1.0 / self.q)
        if not np.all(has_prev):
            first = np.flatnonzero(~has_prev)
            starts = ctx.seg_starts[first]
            scale[_ranges(starts, starts + ctx.degrees[first])] = 1.0
        scale[connected_to_previous(ctx)] = 1.0
        scale[return_edges(ctx)] = 1.0 / self.p  # a return edge is connected too
        if ctx.graph.edge_weights is not None:  # else w* = 1, and the scale is w^t
            scale *= ctx.static_weights
        return scale

    def __repr__(self) -> str:
        return f"Node2VecWalk(p={self.p}, q={self.q})"


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(lo[i], hi[i])`` over every ``i`` (int64)."""
    lengths = hi - lo
    ends = np.cumsum(lengths)
    flat = np.arange(ends[-1] if ends.size else 0, dtype=np.int64)
    flat += np.repeat(lo - ends + lengths, lengths)
    return flat


def connected_to_previous(ctx: StepContext) -> np.ndarray:
    """Block indices of the candidate edges ``(curr, b)`` with ``(prev, b) in E``.

    The indices are flat candidate indices of ``ctx`` in no particular
    order (a multigraph may list one more than once); queries without a
    previous vertex contribute none.  Each query is tested from its smaller
    side, in the graph's sorted global edge keys
    (:meth:`~repro.graph.csr.CSRGraph.edge_keys`):

    * ``deg(prev) >= deg(curr)``: one search per candidate edge, for the
      key ``prev * |V| + b``; the candidates that hit are returned;
    * ``deg(prev) < deg(curr)``: one search per ``y`` in ``N(prev)`` — the
      adjacency the accelerator buffers on chip — for the key
      ``curr * |V| + y``.  Only a needle that hits gets a second,
      right-side search: its ``[left, right)`` run (multigraphs repeat
      edges) is curr's edges to ``y``, returned as block indices.
    """
    graph = ctx.graph
    keys = graph.edge_keys()
    n = np.int64(graph.num_vertices)
    prev = ctx.prev
    has_prev = prev >= 0
    prev_degrees = np.where(has_prev, graph.degrees[np.maximum(prev, 0)], 0)
    from_prev = has_prev & (prev_degrees < ctx.degrees)
    connected = [np.zeros(0, dtype=np.int64)]

    queries = np.flatnonzero(has_prev & ~from_prev)
    if queries.size:
        starts = ctx.seg_starts[queries]
        degrees = ctx.degrees[queries]
        candidates = _ranges(starts, starts + degrees)
        positions = candidates + np.repeat(graph.row_index[ctx.curr[queries]] - starts, degrees)
        needles = np.repeat(prev[queries] * n, degrees) + graph.col_index64[positions]
        found = np.searchsorted(keys, needles)
        connected.append(candidates[keys[np.minimum(found, keys.size - 1)] == needles])

    queries = np.flatnonzero(from_prev)
    if queries.size:
        q_curr = ctx.curr[queries]
        q_degrees = prev_degrees[queries]
        lo = graph.row_index[prev[queries]]
        needles = np.repeat(q_curr * n, q_degrees) + graph.col_index64[_ranges(lo, lo + q_degrees)]
        left = np.searchsorted(keys, needles)
        hit = keys[np.minimum(left, keys.size - 1)] == needles
        right = np.searchsorted(keys, needles[hit], side="right")
        # Global edge position -> this step's flat candidate index.
        shift = np.repeat(ctx.seg_starts[queries] - graph.row_index[q_curr], q_degrees)[hit]
        connected.append(_ranges(left[hit] + shift, right + shift))

    return np.concatenate(connected)


def return_edges(ctx: StepContext) -> np.ndarray:
    """Block indices of the candidate edges back to each query's previous vertex.

    One ``searchsorted`` pair per query with a previous vertex, for the key
    ``curr * |V| + prev``: its ``[left, right)`` run is every edge from
    ``curr`` to ``prev`` (several in a multigraph, none if ``curr`` has no
    edge back), expanded into flat candidate indices of ``ctx``.
    """
    graph = ctx.graph
    keys = graph.edge_keys()
    queries = np.flatnonzero(ctx.prev >= 0)
    curr = ctx.curr[queries]
    needles = curr * np.int64(graph.num_vertices) + ctx.prev[queries]
    left = np.searchsorted(keys, needles)
    right = np.searchsorted(keys, needles, side="right")
    shift = ctx.seg_starts[queries] - graph.row_index[curr]
    return _ranges(left + shift, right + shift)
