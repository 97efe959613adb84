"""Core abstractions of the walk layer.

The central object is :class:`WalkAlgorithm`, whose
:meth:`~WalkAlgorithm.dynamic_weights` is the paper's application-specific
weight update function ``F`` — it maps every candidate edge of the current
step to its *sampling weight* ``w^t`` (the unnormalized transition
probability).  Implementations receive a :class:`StepContext` holding the
flattened candidate-edge arrays of a block of active queries at once, so a
single vectorized call covers every query of the block.

Fixed-point weights
-------------------
The hardware WRS sampler (Equation 8) compares integers; the walk layer
quantizes float weights to ``round(w * WEIGHT_SCALE)`` with any positive
weight clamped to at least one so quantization never silently forbids an
edge the algorithm allowed.  ``WEIGHT_SCALE = 256`` (8 fractional bits)
represents the paper's weight range — random static weights in ``[1, 4)``
scaled by Node2Vec's ``1/p``/``1/q`` factors — with relative error below
0.4 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.graph.csr import CSRGraph

#: Fixed-point scale for the integer weights consumed by the WRS hardware.
WEIGHT_FRAC_BITS = 8
WEIGHT_SCALE = 1 << WEIGHT_FRAC_BITS


def quantize_weights(weights: np.ndarray) -> np.ndarray:
    """Quantize non-negative float weights to the hardware fixed point.

    Zero stays zero (a forbidden edge must stay forbidden); any positive
    weight becomes at least one (an allowed edge must stay allowed).
    """
    weights = np.asarray(weights, dtype=np.float64)
    # Written so that NaN fails it too: NaN < 0 is false.
    if weights.size and not (weights.min() >= 0):
        raise ValueError("sampling weights must be non-negative and not NaN")
    quantized = np.rint(weights * WEIGHT_SCALE).astype(np.uint64)
    positive = weights > 0
    quantized[positive & (quantized == 0)] = 1
    return quantized


@dataclass
class StepContext:
    """Flattened candidate-edge view of one step across a block of queries.

    All per-edge arrays share one flat index space: query ``j`` (a position
    within this block, not a global query id) owns the slice
    ``[seg_starts[j], seg_starts[j] + degrees[j])``.  Built by
    :func:`gather_step`.
    """

    graph: "CSRGraph"
    step: int
    #: per-query arrays (length = number of active queries this step)
    curr: np.ndarray
    prev: np.ndarray  # -1 where the query has no previous vertex yet
    degrees: np.ndarray
    seg_starts: np.ndarray
    #: per-edge arrays (length = degrees.sum())
    edge_query: np.ndarray  # block position owning each edge
    within: np.ndarray  # index of each edge within its query's segment
    dst: np.ndarray
    static_weights: np.ndarray
    edge_positions: np.ndarray  # index into graph.col_index for each edge
    #: sorted u*|V|+v keys of the whole graph, for O(log E) membership tests
    edge_keys_sorted: np.ndarray | None = None

    @property
    def n_edges(self) -> int:
        return int(self.dst.size)

    @property
    def n_queries(self) -> int:
        return int(self.curr.size)

    def prev_per_edge(self) -> np.ndarray:
        """Previous vertex of the owning query, broadcast per edge."""
        return self.prev[self.edge_query]


def gather_step(
    graph: "CSRGraph",
    step: int,
    curr: np.ndarray,
    prev: np.ndarray,
    col_index: np.ndarray,
    edge_weights: np.ndarray | None,
    edge_keys: np.ndarray | None = None,
) -> StepContext:
    """The :class:`StepContext` over every out-edge of each query's vertex.

    ``col_index`` and ``edge_weights`` are the graph's arrays, or copies
    staged once per run as int64 / float64 so that the per-step gather
    converts nothing; ``edge_weights=None`` means unit weights.
    """
    curr = np.asarray(curr, dtype=np.int64)
    degrees = graph.degrees[curr]
    seg_starts = np.zeros(curr.size, dtype=np.int64)
    np.cumsum(degrees[:-1], out=seg_starts[1:])
    n_edges = int(seg_starts[-1] + degrees[-1]) if curr.size else 0
    edge_query = np.repeat(np.arange(curr.size, dtype=np.int64), degrees)
    within = np.arange(n_edges, dtype=np.int64) - np.repeat(seg_starts, degrees)
    edge_positions = np.repeat(graph.row_index[curr], degrees) + within
    return StepContext(
        graph=graph,
        step=step,
        curr=curr,
        prev=np.asarray(prev, dtype=np.int64),
        degrees=degrees,
        seg_starts=seg_starts,
        edge_query=edge_query,
        within=within,
        dst=col_index[edge_positions].astype(np.int64, copy=False),
        static_weights=(
            edge_weights[edge_positions].astype(np.float64, copy=False)
            if edge_weights is not None
            else np.ones(n_edges, dtype=np.float64)
        ),
        edge_positions=edge_positions,
        edge_keys_sorted=edge_keys,
    )


class WalkAlgorithm:
    """Base class for GDRW weight-update functions.

    Subclasses override :meth:`dynamic_weights` and the class attributes
    describing the memory behaviour the hardware models must account for.
    """

    #: Human-readable algorithm name used in reports.
    name: str = "walk"

    #: Whether the update function depends on the previously visited vertex
    #: (second-order walks such as Node2Vec).
    needs_previous: bool = False

    #: row_index (neighbor-info) lookups issued per step: 1 for first-order
    #: walks; 2 for Node2Vec, which also resolves N(a_{t-1}).
    row_lookups_per_step: int = 1

    #: Whether the step must also stream the previous vertex's adjacency
    #: from DRAM (Node2Vec's membership test), doubling col_index traffic.
    fetches_previous_neighbors: bool = False

    #: Whether the graph must carry static edge weights.
    requires_edge_weights: bool = False

    def dynamic_weights(self, ctx: StepContext) -> np.ndarray:
        """Return per-edge sampling weights (float64, non-negative)."""
        raise NotImplementedError

    def needs_edge_keys(self) -> bool:
        """Whether StepContext must be built with the sorted edge-key array."""
        return self.needs_previous

    def validate_graph(self, graph: "CSRGraph") -> None:
        """Raise if the graph lacks attributes this algorithm requires."""
        if self.requires_edge_weights and graph.edge_weights is None:
            raise ValueError(
                f"{self.name} requires static edge weights; call "
                "repro.graph.assign_random_weights or provide weights"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
