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
0.4 %.  The sampler's weight port is 32 bits wide, so a weight whose
fixed-point value would not fit (``MAX_WEIGHT``, just under ``2**24``)
is rejected rather than wrapped.  ``CSRGraph.validate`` holds static
weights below ``2**24``, and Node2Vec's ``validate_graph`` refuses a
``1/p`` or ``1/q`` that would scale them past ``MAX_WEIGHT``; for any
other update function the bound is enforced per step, by
:func:`quantize_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.graph.csr import CSRGraph

#: Fixed-point scale for the integer weights consumed by the WRS hardware.
WEIGHT_FRAC_BITS = 8
WEIGHT_SCALE = 1 << WEIGHT_FRAC_BITS

#: Largest weight whose fixed-point value ``rint(w * WEIGHT_SCALE)`` fits the
#: sampler's 32-bit weight port (``2**32 - 1``; ties round to even, so
#: ``(2**32 - 0.5) / WEIGHT_SCALE`` itself would round up to ``2**32``).
MAX_WEIGHT = np.nextafter((2.0**32 - 0.5) / WEIGHT_SCALE, 0.0)
_MAX_WEIGHT_BITS = np.float64(MAX_WEIGHT).view(np.uint64)


def quantize_weights(weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Quantize non-negative float weights to the hardware fixed point.

    Zero stays zero (a forbidden edge must stay forbidden); any positive
    weight becomes at least one (an allowed edge must stay allowed).
    Weights must lie in the 32-bit fixed-point domain: finite, ``>= 0``
    and with ``rint(w * WEIGHT_SCALE) < 2**32`` — just under ``2**24``,
    which every float32 weight below ``2**24`` meets.

    ``out``, a ``uint64`` array of the weights' shape, receives the result
    (and is returned); the quantization runs in it, so the call allocates
    nothing.  Without ``out`` the result is a new array.
    """
    weights = np.asarray(weights, dtype=np.float64)
    # One comparison checks the whole domain: as uint64, the bits of
    # negative numbers (sign bit), NaN and inf all exceed the bits of the
    # largest admissible weight.  -0.0 trips it too, so recheck by value.
    if weights.size and not weights.view(np.uint64).max() <= _MAX_WEIGHT_BITS:
        if not (weights.min() >= 0 and weights.max() <= MAX_WEIGHT):
            raise ValueError(
                "sampling weights must be non-negative, not NaN, and below "
                f"2**{32 - WEIGHT_FRAC_BITS} (the {32 - WEIGHT_FRAC_BITS}.{WEIGHT_FRAC_BITS} "
                "fixed-point domain)"
            )
    if out is None:
        out = np.empty(weights.shape, dtype=np.uint64)
    # ceil(max(rint(w * SCALE), w)): a weight that rounds to zero is at
    # most 1/(2 SCALE), so the max keeps it and the ceil lifts it to one;
    # any other rounded weight is an integer >= w, which both leave alone.
    scaled = out.view(np.float64)
    np.multiply(weights, WEIGHT_SCALE, out=scaled)
    np.rint(scaled, out=scaled)
    np.maximum(scaled, weights, out=scaled)
    np.ceil(scaled, out=scaled)
    np.copyto(out, scaled, casting="unsafe")  # in place: same size, same strides
    return out


def unit_weights(n_edges: int) -> np.ndarray:
    """``n_edges`` weights of one, as a read-only view that allocates nothing.

    The view has stride 0, which is how :class:`~repro.walks.stepper.PWRSSampler`
    recognizes a constant weight vector and skips its per-edge prefix sum.
    """
    return np.broadcast_to(np.float64(1.0), (n_edges,))


class StepWorkspace:
    """Grow-only scratch memory for the per-edge arrays of step blocks.

    :func:`~repro.walks.stepper.run_walks` makes one per call and hands it
    to every block through :attr:`StepContext.workspace` (see "Workspace"
    in :mod:`repro.walks.stepper`).  It holds named byte slabs; a request
    returns the start of one viewed as ``n`` elements of a ``dtype``, and a
    later request for the same name overwrites them.
    """

    def __init__(self) -> None:
        self._slabs: dict[str, np.ndarray] = {}

    def array(self, name: str, n: int, dtype=np.uint64) -> np.ndarray:
        nbytes = n * np.dtype(dtype).itemsize
        slab = self._slabs.get(name)
        if slab is None or slab.size < nbytes:
            # A first request is sized exactly.  A slab that has to grow
            # takes a quarter more, so that blocks a little larger than the
            # last do not each free a slab and take a larger one: those
            # holes raised a thread-mode walk's peak RSS by 9 MiB.
            size = nbytes if slab is None else nbytes + nbytes // 4
            slab = self._slabs[name] = np.empty(size, dtype=np.uint8)
        return slab[:nbytes].view(dtype)


@dataclass
class StepContext:
    """Flattened candidate-edge view of one step across a block of queries.

    All per-edge arrays share one flat index space: query ``j`` (a position
    within this block, not a global query id) owns the slice
    ``[seg_starts[j], seg_starts[j] + degrees[j])``.  Built by
    :func:`gather_step`, which fills only the per-query arrays; every
    per-edge array is computed on first read and cached, so a step pays
    only for the ones its algorithm and sampler read.
    """

    graph: "CSRGraph"
    step: int
    #: per-query arrays (length = number of active queries this step)
    curr: np.ndarray
    prev: np.ndarray  # -1 where the query has no previous vertex yet
    degrees: np.ndarray
    seg_starts: np.ndarray
    #: candidate edges of the block (``degrees.sum()``)
    n_edges: int
    #: scratch the weight update and the sampler write per-edge arrays into
    workspace: StepWorkspace = field(default_factory=StepWorkspace)

    @property
    def n_queries(self) -> int:
        return int(self.curr.size)

    @cached_property
    def within(self) -> np.ndarray:
        """Index of each edge within its query's segment."""
        within = np.arange(self.n_edges, dtype=np.int64)
        within -= np.repeat(self.seg_starts, self.degrees)
        return within

    @cached_property
    def edge_positions(self) -> np.ndarray:
        """Index of each edge into the graph's edge arrays."""
        positions = np.arange(self.n_edges, dtype=np.int64)
        positions += np.repeat(self.graph.row_index[self.curr] - self.seg_starts, self.degrees)
        return positions

    @cached_property
    def dst(self) -> np.ndarray:
        """Destination vertex of each edge (int64)."""
        return self.graph.col_index64[self.edge_positions]

    @cached_property
    def static_weights(self) -> np.ndarray:
        """Static weight ``w*`` of each edge (float64; :func:`unit_weights`
        when unweighted)."""
        weights = self.graph.edge_weights64
        if weights is None:
            return unit_weights(self.n_edges)
        return weights[self.edge_positions]

    def next_vertices(self, chosen: np.ndarray) -> np.ndarray:
        """Vertex at within-segment index ``chosen`` of each query's segment.

        One gather per query, not per edge; ``-1`` (a dead end) stays ``-1``.
        """
        picked = np.full(chosen.shape, -1, dtype=np.int64)
        ok = chosen >= 0
        graph = self.graph
        picked[ok] = graph.col_index64[graph.row_index[self.curr[ok]] + chosen[ok]]
        return picked


def gather_step(
    graph: "CSRGraph",
    step: int,
    curr: np.ndarray,
    prev: np.ndarray,
    workspace: StepWorkspace | None = None,
) -> StepContext:
    """The :class:`StepContext` over every out-edge of each query's vertex.

    Its per-edge fields gather from the graph's staged int64 / float64
    arrays (``CSRGraph.col_index64``, ``CSRGraph.edge_weights64``), so a
    step converts nothing.  Without ``workspace`` the context gets a fresh
    one of its own.
    """
    curr = np.asarray(curr, dtype=np.int64)
    degrees = graph.degrees[curr]
    seg_starts = np.zeros(curr.size, dtype=np.int64)
    np.cumsum(degrees[:-1], out=seg_starts[1:])
    return StepContext(
        graph=graph,
        step=step,
        curr=curr,
        prev=np.asarray(prev, dtype=np.int64),
        degrees=degrees,
        seg_starts=seg_starts,
        n_edges=int(seg_starts[-1] + degrees[-1]) if curr.size else 0,
        workspace=StepWorkspace() if workspace is None else workspace,
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

    #: Per-step probability that a query returns to its start vertex instead
    #: of sampling a neighbor (random walk with restart); see "Restart" in
    #: :mod:`repro.walks.stepper`.
    restart_probability: float = 0.0

    def dynamic_weights(self, ctx: StepContext) -> np.ndarray:
        """Return per-edge sampling weights (float64, non-negative).

        The result is read, never written, so a walk whose weights are all
        one returns :func:`unit_weights` and skips the allocation.
        """
        raise NotImplementedError

    def validate_graph(self, graph: "CSRGraph") -> None:
        """Raise if the graph lacks attributes this algorithm requires."""
        if self.requires_edge_weights and graph.edge_weights is None:
            raise ValueError(
                f"{self.name} requires static edge weights; call "
                "repro.graph.assign_random_weights or provide weights"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
