"""Compressed sparse row (CSR) graph container.

The layout mirrors what LightRW keeps in FPGA DRAM (Section 3.3):

* ``row_index`` — int64 array of length ``num_vertices + 1``; the adjacency
  list of vertex ``v`` occupies ``col_index[row_index[v]:row_index[v+1]]``.
  The *neighbor info* tuple the accelerator's Neighbor Info Loader fetches is
  ``(address, degree) = (row_index[v], row_index[v+1] - row_index[v])``.
* ``col_index`` — uint32 array of destination vertices, sorted within each
  row (the paper sorts adjacent edges by destination; sortedness is what
  makes Node2Vec's ``(a_{t-1}, b) in E`` test a binary search).
* ``edge_weights`` — float32 static weights ``w*`` in ``[0, 2**24)`` (all
  ones when absent).
* ``vertex_labels`` / ``edge_labels`` — small-int labels used by MetaPath.

Instances are cheap views over numpy arrays; nothing here copies per-vertex
data on access.  The structural arrays (``row_index``, ``col_index``,
``edge_weights`` and the derived degrees) are read-only: the walk kernel's
hot-path copies of them — ``col_index64``, ``edge_weights64`` and the
sorted :meth:`CSRGraph.edge_keys` — are staged once per graph, on first
use, and a write into the graph could otherwise leave them stale.  Build a
new graph to change its edges.  The staged arrays are never pickled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import GraphFormatError

#: Bytes per ``col_index`` entry in the simulated DRAM layout.  One edge
#: record is a 32-bit packed word (vertex id plus label bits), which is what
#: makes a 512-bit memory bus deliver 16 edges per cycle — the paper's
#: saturation point for the WRS sampler at k = 16.
EDGE_RECORD_BYTES = 4

#: Bytes per ``row_index`` entry: the (address, degree) neighbor-info tuple.
NEIGHBOR_INFO_BYTES = 8

#: Exclusive upper bound of a static edge weight: the WRS sampler's 32-bit
#: fixed point keeps 8 fractional bits (``repro.walks.base.WEIGHT_FRAC_BITS``).
MAX_STATIC_WEIGHT = float(1 << 24)

#: Cached attributes built from the graph's arrays on first use.
_STAGED = ("col_index64", "edge_weights64", "_edge_keys")


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the caller's array stays writeable)."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass
class CSRGraph:
    """A directed graph in CSR form (undirected graphs store both arcs)."""

    row_index: np.ndarray
    col_index: np.ndarray
    edge_weights: np.ndarray | None = None
    vertex_labels: np.ndarray | None = None
    edge_labels: np.ndarray | None = None
    directed: bool = True
    name: str = "graph"
    _degrees: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.row_index = np.ascontiguousarray(self.row_index, dtype=np.int64)
        self.col_index = np.ascontiguousarray(self.col_index, dtype=np.uint32)
        if self.edge_weights is not None:
            self.edge_weights = np.ascontiguousarray(self.edge_weights, dtype=np.float32)
        if self.vertex_labels is not None:
            self.vertex_labels = np.ascontiguousarray(self.vertex_labels, dtype=np.int16)
        if self.edge_labels is not None:
            self.edge_labels = np.ascontiguousarray(self.edge_labels, dtype=np.int16)
        self.validate()
        self._freeze()

    def _freeze(self) -> None:
        self.row_index = _read_only(self.row_index)
        self.col_index = _read_only(self.col_index)
        if self.edge_weights is not None:
            self.edge_weights = _read_only(self.edge_weights)
        self._degrees = _read_only(np.diff(self.row_index))

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in _STAGED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._freeze()

    # -- shape -------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.row_index.size - 1

    @property
    def num_edges(self) -> int:
        return self.col_index.size

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (int64 array of length num_vertices)."""
        return self._degrees

    @property
    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    @property
    def max_degree(self) -> int:
        return int(self._degrees.max()) if self.num_vertices else 0

    def degree(self, v: int) -> int:
        return int(self.row_index[v + 1] - self.row_index[v])

    # -- adjacency ---------------------------------------------------------

    def neighbor_slice(self, v: int) -> tuple[int, int]:
        """``(address, address + degree)`` of v's adjacency in col_index."""
        return int(self.row_index[v]), int(self.row_index[v + 1])

    def neighbors(self, v: int) -> np.ndarray:
        """View of v's neighbor vertex ids (sorted ascending)."""
        start, end = self.neighbor_slice(v)
        return self.col_index[start:end]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """View of the static edge weights of v's adjacency (ones if absent)."""
        start, end = self.neighbor_slice(v)
        if self.edge_weights is None:
            return np.ones(end - start, dtype=np.float32)
        return self.edge_weights[start:end]

    def neighbor_edge_labels(self, v: int) -> np.ndarray | None:
        """View of v's adjacency edge labels (None if the graph has none)."""
        if self.edge_labels is None:
            return None
        start, end = self.neighbor_slice(v)
        return self.edge_labels[start:end]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search in u's sorted adjacency."""
        start, end = self.neighbor_slice(u)
        pos = int(np.searchsorted(self.col_index[start:end], np.uint32(v)))
        return pos < end - start and int(self.col_index[start + pos]) == v

    # -- staged hot-path arrays -------------------------------------------------

    @cached_property
    def col_index64(self) -> np.ndarray:
        """``col_index`` as int64, the walk kernel's gather dtype."""
        return _read_only(self.col_index.astype(np.int64))

    @cached_property
    def edge_weights64(self) -> np.ndarray | None:
        """``edge_weights`` as float64 (None when the graph is unweighted)."""
        if self.edge_weights is None:
            return None
        return _read_only(self.edge_weights.astype(np.float64))

    def edge_keys(self) -> np.ndarray:
        """All edges encoded as ``u * num_vertices + v``, globally sorted.

        Because ``col_index`` is sorted within each row and rows are laid out
        in vertex order, this array is fully sorted, which enables the
        vectorized membership test the Node2Vec weight updater relies on.
        """
        return self._edge_keys

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        keys = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self._degrees)
        keys *= np.int64(self.num_vertices)
        keys += self.col_index64
        return _read_only(keys)

    # -- bookkeeping ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`GraphFormatError` on any structural inconsistency."""
        if self.row_index.ndim != 1 or self.row_index.size < 1:
            raise GraphFormatError("row_index must be a 1-D array of length >= 1")
        if self.row_index[0] != 0:
            raise GraphFormatError(f"row_index[0] must be 0, got {self.row_index[0]}")
        if np.any(np.diff(self.row_index) < 0):
            raise GraphFormatError("row_index must be monotonically non-decreasing")
        if self.row_index[-1] != self.col_index.size:
            raise GraphFormatError(
                f"row_index[-1]={self.row_index[-1]} must equal "
                f"num_edges={self.col_index.size}"
            )
        n = self.row_index.size - 1
        if self.col_index.size and int(self.col_index.max()) >= n:
            raise GraphFormatError(
                f"col_index references vertex {int(self.col_index.max())} "
                f"but the graph has only {n} vertices"
            )
        for attr in ("edge_weights", "edge_labels"):
            arr = getattr(self, attr)
            if arr is not None and arr.size != self.col_index.size:
                raise GraphFormatError(
                    f"{attr} has {arr.size} entries for {self.col_index.size} edges"
                )
        if self.vertex_labels is not None and self.vertex_labels.size != n:
            raise GraphFormatError(
                f"vertex_labels has {self.vertex_labels.size} entries "
                f"for {n} vertices"
            )
        if self.edge_weights is not None and self.edge_weights.size:
            # NaN propagates into min and max, and an infinity is one of them.
            lowest = float(self.edge_weights.min())
            highest = float(self.edge_weights.max())
            if not (np.isfinite(lowest) and np.isfinite(highest)):
                raise GraphFormatError("edge weights must be finite (no NaN or inf)")
            if lowest < 0:
                raise GraphFormatError("edge weights must be non-negative")
            if highest >= MAX_STATIC_WEIGHT:
                raise GraphFormatError(
                    f"edge weights must be below {MAX_STATIC_WEIGHT:.0f} (2**24): "
                    "the sampler's fixed point has 24 integer bits"
                )

    def neighbors_sorted(self) -> bool:
        """True when every row of col_index is ascending (required layout)."""
        if self.num_edges == 0:
            return True
        if self.num_edges == 1:
            return True
        diffs = np.diff(self.col_index.astype(np.int64))
        boundary = np.zeros(self.num_edges - 1, dtype=bool)
        row_starts = self.row_index[1:-1]
        inner = row_starts[(row_starts > 0) & (row_starts < self.num_edges)]
        boundary[inner - 1] = True
        return bool(np.all(diffs[~boundary] >= 0))

    def memory_bytes(self) -> dict[str, int]:
        """Simulated DRAM footprint of each array (what PCIe must transfer)."""
        footprint = {
            "row_index": self.num_vertices * NEIGHBOR_INFO_BYTES,
            "col_index": self.num_edges * EDGE_RECORD_BYTES,
        }
        if self.edge_weights is not None:
            footprint["edge_weights"] = self.num_edges * 4
        if self.vertex_labels is not None:
            footprint["vertex_labels"] = self.num_vertices * 2
        if self.edge_labels is not None:
            footprint["edge_labels"] = self.num_edges * 2
        return footprint

    def total_bytes(self) -> int:
        return sum(self.memory_bytes().values())

    def nonzero_degree_vertices(self) -> np.ndarray:
        """Vertices with at least one out-edge (the paper's query set)."""
        return np.nonzero(self._degrees > 0)[0].astype(np.int64)

    def to_networkx(self):
        """Export to a networkx DiGraph (small graphs / analysis only)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_vertices))
        sources = np.repeat(np.arange(self.num_vertices), self._degrees)
        weights = (
            self.edge_weights
            if self.edge_weights is not None
            else np.ones(self.num_edges, dtype=np.float32)
        )
        graph.add_weighted_edges_from(
            zip(sources.tolist(), self.col_index.tolist(), weights.tolist())
        )
        return graph

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, {kind})"
        )
