"""Builders that turn edge lists into validated :class:`CSRGraph` objects.

:func:`from_edge_list` orders edges with one sort of a ``uint64`` key per
edge, ``src * num_vertices + dst``; ``row_index`` and ``col_index`` are read
back from the sorted keys.  Edges with equal keys keep their input order,
so per-edge attributes land where a stable sort would put them and
deduplication keeps the first occurrence.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

#: Largest vertex count: ``col_index`` stores uint32 ids, and it keeps the
#: edge key ``src * n + dst`` below ``2**64``.
MAX_VERTICES = 1 << 32


def symmetrize_edges(edges: np.ndarray) -> np.ndarray:
    """Represent an undirected edge list as two directed arcs per edge.

    Self-loops are kept single (one arc); duplicates introduced by the
    mirroring are *not* removed here — pass ``deduplicate=True`` to
    :func:`from_edge_list` if the input may already contain both directions.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError(f"edges must have shape (m, 2), got {edges.shape}")
    non_loops = edges[edges[:, 0] != edges[:, 1]]
    mirrored = non_loops[:, ::-1]
    return np.concatenate([edges, mirrored], axis=0)


def from_edge_list(
    edges: np.ndarray,
    num_vertices: int | None = None,
    weights: np.ndarray | None = None,
    edge_labels: np.ndarray | None = None,
    vertex_labels: np.ndarray | None = None,
    directed: bool = True,
    deduplicate: bool = False,
    name: str = "graph",
) -> CSRGraph:
    """Build a CSR graph from an ``(m, 2)`` array of ``(src, dst)`` pairs.

    Parameters
    ----------
    edges:
        Integer array of shape ``(m, 2)``.
    num_vertices:
        Vertex count; inferred as ``max(edges) + 1`` when omitted.
    weights, edge_labels:
        Optional per-edge attributes aligned with ``edges`` (they are
        permuted together with the edges into CSR order).
    directed:
        When ``False`` the edge list is symmetrized first (attributes are
        mirrored with their edge).
    deduplicate:
        Drop repeated ``(src, dst)`` pairs, keeping the first occurrence.

    The resulting ``col_index`` is sorted within each row, which downstream
    components (binary-search membership tests, burst planning) require.
    Repeated ``(src, dst)`` pairs keep their input order, and so do their
    attributes.  More than ``2**32`` vertices raise :class:`GraphFormatError`.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphFormatError(f"edges must have shape (m, 2), got {edges.shape}")
    if edges.size and edges.min() < 0:
        raise GraphFormatError("vertex ids must be non-negative")

    if weights is not None:
        weights = np.asarray(weights, dtype=np.float32)
        if weights.shape != (edges.shape[0],):
            raise GraphFormatError(
                f"weights must align with edges: {weights.shape} vs {edges.shape[0]} edges"
            )
    if edge_labels is not None:
        edge_labels = np.asarray(edge_labels, dtype=np.int16)
        if edge_labels.shape != (edges.shape[0],):
            raise GraphFormatError(
                f"edge_labels must align with edges: {edge_labels.shape} "
                f"vs {edges.shape[0]} edges"
            )

    if not directed:
        n_orig = edges.shape[0]
        edges = symmetrize_edges(edges)
        n_mirrored = edges.shape[0] - n_orig
        if weights is not None:
            # symmetrize_edges mirrors only non-self-loop edges, in order.
            original = np.asarray(weights)
            non_loop = original[_non_loop_mask(edges[:n_orig])]
            weights = np.concatenate([original, non_loop[:n_mirrored]])
        if edge_labels is not None:
            original = np.asarray(edge_labels)
            non_loop = original[_non_loop_mask(edges[:n_orig])]
            edge_labels = np.concatenate([original, non_loop[:n_mirrored]])

    if num_vertices is None:
        num_vertices = int(edges.max()) + 1 if edges.size else 0
    elif edges.size and int(edges.max()) >= num_vertices:
        raise GraphFormatError(
            f"edge references vertex {int(edges.max())} but num_vertices={num_vertices}"
        )
    if num_vertices > MAX_VERTICES:
        raise GraphFormatError(
            f"num_vertices={num_vertices} exceeds 2**32: col_index holds uint32 vertex ids"
        )

    # One uint64 key per edge, src * n + dst: sorting it sorts by (src, dst).
    n = np.uint64(num_vertices)
    pairs = edges.view(np.uint64)
    key = pairs[:, 0] * n
    key += pairs[:, 1]
    del edges, pairs
    if weights is None and edge_labels is None:
        # Equal keys are identical edges, so their order cannot be seen.
        key.sort()
    else:
        order = np.argsort(key)
        key = key[order]
        # Equal keys keep their input order, as in a stable sort: sort
        # run * m + input position once, where ``run`` counts the distinct
        # keys before each edge (exact while m**2 < 2**63).
        m = key.size
        ranked = np.zeros(m, dtype=np.int64)
        np.cumsum(key[1:] != key[:-1], out=ranked[1:])
        ranked *= m
        ranked += order
        del order
        ranked.sort()
        order = np.remainder(ranked, m, out=ranked)
        if weights is not None:
            weights = weights[order]
        if edge_labels is not None:
            edge_labels = edge_labels[order]
        del order, ranked

    if deduplicate and key.size:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        if weights is not None:
            weights = weights[keep]
        if edge_labels is not None:
            edge_labels = edge_labels[keep]
        del keep

    row_index = np.empty(num_vertices + 1, dtype=np.int64)
    row_index[:-1] = np.searchsorted(key, np.arange(num_vertices, dtype=np.uint64) * n)
    row_index[-1] = key.size
    col_index = np.remainder(key, n, out=key).astype(np.uint32)
    del key
    return CSRGraph(
        row_index=row_index,
        col_index=col_index,
        edge_weights=weights,
        vertex_labels=vertex_labels,
        edge_labels=edge_labels,
        directed=directed,
        name=name,
    )


def _non_loop_mask(edges: np.ndarray) -> np.ndarray:
    return edges[:, 0] != edges[:, 1]
