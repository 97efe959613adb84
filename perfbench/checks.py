"""Correctness checks applied to every run the benchmark times.

A run's walks are checked three ways:

* structure — each row starts at its planned start vertex, walks only
  existing edges for ``lengths[i]`` steps and is ``-1`` padded after;
* algorithm — MetaPath rows follow the label schema, and on the PWRS
  backends a seeded subsample of rows matches ``walk_single_query``, the
  scalar golden reference, bit for bit;
* determinism — every run of a set produces the same :func:`path_digest`.

Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.graph.csr import CSRGraph
from repro.walks import walk_single_query
from repro.walks.base import WalkAlgorithm


def path_digest(paths: np.ndarray, lengths: np.ndarray) -> str:
    """SHA-256 of the walked paths and their lengths."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(paths, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(lengths, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _step_mask(paths: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``mask[i, t]`` is true where row ``i`` took step ``t`` (t < lengths[i])."""
    steps = np.arange(paths.shape[1] - 1)
    return steps[None, :] < lengths[:, None]


def check_structure(
    graph: CSRGraph, paths: np.ndarray, lengths: np.ndarray, starts: np.ndarray
) -> list[str]:
    """Rows start at ``starts``, follow edges, and are ``-1`` padded after."""
    problems: list[str] = []
    if paths.shape[0] != starts.size or lengths.shape != (starts.size,):
        return [f"{paths.shape[0]} rows / {lengths.size} lengths for {starts.size} starts"]
    if not np.array_equal(paths[:, 0], starts):
        problems.append("a row does not start at its planned start vertex")
    if lengths.min(initial=0) < 0 or lengths.max(initial=0) > paths.shape[1] - 1:
        return problems + ["a length is outside the path width"]
    visited = np.arange(paths.shape[1])[None, :] <= lengths[:, None]
    if np.any(paths[~visited] != -1):
        problems.append("a row is not -1 padded past its length")
    if np.any(paths[visited] < 0) or np.any(paths[visited] >= graph.num_vertices):
        problems.append("a row visits a vertex outside the graph")
        return problems
    mask = _step_mask(paths, lengths)
    n = np.int64(graph.num_vertices)
    keys = paths[:, :-1][mask] * n + paths[:, 1:][mask]
    edge_keys = graph.edge_keys()
    if keys.size and edge_keys.size == 0:
        return problems + ["a row steps on a graph without edges"]
    if keys.size:
        pos = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
        missing = int(np.sum(edge_keys[pos] != keys))
        if missing:
            problems.append(f"{missing} step(s) follow no edge")
    return problems


def check_schema(
    graph: CSRGraph, paths: np.ndarray, lengths: np.ndarray, schema: np.ndarray
) -> list[str]:
    """Step ``t`` of a vertex-matched MetaPath lands on ``schema[(t+1) % len]``."""
    mask = _step_mask(paths, lengths)
    required = np.asarray(schema)[(np.arange(1, paths.shape[1]) % len(schema))]
    landed = graph.vertex_labels[np.maximum(paths[:, 1:], 0)]
    bad = mask & (landed != required[None, :])
    if np.any(bad):
        return [f"{int(bad.sum())} step(s) break the MetaPath schema"]
    return []


def golden_rows(n_rows: int, count: int, seed: int) -> np.ndarray:
    """A seeded subsample of row indices for the golden comparison."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n_rows, size=min(count, n_rows), replace=False))


def check_golden(
    graph: CSRGraph,
    paths: np.ndarray,
    lengths: np.ndarray,
    algorithm: WalkAlgorithm,
    n_steps: int,
    k: int,
    seed: int,
    rows: np.ndarray,
) -> list[str]:
    """Rows equal ``walk_single_query`` with the row index as global query id."""
    problems = []
    for row in rows:
        row = int(row)
        expected = walk_single_query(
            graph, int(paths[row, 0]), n_steps, algorithm, k=k, seed=seed, query_id=row
        )
        got = paths[row, : lengths[row] + 1]
        if not np.array_equal(got, expected):
            problems.append(f"row {row} differs from walk_single_query")
    return problems
