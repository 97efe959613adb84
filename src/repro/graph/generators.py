"""Synthetic graph generators.

Two families matter for the paper's evaluation:

* :func:`rmat_graph` — the R-MAT recursive generator (Chakrabarti et al.,
  SDM'04), the paper's ``rmat-12..22`` series (Table 2): power-law degrees
  with tunable skew.  Our implementation is fully vectorized (one uniform
  per recursion level per edge).
* :func:`chung_lu_graph` — an expected-degree-sequence generator used to
  build stand-ins for the real-world datasets: it matches a target average
  degree and Zipf-like skew without R-MAT's quadrant artifacts.

Plus the usual deterministic micro-graphs (path, cycle, star, complete) that
unit tests lean on.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builders import from_edge_list
from repro.graph.csr import CSRGraph


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    directed: bool = True,
    deduplicate: bool = False,
    name: str | None = None,
) -> CSRGraph:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    Parameters follow the Graph500 convention: quadrant probabilities
    ``(a, b, c, d)`` with ``d = 1 - a - b - c``, and ``edge_factor`` edges
    per vertex.  Multi-edges are kept by default (as R-MAT naturally
    produces them) — pass ``deduplicate=True`` for a simple graph.
    """
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError(f"quadrant probabilities must be a distribution, got d={d:.3f}")
    n = 1 << scale
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    draw = np.empty(m)
    down = np.empty(m, dtype=bool)
    right = np.empty(m, dtype=bool)
    crossed = np.empty(m, dtype=bool)
    # Thresholds of the four quadrants in CDF form: a draw that crosses one
    # threshold lands in b, two in c, three in d.  It moves down from c on,
    # and right in b and d (an odd number of crossings).
    t_a, t_ab, t_abc = a, a + b, a + b + c
    for level in range(scale):
        rng.random(out=draw)
        np.greater_equal(draw, t_ab, out=down)
        np.greater_equal(draw, t_a, out=right)
        right ^= down
        right ^= np.greater_equal(draw, t_abc, out=crossed)
        src <<= 1
        src |= down
        dst <<= 1
        dst |= right
    del draw, down, right, crossed
    edges = np.stack([src, dst], axis=1)
    del src, dst
    return from_edge_list(
        edges,
        num_vertices=n,
        directed=directed,
        deduplicate=deduplicate,
        name=name or f"rmat-{scale}",
    )


def chung_lu_graph(
    num_vertices: int,
    avg_degree: float,
    exponent: float = 2.1,
    seed: int = 0,
    directed: bool = True,
    name: str = "chung-lu",
) -> CSRGraph:
    """Power-law graph with the given expected average degree.

    Endpoints of each edge are drawn independently with probability
    proportional to a Zipf(``exponent``) weight sequence, giving the heavy
    degree skew of real web/social graphs.  For undirected output the drawn
    edges are symmetrized (so the realized average degree doubles relative
    to the number of drawn pairs — accounted for here).
    """
    if num_vertices <= 0:
        raise ValueError(f"num_vertices must be positive, got {num_vertices}")
    if avg_degree <= 0:
        raise ValueError(f"avg_degree must be positive, got {avg_degree}")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    rng.shuffle(weights)
    probabilities = weights / weights.sum()
    target_arcs = int(round(avg_degree * num_vertices))

    def draw(n_pairs: int) -> CSRGraph:
        src = rng.choice(num_vertices, size=n_pairs, p=probabilities)
        dst = rng.choice(num_vertices, size=n_pairs, p=probabilities)
        keep = src != dst
        edges = np.stack([src[keep], dst[keep]], axis=1)
        return from_edge_list(
            edges,
            num_vertices=num_vertices,
            directed=directed,
            deduplicate=True,
            name=name,
        )

    # Duplicate pairs (heavy-tailed endpoints collide often) are removed by
    # deduplication, which deflates the realized degree below the target;
    # one corrective redraw with an inflated pair count recovers it.
    n_draws = target_arcs if directed else max(target_arcs // 2, 1)
    graph = draw(n_draws)
    realized = graph.num_edges
    if realized and realized < 0.97 * target_arcs:
        inflation = min(target_arcs / realized, 3.0)
        graph = draw(int(n_draws * inflation * 1.05))
    return graph


def erdos_renyi_graph(
    num_vertices: int,
    avg_degree: float,
    seed: int = 0,
    directed: bool = True,
    name: str = "erdos-renyi",
) -> CSRGraph:
    """G(n, m) uniform random graph with the given expected average degree."""
    if num_vertices <= 0:
        raise ValueError(f"num_vertices must be positive, got {num_vertices}")
    rng = np.random.default_rng(seed)
    target_arcs = int(round(avg_degree * num_vertices))
    n_draws = target_arcs if directed else max(target_arcs // 2, 1)
    src = rng.integers(0, num_vertices, size=n_draws)
    dst = rng.integers(0, num_vertices, size=n_draws)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)
    return from_edge_list(
        edges,
        num_vertices=num_vertices,
        directed=directed,
        deduplicate=True,
        name=name,
    )


def path_graph(num_vertices: int, directed: bool = True) -> CSRGraph:
    """0 -> 1 -> ... -> n-1."""
    src = np.arange(num_vertices - 1, dtype=np.int64)
    edges = np.stack([src, src + 1], axis=1)
    return from_edge_list(edges, num_vertices=num_vertices, directed=directed, name="path")


def cycle_graph(num_vertices: int, directed: bool = True) -> CSRGraph:
    """0 -> 1 -> ... -> n-1 -> 0."""
    src = np.arange(num_vertices, dtype=np.int64)
    edges = np.stack([src, (src + 1) % num_vertices], axis=1)
    return from_edge_list(edges, num_vertices=num_vertices, directed=directed, name="cycle")


def star_graph(num_leaves: int, directed: bool = True) -> CSRGraph:
    """Hub vertex 0 connected to ``num_leaves`` leaves (1..n)."""
    hubs = np.zeros(num_leaves, dtype=np.int64)
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    edges = np.stack([hubs, leaves], axis=1)
    return from_edge_list(edges, num_vertices=num_leaves + 1, directed=directed, name="star")


def complete_graph(num_vertices: int) -> CSRGraph:
    """All ordered pairs (u, v), u != v."""
    grid = np.indices((num_vertices, num_vertices)).reshape(2, -1).T
    edges = grid[grid[:, 0] != grid[:, 1]]
    return from_edge_list(edges, num_vertices=num_vertices, directed=True, name="complete")
