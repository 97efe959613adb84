"""Graph statistics used by the evaluation and the analysis notebooks.

Mostly degree-distribution quantities: the paper's techniques (degree-aware
caching, dynamic bursts) are driven entirely by how skewed the degree
distribution is, so the harness reports these numbers alongside every
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a graph's out-degree distribution."""

    mean: float
    median: float
    maximum: int
    gini: float
    #: Expected degree of the vertex a stationary random walk stands on
    #: (sum d^2 / sum d) — the quantity that drives per-step cost.
    stationary_mean_degree: float
    #: Share of edges owned by the top 1% of vertices.
    top_percent_edge_share: float

    def as_row(self) -> dict[str, float]:
        return {
            "mean_degree": round(self.mean, 2),
            "median_degree": self.median,
            "max_degree": self.maximum,
            "gini": round(self.gini, 3),
            "stationary_mean_degree": round(self.stationary_mean_degree, 1),
            "top1pct_edge_share": round(self.top_percent_edge_share, 3),
        }


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Compute the degree summary (O(V log V))."""
    degrees = graph.degrees.astype(np.float64)
    if degrees.size == 0:
        return DegreeStats(0.0, 0.0, 0, 0.0, 0.0, 0.0)
    total = degrees.sum()
    sorted_degrees = np.sort(degrees)
    n = degrees.size
    if total > 0:
        # Gini coefficient of the degree distribution.
        cumulative = np.cumsum(sorted_degrees)
        gini = float((n + 1 - 2 * (cumulative / total).sum()) / n)
        stationary = float((degrees**2).sum() / total)
        top = max(n // 100, 1)
        top_share = float(sorted_degrees[-top:].sum() / total)
    else:
        gini = 0.0
        stationary = 0.0
        top_share = 0.0
    return DegreeStats(
        mean=float(degrees.mean()),
        median=float(np.median(degrees)),
        maximum=int(degrees.max()),
        gini=gini,
        stationary_mean_degree=stationary,
        top_percent_edge_share=top_share,
    )


def degree_histogram(graph: CSRGraph, log_base: float = 2.0) -> list[tuple[str, int]]:
    """Log-bucketed degree histogram, ``[(bucket_label, count), ...]``."""
    degrees = graph.degrees
    rows: list[tuple[str, int]] = [("0", int((degrees == 0).sum()))]
    upper = 1
    while upper <= max(int(degrees.max()), 1):
        lower = upper
        upper = int(lower * log_base) if lower * log_base > lower else lower + 1
        count = int(((degrees >= lower) & (degrees < upper)).sum())
        rows.append((f"[{lower}, {upper})", count))
    return rows

