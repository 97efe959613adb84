"""Statistical validation of walk distributions.

The reproduction's correctness story leans on one chain of evidence: the
hardware sampler implements Algorithm 4.1 exactly, Algorithm 4.1 is
distribution-identical to sequential WRS, and sequential WRS samples item
``i`` with probability ``w_i / sum(w)``.  This module closes the loop
empirically: it computes the *exact* one-step transition distribution of
any walk algorithm on a small graph and chi-square-tests sampled steps
against it.

Used by the test suite and available to users validating custom
:class:`~repro.walks.base.WalkAlgorithm` implementations.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.errors import QueryError
from repro.graph.csr import CSRGraph
from repro.walks.base import WalkAlgorithm, gather_step


def exact_step_distribution(
    graph: CSRGraph,
    algorithm: WalkAlgorithm,
    vertex: int,
    prev: int = -1,
    step: int = 0,
) -> np.ndarray:
    """Exact next-vertex probabilities from ``vertex`` (length |V| vector).

    Computed straight from the algorithm's weight-update function — no
    sampling involved.  All-zero weights (a dead end) give the zero
    vector.
    """
    if not 0 <= vertex < graph.num_vertices:
        raise QueryError(f"vertex {vertex} out of range")
    out = np.zeros(graph.num_vertices, dtype=np.float64)
    if graph.degree(vertex) == 0:
        return out
    ctx = gather_step(graph, step, np.array([vertex]), np.array([prev]))
    weights = algorithm.dynamic_weights(ctx)
    total = weights.sum()
    if total <= 0:
        return out
    np.add.at(out, ctx.dst, weights / total)
    return out


def chi_square_step_test(
    graph: CSRGraph,
    algorithm: WalkAlgorithm,
    vertex: int,
    sampled_next: np.ndarray,
    prev: int = -1,
    step: int = 0,
    min_expected: float = 5.0,
) -> tuple[float, float]:
    """Chi-square test of sampled next-vertices against the exact law.

    Parameters
    ----------
    sampled_next:
        Next vertices drawn by repeated sampling from ``vertex``.
    min_expected:
        Buckets with expected counts below this are pooled (standard
        chi-square hygiene).

    Returns
    -------
    (statistic, p_value)
    """
    expected_probability = exact_step_distribution(graph, algorithm, vertex, prev, step)
    support = np.nonzero(expected_probability > 0)[0]
    if support.size == 0:
        raise QueryError(f"vertex {vertex} has no outgoing probability mass")
    sampled_next = np.asarray(sampled_next)
    n = sampled_next.size
    observed = np.array([(sampled_next == v).sum() for v in support], dtype=np.float64)
    expected = expected_probability[support] * n
    if observed.sum() != n:
        raise QueryError("samples fall outside the exact support")
    # Pool small-expectation buckets.
    order = np.argsort(expected)
    observed, expected = observed[order], expected[order]
    pooled_obs: list[float] = []
    pooled_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    elif acc_e > 0:
        pooled_obs.append(acc_o)
        pooled_exp.append(acc_e)
    if len(pooled_exp) < 2:
        return 0.0, 1.0
    statistic, p_value = stats.chisquare(pooled_obs, pooled_exp)
    return float(statistic), float(p_value)


def empirical_step_distribution(
    graph: CSRGraph,
    algorithm: WalkAlgorithm,
    vertex: int,
    n_samples: int,
    k: int = 16,
    seed: int = 0,
    prev: int = -1,
) -> np.ndarray:
    """Draw ``n_samples`` one-step transitions with the PWRS machinery.

    Each draw uses an independent query id, exactly like distinct hardware
    queries standing on the same vertex.
    """
    from repro.walks.stepper import PWRSSampler, run_walks

    starts = np.full(n_samples, vertex, dtype=np.int64)
    if prev >= 0:
        raise QueryError(
            "second-order conditioning requires walking from the previous "
            "vertex; use two-step walks instead"
        )
    session = run_walks(graph, starts, 1, algorithm, PWRSSampler(k=k, seed=seed))
    return session.paths[:, 1]


def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance between two distributions over the same support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())
