#!/usr/bin/env python
"""Personalized PageRank by accelerated restart walks.

The paper's introduction motivates GDRWs with recommendation systems;
this example builds one: run random walks with restart from a user vertex
on the modeled accelerator, rank items by visit frequency, and validate
the ranking against exact personalized PageRank by power iteration.

Usage:  python examples/personalized_pagerank.py
"""

import numpy as np

from repro import LightRW, load_dataset
from repro.walks.ppr import RestartWalk, exact_ppr, visit_frequencies

SCALE = 1024
ALPHA = 0.15


def main() -> None:
    graph = load_dataset("livejournal", scale_divisor=SCALE)
    print(f"graph: {graph}")

    # Recommend for the user with the median degree (a typical vertex).
    walkable = graph.nonzero_degree_vertices()
    user = int(walkable[np.argsort(graph.degrees[walkable])[walkable.size // 2]])
    print(f"user vertex: {user} (degree {graph.degree(user)})")

    engine = LightRW(graph, hardware_scale=SCALE, seed=13)
    starts = np.full(2000, user, dtype=np.int64)
    result = engine.run(RestartWalk(ALPHA), n_steps=40, starts=starts)
    print(f"\nran {result.num_queries} restart walks x 40 steps: "
          f"{result.total_steps} steps in {result.kernel_s * 1e3:.2f} ms modeled "
          f"({result.steps_per_second:.3g} steps/s)")

    estimate = visit_frequencies(result.paths, graph.num_vertices)
    exact = exact_ppr(graph, user, alpha=ALPHA)
    correlation = np.corrcoef(estimate, exact)[0, 1]
    print(f"correlation of walk-based scores with exact PPR: {correlation:.3f}")

    # Top recommendations: highest-PPR vertices the user isn't linked to.
    candidates = np.argsort(estimate)[::-1]
    neighbors = set(graph.neighbors(user).tolist()) | {user}
    print("\ntop recommendations (vertex, walk score, exact PPR):")
    shown = 0
    for vertex in candidates:
        if int(vertex) in neighbors:
            continue
        print(f"  {int(vertex):>6}  {estimate[vertex]:.5f}  {exact[vertex]:.5f}")
        shown += 1
        if shown == 5:
            break


if __name__ == "__main__":
    main()
