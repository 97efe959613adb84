#!/usr/bin/env python
"""MetaPath walks on a heterogeneous "knowledge graph".

Builds a synthetic author / paper / venue graph, defines the classic
A-P-V-P-A meta-path, and runs label-constrained walks on the modeled
accelerator — every sampled path provably follows the schema.

Usage:  python examples/metapath_knowledge_graph.py
"""

import numpy as np

from repro import LightRW, LightRWConfig, MetaPathWalk
from repro.graph import bibliographic_schema, heterogeneous_graph


def main() -> None:
    # Authors write papers; papers appear at venues (typed layers).
    network = bibliographic_schema(n_authors=300, n_papers=600, n_venues=25)
    graph = heterogeneous_graph(network, seed=1, name="bibliographic")
    print(f"knowledge graph: {graph}")
    layer_names = {network.label_of(name): name.capitalize() for name in network.layers}

    # The A-P-V-P-A meta-path: find authors related through a venue.
    schema = network.metapath_schema(["author", "paper", "venue", "paper", "author"])
    walk = MetaPathWalk(schema, weighted=False)

    engine = LightRW(graph, config=LightRWConfig(n_instances=2), seed=3)
    first, last = network.layer_slice("author")
    authors = np.arange(first, last)
    starts = authors[graph.degrees[authors] > 0][:200]
    result = engine.run(walk, n_steps=len(schema) - 1, starts=starts)

    complete = result.lengths == len(schema) - 1
    print(f"\n{complete.sum()} of {starts.size} walks completed the "
          f"A-P-V-P-A meta-path (others hit dead ends)")

    print("\nsample meta-paths (vertex: label):")
    shown = 0
    for q in np.nonzero(complete)[0][:5]:
        path = result.paths[q, : result.lengths[q] + 1]
        rendered = " -> ".join(
            f"{v}:{layer_names[int(graph.vertex_labels[v])]}" for v in path
        )
        print(f"  {rendered}")
        shown += 1
        # Every step matches the schema by construction:
        for position, vertex in enumerate(path):
            assert graph.vertex_labels[vertex] == schema[position]
    if shown:
        print("\nall sampled paths verified against the schema")

    print(f"\nmodeled kernel time: {result.kernel_s * 1e6:.1f} us "
          f"({result.steps_per_second:.3g} steps/s)")


if __name__ == "__main__":
    main()
