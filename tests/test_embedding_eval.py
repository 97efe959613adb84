"""Embedding quality of accelerated walks."""

from __future__ import annotations

import numpy as np


class TestEndToEndQuality:
    def test_accelerated_walks_produce_coherent_embeddings(self):
        """Walks from the modeled accelerator → SGNS → coherent space."""
        from repro import LightRW, Node2VecWalk
        from repro.apps.word2vec import train_skipgram, walk_training_pairs
        from repro.graph.builders import from_edge_list

        rng = np.random.default_rng(3)
        blocks, size = 6, 20
        edges = []
        for b in range(blocks):
            base = b * size
            for i in range(size):
                for j in range(i + 1, size):
                    if rng.random() < 0.35:
                        edges.append((base + i, base + j))
            edges.append((base, ((b + 1) % blocks) * size))
        graph = from_edge_list(
            np.array(edges), num_vertices=blocks * size, directed=False,
            deduplicate=True,
        )
        labels = np.repeat(np.arange(blocks), size)

        engine = LightRW(graph, seed=4)
        result = engine.run(Node2VecWalk(1.0, 0.5), 25)
        pairs = walk_training_pairs(result.paths, result.lengths, window=4, seed=4)
        model = train_skipgram(
            pairs, graph.num_vertices, dim=16, epochs=4, seed=4,
            degree_weights=graph.degrees,
        )

        vectors = model.in_vectors / np.linalg.norm(model.in_vectors, axis=1, keepdims=True)
        similarity = vectors @ vectors.T
        same = labels[:, None] == labels[None, :]
        off_diagonal = ~np.eye(labels.size, dtype=bool)
        # Intra- minus inter-community cosine similarity: 0 is chance.
        separation = similarity[same & off_diagonal].mean() - similarity[~same].mean()
        np.fill_diagonal(similarity, -np.inf)
        nearest = similarity.argmax(axis=1)
        # Share of vertices whose nearest neighbour is in their community.
        assert (labels[nearest] == labels).mean() > 0.7
        assert separation > 0.1
