"""Link prediction case study (paper Section 6.7, Figure 18).

The pipeline the paper integrates into SNAP:

1. hold out a fraction of edges as positive test pairs (plus sampled
   non-edges as negatives),
2. run Node2Vec walks over the remaining graph — on the modeled CPU
   (plain "SNAP") or on the modeled accelerator ("SNAP w/ LightRW"),
3. train skip-gram embeddings on the walk corpus,
4. score test pairs by cosine similarity and evaluate AUC.

The report carries the Figure 18 quantities: per-phase time for both
deployments, showing the walk phase dominating and LightRW roughly
halving the end-to-end time.  All phases are expressed in the same
modeling frame: walk time comes from the platform models, learning time
is charged per training pair at the rate of SNAP's optimized C++ word2vec
(``WORD2VEC_S_PER_PAIR``) and scoring time per test pair
(``SCORING_S_PER_PAIR``).  The *functional* embedding training and
scoring still happen (in numpy, producing the real AUC), but the training's
Python wall-clock is reported separately in ``extras`` rather than mixed
into the cross-platform comparison, so the phase times are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.apps.word2vec import train_skipgram, walk_training_pairs
from repro.core.api import LightRW
from repro.core.queries import make_queries
from repro.fpga.config import LightRWConfig
from repro.graph.builders import from_edge_list
from repro.graph.csr import CSRGraph
from repro.walks.node2vec import Node2VecWalk

#: Modeled cost of one (target, context) SGNS update in SNAP's C++
#: word2vec: ~400 flops (dim 32, 5 negatives) plus memory traffic, on one
#: core.  Divided by the thread count at use.
WORD2VEC_S_PER_PAIR = 100e-9
#: Threads SNAP's word2vec uses on the modeled server.
WORD2VEC_THREADS = 16
#: Modeled cost of scoring one test pair on one core: the cosine of two
#: 32-dim embeddings, dominated by two random embedding-row fetches from
#: DRAM (~100 ns each) rather than by its ~100 flops.
SCORING_S_PER_PAIR = 200e-9


@dataclass
class PhaseTimes:
    """Per-phase seconds of one deployment (one bar of Figure 18)."""

    walk_s: float
    transfer_s: float
    learning_s: float
    scoring_s: float

    @property
    def total_s(self) -> float:
        return self.walk_s + self.transfer_s + self.learning_s + self.scoring_s

    def as_row(self) -> dict[str, float]:
        return {
            "walk": self.walk_s,
            "transfer": self.transfer_s,
            "learning": self.learning_s,
            "scoring": self.scoring_s,
            "total": self.total_s,
        }


@dataclass
class LinkPredictionReport:
    """Outcome of the case study."""

    auc: float
    snap: PhaseTimes
    snap_with_lightrw: PhaseTimes
    num_test_pairs: int
    extras: dict = field(default_factory=dict)

    @property
    def end_to_end_speedup(self) -> float:
        return self.snap.total_s / self.snap_with_lightrw.total_s


def split_edges(
    graph: CSRGraph, holdout_fraction: float = 0.1, seed: int = 0
) -> tuple[CSRGraph, np.ndarray, np.ndarray]:
    """Hold out edges for evaluation.

    Returns ``(train_graph, positive_pairs, negative_pairs)``; for
    undirected graphs both arc directions of a held-out edge are removed.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    targets = graph.col_index.astype(np.int64)
    # Work on canonical pairs so undirected edges are held out atomically.
    canonical = sources < targets if not graph.directed else np.ones(sources.size, bool)
    pairs = np.stack([sources[canonical], targets[canonical]], axis=1)
    n_holdout = max(int(pairs.shape[0] * holdout_fraction), 1)
    held_idx = rng.choice(pairs.shape[0], size=n_holdout, replace=False)
    held_mask = np.zeros(pairs.shape[0], dtype=bool)
    held_mask[held_idx] = True
    positives = pairs[held_mask]
    kept = pairs[~held_mask]

    train_graph = from_edge_list(
        kept,
        num_vertices=n,
        directed=graph.directed,
        name=f"{graph.name}-train",
    )
    # Negatives: uniformly sampled non-edges (rejection against the
    # original graph).
    negatives = []
    needed = positives.shape[0]
    while len(negatives) < needed:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v and not graph.has_edge(u, v):
            negatives.append((u, v))
    return train_graph, positives, np.asarray(negatives, dtype=np.int64)


def auc_score(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum formulation."""
    if pos_scores.size == 0 or neg_scores.size == 0:
        raise ValueError("need both positive and negative scores")
    combined = np.concatenate([pos_scores, neg_scores])
    ranks = np.argsort(np.argsort(combined)) + 1.0
    pos_rank_sum = ranks[: pos_scores.size].sum()
    n_pos, n_neg = pos_scores.size, neg_scores.size
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class LinkPredictionPipeline:
    """SNAP-style link prediction with pluggable walk acceleration."""

    def __init__(
        self,
        graph: CSRGraph,
        hardware_scale: int = 1,
        config: LightRWConfig | None = None,
        walk_length: int = 40,
        window: int = 5,
        embedding_dim: int = 32,
        p: float = 2.0,
        q: float = 0.5,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.hardware_scale = hardware_scale
        self.config = config
        self.walk_length = walk_length
        self.window = window
        self.embedding_dim = embedding_dim
        self.algorithm = Node2VecWalk(p=p, q=q)
        self.seed = seed

    def run(
        self,
        holdout_fraction: float = 0.1,
        max_sampled_queries: int = 2048,
        max_training_pairs: int = 200_000,
        epochs: int = 2,
    ) -> LinkPredictionReport:
        """Execute the full case study and report Figure 18 quantities."""
        train_graph, positives, negatives = split_edges(
            self.graph, holdout_fraction, seed=self.seed
        )
        starts = make_queries(train_graph, seed=self.seed)

        fpga = LightRW(
            train_graph,
            config=self.config,
            backend="fpga-model",
            hardware_scale=self.hardware_scale,
            seed=self.seed,
        )
        cpu = LightRW(
            train_graph,
            config=self.config,
            backend="cpu-baseline",
            hardware_scale=self.hardware_scale,
            seed=self.seed,
        )
        fpga_run = fpga.run(
            self.algorithm,
            self.walk_length,
            starts=starts,
            max_sampled_queries=max_sampled_queries,
        )
        cpu_run = cpu.run(
            self.algorithm,
            self.walk_length,
            starts=starts,
            max_sampled_queries=max_sampled_queries,
        )

        t0 = time.perf_counter()
        pairs = walk_training_pairs(
            fpga_run.paths,
            fpga_run.lengths,
            window=self.window,
            max_pairs=max_training_pairs,
            seed=self.seed,
        )
        model = train_skipgram(
            pairs,
            train_graph.num_vertices,
            dim=self.embedding_dim,
            epochs=epochs,
            seed=self.seed,
            degree_weights=train_graph.degrees,
        )
        measured_learning_s = time.perf_counter() - t0
        # Modeled learning time: the full (non-subsampled) corpus of the
        # full query batch, trained by SNAP's multithreaded C++ word2vec.
        sample_factor = fpga_run.num_queries / max(fpga_run.paths.shape[0], 1)
        full_pairs = (
            float(fpga_run.lengths.sum()) * 2.0 * self.window * sample_factor
        )
        learning_s = full_pairs * epochs * WORD2VEC_S_PER_PAIR / WORD2VEC_THREADS

        pos_scores = model.score_pairs(positives)
        neg_scores = model.score_pairs(negatives)
        auc = auc_score(pos_scores, neg_scores)
        num_test_pairs = int(positives.shape[0] + negatives.shape[0])
        scoring_s = num_test_pairs * SCORING_S_PER_PAIR

        snap = PhaseTimes(
            walk_s=cpu_run.kernel_s + cpu_run.setup_s,
            transfer_s=0.0,
            learning_s=learning_s,
            scoring_s=scoring_s,
        )
        accelerated = PhaseTimes(
            walk_s=fpga_run.kernel_s,
            transfer_s=fpga_run.pcie_s,
            learning_s=learning_s,
            scoring_s=scoring_s,
        )
        return LinkPredictionReport(
            auc=auc,
            snap=snap,
            snap_with_lightrw=accelerated,
            num_test_pairs=num_test_pairs,
            extras={
                "walk_speedup": snap.walk_s / max(accelerated.walk_s + accelerated.transfer_s, 1e-12),
                "num_queries": fpga_run.num_queries,
                "measured_learning_s": measured_learning_s,
                "training_pairs_used": int(pairs.shape[0]),
            },
        )
