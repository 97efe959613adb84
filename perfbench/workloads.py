"""The benchmark's workloads and the set-up every run of one pays.

Each workload is one paper-shaped query batch (PAPER §6.1.4: Node2Vec
p=2, q=0.5 at 80 steps, MetaPath schema ``[0, 1, 2, 3]`` at 5 steps).  The
run's seed makes the query batch, the walk randomness and the RMAT graph;
a named dataset stand-in keeps its own fixed generation seed, because
which of its few huge hubs carry which label moves the MetaPath work by
10% from one graph seed to the next.  Set-up builds the graph, the
``LightRW`` engine and the query batch; users pay it once per batch, so it
is timed on its own (``setup_s``) and never inside ``run_s``.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import LightRW, MetaPathWalk, Node2VecWalk, UniformWalk, make_queries
from repro.graph import load_dataset, rmat_graph
from repro.graph.csr import CSRGraph
from repro.walks.base import WalkAlgorithm

#: MetaPath label schema of the paper's evaluation.
METAPATH_SCHEMA = (0, 1, 2, 3)


def host_threads() -> int:
    """CPUs this process may run on (the worker-pool width of thread mode)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    """One query batch shape plus the execution settings it runs with."""

    name: str
    why: str
    backend: str
    #: ``"node2vec"``, ``"uniform"`` or ``"metapath"``.
    algorithm: str
    n_steps: int
    #: ``max_sampled_queries`` of the run: the functionally walked batch.
    sampled_queries: int
    #: ``("rmat", log2 vertices)`` or (dataset name, scale divisor).
    graph: tuple[str, int]
    shards: int = 1
    mode: str = "sequential"
    #: Give every run a fresh ``checkpoint_dir``.
    checkpoint: bool = False

    @property
    def uses_pwrs(self) -> bool:
        """Walks through the PWRS sampler (bit-exact to ``walk_single_query``)."""
        return self.backend != "cpu-baseline"

    def make_algorithm(self) -> WalkAlgorithm:
        if self.algorithm == "node2vec":
            return Node2VecWalk(p=2.0, q=0.5)
        if self.algorithm == "uniform":
            return UniformWalk()
        return MetaPathWalk(list(METAPATH_SCHEMA))

    def build_graph(self, seed: int) -> CSRGraph:
        kind, size = self.graph
        if kind == "rmat":
            return rmat_graph(size, edge_factor=8, seed=seed)
        return load_dataset(kind, scale_divisor=size)

    def hardware_scale(self) -> int:
        """Scaled-platform divisor: the stand-in's divisor, 1 for RMAT."""
        kind, size = self.graph
        return 1 if kind == "rmat" else size

    def tiny(self) -> "Workload":
        """The same shape on a graph and batch small enough for a unit test."""
        kind, _ = self.graph
        return dataclasses.replace(
            self,
            graph=("rmat", 8) if kind == "rmat" else (kind, 8192),
            sampled_queries=48,
            n_steps=min(self.n_steps, 12),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="n2v-rmat16",
            why=(
                "Node2Vec on one sequential shard: the second-order membership "
                "test dominates; no scheduler, merge or checkpoint work"
            ),
            backend="fpga-model",
            algorithm="node2vec",
            n_steps=80,
            sampled_queries=1024,
            graph=("rmat", 16),
        ),
        Workload(
            name="uniform-rmat16-x16",
            why=(
                "uniform walk on 16 shards in a thread pool: PWRS selection and "
                "the gather dominate; exercises the pool, per-shard cost models "
                "and merge"
            ),
            backend="fpga-model",
            algorithm="uniform",
            n_steps=80,
            sampled_queries=4096,
            graph=("rmat", 16),
            shards=16,
            mode="thread",
        ),
        Workload(
            name="metapath-lj-ckpt",
            why=(
                "weighted MetaPath, 5 hub-heavy steps on the LiveJournal "
                "stand-in, 8 shards checkpointed: gather, weight quantization, "
                "cost model and checkpoint writes"
            ),
            backend="fpga-model",
            algorithm="metapath",
            n_steps=5,
            sampled_queries=16384,
            graph=("livejournal", 64),
            shards=8,
            checkpoint=True,
        ),
        Workload(
            name="thunderrw-n2v-rmat16",
            why=(
                "n2v-rmat16 on the ThunderRW CPU baseline: the inverse-transform "
                "sampler and CPU cost model, the divisor of the speedup figures"
            ),
            backend="cpu-baseline",
            algorithm="node2vec",
            n_steps=80,
            sampled_queries=1024,
            graph=("rmat", 16),
        ),
    ]
}


@dataclass
class Setup:
    """What set-up hands the timed runs: the engine and its query batch."""

    workload: Workload
    engine: LightRW
    algorithm: WalkAlgorithm
    starts: np.ndarray

    @property
    def graph(self) -> CSRGraph:
        return self.engine.graph

    def run_kwargs(self, checkpoint_dir: Path | None = None) -> dict:
        """Keyword arguments of ``LightRW.run`` besides algorithm and steps."""
        w = self.workload
        kwargs = dict(
            starts=self.starts,
            max_sampled_queries=w.sampled_queries,
            shards=w.shards,
            mode=w.mode,
            checkpoint_dir=checkpoint_dir,
        )
        if w.mode == "thread":
            kwargs["workers"] = host_threads()
        return kwargs


def set_up(workload: Workload, seed: int) -> Setup:
    """Build the graph (with labels and weights), the engine and the batch."""
    graph = workload.build_graph(seed)
    engine = LightRW(
        graph,
        backend=workload.backend,
        hardware_scale=workload.hardware_scale(),
        seed=seed,
    )
    starts = make_queries(graph, seed=seed)
    return Setup(
        workload=workload,
        engine=engine,
        algorithm=workload.make_algorithm(),
        starts=starts,
    )
