"""LightRW reproduction — FPGA-accelerated graph dynamic random walks.

A comprehensive Python reproduction of *LightRW: FPGA Accelerated Graph
Dynamic Random Walks* (Tan et al., SIGMOD 2023): the parallel weighted
reservoir sampler, the degree-aware cache and dynamic burst engine, a
cycle-level simulator of the full accelerator, a modeled ThunderRW CPU
baseline, and a regenerator for every table and figure of the paper's
evaluation.

Quickstart
----------
>>> from repro import LightRW, Node2VecWalk, load_dataset
>>> graph = load_dataset("livejournal", scale_divisor=512)
>>> engine = LightRW(graph, hardware_scale=512)
>>> result = engine.run(Node2VecWalk(p=2, q=0.5), n_steps=80,
...                     max_sampled_queries=512)
>>> result.paths.shape[1] == 81
True

See DESIGN.md for the architecture and the hardware-substitution rules,
and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.core.api import LightRW, RunResult
from repro.core.compare import SpeedupReport, compare_engines
from repro.core.queries import make_queries, sample_queries
from repro.cpu.costmodel import CPUSpec
from repro.errors import (
    ArtifactCorruptionError,
    ConfigError,
    GraphFormatError,
    QueryError,
    ReproError,
    ShardExecutionError,
    ShardTimeoutError,
    SimulationError,
    SimulationStallError,
)
from repro.fpga.accelerator import LightRWAcceleratorSim
from repro.fpga.burst import BurstStrategy
from repro.fpga.config import LightRWConfig
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASET_ORDER, DATASETS, load_dataset
from repro.graph.generators import chung_lu_graph, erdos_renyi_graph, rmat_graph
from repro.obs import MetricsRegistry, Observer, RunManifest, use_observer
from repro.runtime import (
    Backend,
    BackendCapabilities,
    BatchScheduler,
    InjectedFault,
    RetryPolicy,
    RunCheckpoint,
    ShardFailure,
    TimingBreakdown,
    backend_names,
    register_backend,
)
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.static import StaticWalk
from repro.walks.uniform import UniformWalk

__version__ = "1.0.0"

__all__ = [
    "ArtifactCorruptionError",
    "Backend",
    "BackendCapabilities",
    "BatchScheduler",
    "BurstStrategy",
    "CPUSpec",
    "CSRGraph",
    "ConfigError",
    "DATASETS",
    "DATASET_ORDER",
    "GraphFormatError",
    "LightRW",
    "LightRWAcceleratorSim",
    "LightRWConfig",
    "MetaPathWalk",
    "MetricsRegistry",
    "Node2VecWalk",
    "InjectedFault",
    "Observer",
    "QueryError",
    "ReproError",
    "RetryPolicy",
    "RunCheckpoint",
    "RunManifest",
    "RunResult",
    "ShardExecutionError",
    "ShardFailure",
    "ShardTimeoutError",
    "SimulationError",
    "SimulationStallError",
    "SpeedupReport",
    "StaticWalk",
    "TimingBreakdown",
    "UniformWalk",
    "__version__",
    "backend_names",
    "chung_lu_graph",
    "compare_engines",
    "erdos_renyi_graph",
    "load_dataset",
    "make_queries",
    "register_backend",
    "rmat_graph",
    "sample_queries",
    "use_observer",
]
