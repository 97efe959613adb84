"""Table 1 — top-down profile of the ThunderRW CPU baseline.

LLC miss ratio, memory-bound fraction and retiring fraction for MetaPath
and Node2Vec on livejournal and uk2002, next to the paper's vTune
measurements.
"""

from __future__ import annotations

from repro.bench.common import (
    DEFAULT_SAMPLED_QUERIES,
    DEFAULT_SCALE,
    DEFAULT_SEED,
    METAPATH_LENGTH,
    METAPATH_SCHEMA,
    NODE2VEC_LENGTH,
    NODE2VEC_P,
    NODE2VEC_Q,
    ExperimentResult,
    register,
)
from repro.cpu.costmodel import CPUSpec, cpu_time_for_session
from repro.cpu.profiling import profile_session
from repro.graph.datasets import load_dataset
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.stepper import InverseTransformSampler, run_walks

#: The paper's measured values: (app, graph) -> (llc_miss, mem_bound, retiring).
PAPER_VALUES = {
    ("MetaPath", "livejournal"): (0.582, 0.599, 0.082),
    ("MetaPath", "uk2002"): (0.618, 0.575, 0.137),
    ("Node2Vec", "livejournal"): (0.769, 0.312, 0.233),
    ("Node2Vec", "uk2002"): (0.611, 0.317, 0.336),
}


@register("table1")
def run(
    scale_divisor: int = DEFAULT_SCALE,
    node2vec_length: int = NODE2VEC_LENGTH // 2,
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    workloads = [
        ("MetaPath", MetaPathWalk(METAPATH_SCHEMA), METAPATH_LENGTH),
        ("Node2Vec", Node2VecWalk(NODE2VEC_P, NODE2VEC_Q), node2vec_length),
    ]
    rows = []
    for app, algorithm, n_steps in workloads:
        for name in ("livejournal", "uk2002"):
            graph = load_dataset(name, scale_divisor=scale_divisor, seed=seed)
            starts = graph.nonzero_degree_vertices()[:DEFAULT_SAMPLED_QUERIES]
            session = run_walks(
                graph, starts, n_steps, algorithm, InverseTransformSampler(seed)
            )
            timing = cpu_time_for_session(
                session, algorithm, CPUSpec().scaled(scale_divisor)
            )
            profile = profile_session(timing, app, name)
            paper = PAPER_VALUES[(app, name)]
            rows.append(
                {
                    "app": app,
                    "graph": name,
                    "llc_miss": f"{profile.llc_miss_ratio:.1%}",
                    "paper_llc_miss": f"{paper[0]:.1%}",
                    "memory_bound": f"{profile.memory_bound:.1%}",
                    "paper_mem_bound": f"{paper[1]:.1%}",
                    "retiring": f"{profile.retiring:.1%}",
                    "paper_retiring": f"{paper[2]:.1%}",
                }
            )
    return ExperimentResult(
        name="table1",
        title="Top-down profile of the modeled ThunderRW baseline",
        rows=rows,
        paper_expectation=(
            "high LLC miss ratios (58-77%), memory bound 31-60%, retiring "
            "only 8-34%: memory accesses dominate CPU GDRW execution"
        ),
        params={"scale_divisor": scale_divisor, "node2vec_length": node2vec_length},
    )
