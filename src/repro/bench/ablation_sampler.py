"""Ablation — why WRS on the FPGA and not a table method (and vice versa).

Two views of the same design choice:

* on the **FPGA**, the streaming WRS pipeline vs the table-based sampler
  (the WRS-off ablation): the table forces a DRAM round-trip of the
  updated weights and serializes initialization/generation;
* on the **CPU**, the table methods vs parallel WRS dropped into
  ThunderRW: there the per-item random numbers are the expensive part —
  the asymmetry that motivates the whole paper (Section 3.2's "8.2x
  worse" probe).
"""

from __future__ import annotations

from repro.bench.common import (
    DEFAULT_SAMPLED_QUERIES,
    DEFAULT_SCALE,
    DEFAULT_SEED,
    METAPATH_LENGTH,
    METAPATH_SCHEMA,
    ExperimentResult,
    register,
)
from repro.cpu.costmodel import CPU_PWRS_LANES, CPUSpec, cpu_time_for_session
from repro.fpga.config import LightRWConfig
from repro.fpga.perfmodel import FPGAPerfModel
from repro.graph.datasets import load_dataset
from repro.walks.metapath import MetaPathWalk
from repro.walks.stepper import InverseTransformSampler, PWRSSampler, run_walks


@register("ablation-sampler")
def run(
    scale_divisor: int = DEFAULT_SCALE,
    graphs: tuple[str, ...] = ("livejournal", "orkut"),
    seed: int = DEFAULT_SEED,
) -> ExperimentResult:
    algorithm = MetaPathWalk(METAPATH_SCHEMA)
    rows = []
    for name in graphs:
        graph = load_dataset(name, scale_divisor=scale_divisor, seed=seed)
        starts = graph.nonzero_degree_vertices()[:DEFAULT_SAMPLED_QUERIES]
        session = run_walks(
            graph, starts, METAPATH_LENGTH, algorithm, PWRSSampler(16, seed)
        )
        config = LightRWConfig().scaled(scale_divisor)
        fpga_wrs = FPGAPerfModel(config, algorithm).evaluate(session, record_latency=False)
        fpga_table = FPGAPerfModel(
            config.with_ablation(wrs=False), algorithm
        ).evaluate(session, record_latency=False)

        spec = CPUSpec().scaled(scale_divisor)
        # The two table methods draw from the same per-step distribution:
        # one inverse-transform walk, costed under both labels.
        table_session = run_walks(
            graph, starts, METAPATH_LENGTH, algorithm, InverseTransformSampler(seed)
        )
        pwrs_session = run_walks(
            graph, starts, METAPATH_LENGTH, algorithm,
            PWRSSampler(CPU_PWRS_LANES, seed),
        )
        itx_exec = cpu_time_for_session(table_session, algorithm, spec).exec_s
        alias_exec = cpu_time_for_session(
            table_session, algorithm, spec, sampler="alias"
        ).exec_s
        pwrs_exec = cpu_time_for_session(
            pwrs_session, algorithm, spec, sampler="pwrs"
        ).exec_s
        rows.append(
            {
                "graph": name,
                "fpga_wrs_over_table": round(
                    fpga_table.kernel_cycles / fpga_wrs.kernel_cycles, 2
                ),
                "cpu_itx_over_pwrs": round(pwrs_exec / itx_exec, 2),
                "cpu_alias_over_itx": round(alias_exec / itx_exec, 2),
            }
        )
    return ExperimentResult(
        name="ablation-sampler",
        title="Sampling-method ablation: streaming WRS vs table methods",
        rows=rows,
        paper_expectation=(
            "WRS on the FPGA beats the table pipeline clearly (the Figure "
            "13 WRS bar); on the CPU the table methods stay competitive "
            "with (or beat) PWRS because per-item RNG is expensive there "
            "— the asymmetry that motivates the accelerator"
        ),
        params={"scale_divisor": scale_divisor},
    )
