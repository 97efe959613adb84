"""System comparison helper: LightRW vs the ThunderRW baseline.

Runs the same workload through both modeled engines (sharing the same
graph, query batch and scaled-platform rule) and reports the speedup —
the computation behind Figures 14, 16 and 17 and Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import LightRW, RunResult
from repro.core.queries import make_queries
from repro.cpu.costmodel import (
    CPU_PWRS_LANES,
    CPUSpec,
    CPUTimeBreakdown,
    cpu_time_for_session,
)
from repro.fpga.config import LightRWConfig
from repro.fpga.power import PowerModel
from repro.graph.csr import CSRGraph
from repro.walks.base import WalkAlgorithm
from repro.walks.stepper import PWRSSampler, run_walks


@dataclass
class SpeedupReport:
    """One workload compared across the modeled systems."""

    graph: str
    algorithm: str
    lightrw: RunResult
    thunderrw: RunResult
    #: "ThunderRW w/ PWRS": the CPU cost model over a PWRS walk.
    thunderrw_pwrs: CPUTimeBreakdown | None = None

    @property
    def speedup(self) -> float:
        """LightRW end-to-end speedup over stock ThunderRW."""
        return self.thunderrw.kernel_s / self.lightrw.end_to_end_s

    @property
    def pwrs_on_cpu_speedup(self) -> float | None:
        """ThunderRW w/ PWRS relative to stock ThunderRW (Figure 14)."""
        if self.thunderrw_pwrs is None:
            return None
        return self.thunderrw.kernel_s / self.thunderrw_pwrs.exec_s

    def power_efficiency_improvement(self) -> float:
        model = PowerModel(self.algorithm)
        return model.efficiency_improvement(
            self.lightrw.end_to_end_s, self.thunderrw.kernel_s
        )


def compare_engines(
    graph: CSRGraph,
    algorithm: WalkAlgorithm,
    n_steps: int,
    hardware_scale: int = 1,
    config: LightRWConfig | None = None,
    cpu_spec: CPUSpec | None = None,
    starts: np.ndarray | None = None,
    n_queries: int | None = None,
    max_sampled_queries: int = 2048,
    include_pwrs_variant: bool = False,
    seed: int = 0,
) -> SpeedupReport:
    """Run one workload through LightRW and ThunderRW models.

    Both engines see the same start vertices and the same scaled-platform
    rule; functional walks differ (each system samples with its own
    method), as they do on real hardware.
    """
    if starts is None:
        starts = make_queries(graph, n_queries=n_queries, seed=seed)

    fpga = LightRW(
        graph,
        config=config,
        backend="fpga-model",
        hardware_scale=hardware_scale,
        seed=seed,
        cpu_spec=cpu_spec,
    )
    cpu = LightRW(
        graph,
        config=config,
        backend="cpu-baseline",
        hardware_scale=hardware_scale,
        seed=seed,
        cpu_spec=cpu_spec,
    )
    light = fpga.run(
        algorithm, n_steps, starts=starts, max_sampled_queries=max_sampled_queries
    )
    thunder = cpu.run(
        algorithm, n_steps, starts=starts, max_sampled_queries=max_sampled_queries
    )
    pwrs_timing = None
    if include_pwrs_variant:
        # The batch plan_run sampled for LightRW, walked with SIMD-lane PWRS.
        session = run_walks(
            graph, light.session.starts, n_steps, algorithm,
            PWRSSampler(CPU_PWRS_LANES, seed),
        )
        pwrs_timing = cpu_time_for_session(
            session, algorithm, cpu.cpu_spec, sampler="pwrs",
            total_queries=light.num_queries,
        )
    return SpeedupReport(
        graph=graph.name,
        algorithm=algorithm.name,
        lightrw=light,
        thunderrw=thunder,
        thunderrw_pwrs=pwrs_timing,
    )
