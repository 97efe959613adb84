"""Cycle-accurate LightRW accelerator assembly (paper Figures 3 and 9).

Wires the pipeline modules of :mod:`repro.fpga.modules` into complete
LightRW instances — one per DRAM channel, each with a private graph copy —
distributes queries round-robin across instances, and ticks everything to
completion.

This backend is the ground truth for timing questions; it is slow (Python,
one call per module per cycle) and intended for tests and module-level
experiments.  Use :class:`repro.fpga.perfmodel.FPGAPerfModel` (validated
against this simulator) for graph-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.fpga.config import LightRWConfig
from repro.fpga.modules import (
    BurstCmdGenerator,
    DRAMChannelSim,
    IntraBurstMerge,
    NeighborInfoLoader,
    QueryController,
    WeightUpdater,
    WRSSamplerModule,
)
from repro.fpga.sim.clock import DEFAULT_WATCHDOG_CYCLES, Simulator
from repro.fpga.sim.fifo import FIFO
from repro.fpga.sim.trace import PipelineTracer
from repro.graph.csr import CSRGraph
from repro.walks.base import WalkAlgorithm


@dataclass
class InstanceStats:
    """Per-instance counters after a run.

    Every counter defaults to zero so an idle instance is
    ``InstanceStats()`` — construct by keyword, so adding a counter can
    never silently shift the meaning of positional zeros.
    """

    cycles: int = 0
    dram_busy_cycles: int = 0
    dram_bytes: int = 0
    dram_requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_valid: int = 0
    bytes_loaded: int = 0
    #: Busy cycles per pipeline module (module name -> cycles doing work).
    module_busy: dict[str, int] = field(default_factory=dict)
    #: Backpressure per FIFO (name -> cycles it ended full with no pop).
    fifo_stalls: dict[str, int] = field(default_factory=dict)

    def utilization(self) -> dict[str, float]:
        """Per-module busy fraction of the instance's run time."""
        if not self.cycles:
            return {}
        report = {"dram": self.dram_busy_cycles / self.cycles}
        for name, busy in self.module_busy.items():
            report[name] = busy / self.cycles
        return report

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def valid_ratio(self) -> float:
        return self.bytes_valid / self.bytes_loaded if self.bytes_loaded else 1.0


@dataclass
class CycleSimResult:
    """Outcome of a cycle-accurate run."""

    config: LightRWConfig
    cycles: int
    paths: dict[int, list[int]]
    instances: list[InstanceStats]
    query_latency_cycles: dict[int, int]
    #: Event trace (present when the run was started with ``trace=True``).
    tracer: PipelineTracer | None = None

    @property
    def kernel_s(self) -> float:
        return self.cycles / self.config.frequency_hz

    @property
    def total_steps(self) -> int:
        return sum(len(path) - 1 for path in self.paths.values())

    @property
    def steps_per_second(self) -> float:
        return self.total_steps / self.kernel_s if self.kernel_s > 0 else 0.0

    def path(self, qid: int) -> np.ndarray:
        return np.asarray(self.paths[qid], dtype=np.int64)

    def utilization_report(self) -> dict[str, float]:
        """Mean per-module busy fraction across the active instances."""
        active = [s for s in self.instances if s.cycles]
        if not active:
            return {}
        keys = active[0].utilization().keys()
        return {
            key: sum(s.utilization()[key] for s in active) / len(active)
            for key in keys
        }


class _Instance:
    """One LightRW instance: modules + FIFOs + its simulator."""

    def __init__(
        self,
        graph: CSRGraph,
        starts: np.ndarray,
        query_ids: np.ndarray,
        n_steps: int,
        algorithm: WalkAlgorithm,
        config: LightRWConfig,
        seed: int,
        label: str,
    ) -> None:
        depth = config.fifo_depth
        self.task_fifo = FIFO(f"{label}.tasks", depth)
        self.info_fifo = FIFO(f"{label}.info", depth)
        self.manifest_fifo = FIFO(f"{label}.manifests", depth)
        self.edge_fifo = FIFO(f"{label}.edges", depth)
        self.weighted_fifo = FIFO(f"{label}.weighted", depth)
        self.result_fifo = FIFO(f"{label}.results", depth)

        self.dram = DRAMChannelSim(config, name=f"{label}.dram")
        self.controller = QueryController(
            graph, starts, n_steps, config, self.task_fifo, self.result_fifo,
            query_ids=query_ids, name=f"{label}.controller",
        )
        self.info_loader = NeighborInfoLoader(
            graph, config, self.dram, self.task_fifo, self.info_fifo,
            second_order=algorithm.fetches_previous_neighbors,
            name=f"{label}.info-loader",
        )
        self.cmd_gen = BurstCmdGenerator(
            config, self.dram, self.info_fifo, self.manifest_fifo,
            name=f"{label}.burst-cmd-gen",
        )
        self.merge = IntraBurstMerge(
            self.dram, self.manifest_fifo, self.edge_fifo, name=f"{label}.merge"
        )
        self.updater = WeightUpdater(
            graph, algorithm, config, self.edge_fifo, self.weighted_fifo,
            name=f"{label}.weight-updater",
        )
        self.sampler = WRSSamplerModule(
            config, self.weighted_fifo, self.result_fifo, seed=seed,
            name=f"{label}.wrs-sampler",
        )
        modules = [
            self.controller,
            self.info_loader,
            self.cmd_gen,
            self.merge,
            self.updater,
            self.sampler,
            self.dram,
        ]
        fifos = [
            self.task_fifo,
            self.info_fifo,
            self.manifest_fifo,
            self.edge_fifo,
            self.weighted_fifo,
            self.result_fifo,
        ]
        self.sim = Simulator(modules, fifos)

    def attach_tracer(self, tracer: PipelineTracer) -> None:
        for module in self.sim.modules:
            module.tracer = tracer

    def run(self, max_cycles: int, watchdog_cycles: int | None) -> int:
        return self.sim.run_until(self.controller.done, max_cycles, watchdog_cycles)

    def stats(self) -> InstanceStats:
        return InstanceStats(
            cycles=self.sim.cycle,
            dram_busy_cycles=self.dram.interface_busy_cycles,
            dram_bytes=self.dram.bytes_served,
            dram_requests=self.dram.requests_served,
            cache_hits=self.info_loader.hits,
            cache_misses=self.info_loader.misses,
            bytes_valid=self.cmd_gen.bytes_valid,
            bytes_loaded=self.cmd_gen.bytes_loaded,
            module_busy={
                "controller": self.controller.busy_cycles,
                "info-loader": self.info_loader.busy_cycles,
                "burst-cmd-gen": self.cmd_gen.busy_cycles,
                "merge": self.merge.busy_cycles,
                "weight-updater": self.updater.busy_cycles,
                "wrs-sampler": self.sampler.busy_cycles,
            },
            fifo_stalls={
                fifo.name.split(".", 1)[-1]: fifo.stalled_cycles
                for fifo in self.sim.fifos
            },
        )


class LightRWAcceleratorSim:
    """Multi-instance cycle-accurate LightRW deployment."""

    def __init__(
        self, graph: CSRGraph, config: LightRWConfig, algorithm: WalkAlgorithm, seed: int = 0
    ) -> None:
        algorithm.validate_graph(graph)
        if algorithm.restart_probability:
            raise ConfigError("the cycle simulator does not model walks with restart")
        if not config.use_wrs:
            raise ConfigError(
                "the cycle simulator models the streaming WRS pipeline only; "
                "evaluate the table-based ablation (use_wrs=False) with "
                "FPGAPerfModel instead"
            )
        self.graph = graph
        self.config = config
        self.algorithm = algorithm
        self.seed = int(seed)

    def run(
        self,
        starts: np.ndarray,
        n_steps: int,
        max_cycles: int = 50_000_000,
        trace: bool = False,
        query_ids: np.ndarray | None = None,
        watchdog_cycles: int | None = DEFAULT_WATCHDOG_CYCLES,
    ) -> CycleSimResult:
        """Simulate the full deployment; queries are spread round-robin.

        Instances run independently (they own private DRAM channels), so
        they are simulated one after another and the kernel time is the
        maximum instance time — exactly the hardware's completion
        semantics.  With ``trace=True`` every instance records pipeline
        events into a shared :class:`PipelineTracer` (returned on the
        result).

        ``query_ids`` assigns global ids to the queries (default
        ``arange``); per-query sampler seeds derive from these, so a
        sharded batch replayed with its global ids walks identically to
        the unsharded run.  The result's ``paths``/``query_latency_cycles``
        are keyed by these ids.

        ``watchdog_cycles`` is the no-progress budget before a
        livelocked/deadlocked pipeline aborts with
        :class:`~repro.errors.SimulationStallError` (``None`` disables
        the watchdog, leaving only the ``max_cycles`` backstop).
        """
        starts = np.asarray(starts, dtype=np.int64)
        tracer = PipelineTracer() if trace else None
        if query_ids is None:
            query_ids = np.arange(starts.size, dtype=np.int64)
        else:
            query_ids = np.asarray(query_ids, dtype=np.int64)
            if query_ids.shape != starts.shape:
                raise ConfigError("query_ids must align with starts")
        paths: dict[int, list[int]] = {}
        latencies: dict[int, int] = {}
        stats: list[InstanceStats] = []
        total_cycles = 0
        for inst in range(self.config.n_instances):
            mask = query_ids % self.config.n_instances == inst
            if not np.any(mask):
                stats.append(InstanceStats())
                continue
            instance = _Instance(
                self.graph,
                starts[mask],
                query_ids[mask],
                n_steps,
                self.algorithm,
                self.config,
                seed=self.seed,
                label=f"inst{inst}",
            )
            if tracer is not None:
                instance.attach_tracer(tracer)
            cycles = instance.run(max_cycles, watchdog_cycles)
            total_cycles = max(total_cycles, cycles)
            paths.update(instance.controller.paths)
            for qid, finish in instance.controller.finish_cycle.items():
                latencies[qid] = finish - instance.controller.first_issue_cycle[qid]
            stats.append(instance.stats())
        return CycleSimResult(
            config=self.config,
            cycles=total_cycles,
            paths=paths,
            instances=stats,
            query_latency_cycles=latencies,
            tracer=tracer,
        )
