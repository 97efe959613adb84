"""The LightRW facade — run GDRW query batches on a chosen backend.

>>> from repro.graph import load_dataset
>>> from repro.walks import Node2VecWalk
>>> from repro.core import LightRW, make_queries
>>> graph = load_dataset("youtube", scale_divisor=512)
>>> engine = LightRW(graph, hardware_scale=512)
>>> result = engine.run(Node2VecWalk(p=2, q=0.5), n_steps=20)
>>> result.paths.shape[0] == result.num_queries
True

Backends
--------
Backends live in the :mod:`repro.runtime` registry; the built-ins are

``"fpga-model"``
    The analytic performance model over functionally exact walks —
    default; handles graph-scale batches with query-sampled extrapolation.
``"fpga-cycle"``
    The cycle-accurate simulator — ground truth, small batches only.
``"cpu-baseline"``
    The modeled ThunderRW engine, for comparisons.

The two FPGA backends produce identical walks for identical seeds, and
every backend produces identical walks and modeled numbers regardless of
how the batch is sharded.  Register additional backends with
:func:`repro.runtime.register_backend`.

This module is a thin facade: it builds a
:class:`~repro.runtime.RuntimeContext`, asks the query planner for an
:class:`~repro.runtime.ExecutionPlan`, hands it to the batch scheduler,
and repackages the merged :class:`~repro.runtime.BackendReport` as a
:class:`RunResult`.
"""

from __future__ import annotations

import logging
import numbers
import resource
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.queries import make_queries
from repro.core.results import BoxStats, latency_box_stats
from repro.cpu.costmodel import CPUSpec
from repro.errors import ConfigError
from repro.fpga.config import LightRWConfig
from repro.fpga.pcie import PCIeModel
from repro.graph.csr import CSRGraph
from repro.obs import (
    Observer,
    RunManifest,
    build_manifest,
    config_fingerprint,
    current_observer,
    record_host,
    record_run,
    use_observer,
)
from repro.runtime import (
    BatchOutcome,
    BatchScheduler,
    ExecutionPlan,
    FaultInjectionBackend,
    InjectedFault,
    RetryPolicy,
    RunCheckpoint,
    RuntimeContext,
    ShardFailure,
    TimingBreakdown,
    create_backend,
    plan_run,
    resolve_backend,
)
from repro.walks.base import WalkAlgorithm
from repro.walks.stepper import WalkSession, check_batch

logger = logging.getLogger(__name__)


@dataclass
class RunResult:
    """Walks plus modeled timing for one query batch."""

    backend: str
    algorithm: str
    num_queries: int
    total_steps: int
    #: Walked paths of the functionally executed (possibly sampled) queries,
    #: -1 padded, one row per executed query.
    paths: np.ndarray
    lengths: np.ndarray
    kernel_s: float
    pcie_s: float
    breakdown: TimingBreakdown
    session: WalkSession | None = None
    query_latency_s: np.ndarray | None = None
    #: One-off setup cost outside the kernel: engine initialization for the
    #: CPU baseline (zero for the FPGA backends, whose setup is the PCIe
    #: transfer already counted in ``pcie_s``).
    setup_s: float = 0.0
    #: Provenance of this run (seed, backend, plan, config hash, version,
    #: host) — attached to every result, observed or not.
    manifest: RunManifest | None = None
    #: Shards that exhausted their retry budget.  Empty on a healthy run;
    #: non-empty only for ``strict=False`` runs, whose ``paths`` then
    #: cover the surviving shards only (still in global query-id order).
    failures: tuple[ShardFailure, ...] = ()
    #: Whether this run was executed in strict (raise-on-failure) mode.
    strict: bool = True
    #: Shards restored from a run checkpoint instead of re-executed
    #: (non-zero only for checkpointed runs that resumed prior work).
    resumed_shards: int = 0

    @property
    def ok(self) -> bool:
        """True when every shard executed (no recorded failures)."""
        return not self.failures

    @property
    def executed_queries(self) -> int:
        """Functionally walked queries present in ``paths`` (rows)."""
        return int(self.paths.shape[0])

    def failed_query_ids(self) -> np.ndarray:
        """Global ids of the sampled queries lost to shard failures."""
        if not self.failures:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([f.query_ids() for f in self.failures])

    @property
    def tracer(self):
        """The cycle simulator's pipeline tracer, when the run recorded one.

        Present only for ``fpga-cycle`` runs started with ``trace=True``;
        ``None`` otherwise.
        """
        return getattr(self.breakdown.detail, "tracer", None)

    @property
    def end_to_end_s(self) -> float:
        return self.kernel_s + self.pcie_s + self.setup_s

    @property
    def steps_per_second(self) -> float:
        """Kernel-time step throughput (the paper's figure-of-merit)."""
        return self.total_steps / self.kernel_s if self.kernel_s > 0 else 0.0

    @property
    def pcie_fraction(self) -> float:
        total = self.end_to_end_s
        return self.pcie_s / total if total > 0 else 0.0

    def latency_stats(self) -> BoxStats:
        if self.query_latency_s is None:
            raise ValueError("this run did not record per-query latencies")
        return latency_box_stats(self.query_latency_s)


class LightRW:
    """User-facing engine running GDRWs on the modeled accelerator.

    Parameters
    ----------
    graph:
        The CSR graph (use :mod:`repro.graph` to build or load one).
    config:
        Accelerator configuration; defaults to the paper's deployment
        (k=16, b1+b32 bursts, 2^12-entry degree-aware cache, 4 instances).
    backend:
        A registered backend name (``"fpga-model"``, ``"fpga-cycle"``,
        ``"cpu-baseline"``, or anything added via
        :func:`repro.runtime.register_backend`).
    hardware_scale:
        Dataset scale divisor for the scaled-platform rule; applied to the
        config's cache (and the CPU spec's caches for the baseline).
    seed:
        Sampling seed; identical seeds reproduce identical walks across the
        FPGA backends (and across shard layouts).
    observer:
        A :class:`repro.obs.Observer` collecting metrics and spans for
        every run of this engine.  ``None`` (default) collects nothing
        unless a caller installed one with
        :func:`repro.obs.use_observer` or passes one to :meth:`run`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: LightRWConfig | None = None,
        backend: str = "fpga-model",
        hardware_scale: int = 1,
        seed: int = 0,
        cpu_spec: CPUSpec | None = None,
        pcie: PCIeModel | None = None,
        observer: Observer | None = None,
    ) -> None:
        resolve_backend(backend)  # fail fast with the registered names
        if not isinstance(hardware_scale, numbers.Integral) or hardware_scale < 1:
            raise ConfigError(
                f"hardware_scale must be an integer >= 1, got {hardware_scale!r}"
            )
        self.graph = graph
        self.backend = backend
        self.seed = int(seed)
        self.observer = observer
        base_config = config or LightRWConfig()
        if hardware_scale > 1 and base_config.hardware_scale == 1:
            base_config = base_config.scaled(hardware_scale)
        self.config = base_config
        base_spec = cpu_spec or CPUSpec()
        if hardware_scale > 1 and base_spec.hardware_scale == 1:
            base_spec = base_spec.scaled(hardware_scale)
        self.cpu_spec = base_spec
        # The DMA setup latency is a fixed software cost; under the
        # scaled-platform rule it shrinks with the dataset so the PCIe
        # share of end-to-end time is preserved.
        self.pcie = pcie or PCIeModel(
            graph_copies=self.config.n_instances,
            setup_latency_s=30e-6 / max(self.config.hardware_scale, 1),
        )

    def runtime_context(self) -> RuntimeContext:
        """The immutable per-engine state the runtime backends execute with."""
        return RuntimeContext(
            graph=self.graph,
            config=self.config,
            cpu_spec=self.cpu_spec,
            seed=self.seed,
        )

    def run(
        self,
        algorithm: WalkAlgorithm,
        n_steps: int,
        starts: np.ndarray | None = None,
        max_sampled_queries: int = 4096,
        record_latency: bool = True,
        shards: int = 1,
        mode: str = "sequential",
        workers: int | None = None,
        observer: Observer | None = None,
        trace: bool = False,
        strict: bool = True,
        retry: RetryPolicy | None = None,
        faults: Sequence[InjectedFault] | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
    ) -> RunResult:
        """Walk a query batch and model its execution.

        Parameters
        ----------
        algorithm:
            The GDRW weight-update function (MetaPathWalk, Node2VecWalk, ...).
            A :class:`~repro.walks.RestartWalk` runs a random walk with
            restart (personalized PageRank) through the same walk loop;
            only backends declaring ``supports_restart`` (the
            ``fpga-model`` built-in) accept it.
        n_steps:
            Steps per query (5 for MetaPath, 80 for Node2Vec in the paper).
        starts:
            Start vertices; defaults to the paper's one-query-per-walkable-
            vertex batch.
        max_sampled_queries:
            Functional-walk budget; larger batches are walked on a uniform
            sample and the timing extrapolated (exact for the throughput
            experiments, see DESIGN.md).  The cycle backend ignores this
            and always walks everything it is given.
        shards:
            Split the batch's walk into this many scheduler shards.  The
            merged walk is costed once, so walks *and* modeled numbers
            are identical for any shard count (per-query RNG is keyed by
            global query id).  A shard is the unit of retry and
            checkpointing; consecutive shards are walked together.
        mode:
            Execution mode: ``"sequential"`` or ``"thread"`` (a thread
            pool).  Results are identical in both modes.
        workers:
            Worker-pool width of thread mode (defaults to the CPUs this
            process may run on, clamped to the shard count).  Each run of
            consecutive shards is walked as at most this many groups, one
            walk call each.
        observer:
            Telemetry sink for this run (overrides the engine-level
            observer).
        trace:
            Record pipeline events on the ``fpga-cycle`` backend; read
            them from ``result.tracer`` or export with
            :func:`repro.obs.write_chrome_trace`.
        strict:
            ``True`` (default) raises
            :class:`~repro.errors.ShardExecutionError` when any shard
            exhausts its retries; ``False`` returns the surviving shards
            as a partial result with the failures on
            :attr:`RunResult.failures`.
        retry:
            Per-shard :class:`~repro.runtime.RetryPolicy`: attempt
            budget and a per-attempt timeout; a retry starts at once.
            Default: one attempt, no timeout.
        faults:
            Deterministic :class:`~repro.runtime.InjectedFault` specs for
            testing the failure paths (see :mod:`repro.runtime.faults`).
        checkpoint_dir:
            Persist each completed shard's report (atomic write, content
            checksum) to this directory so a killed run can resume.
            Without ``resume``, shard files already there are discarded.
        resume:
            Restore completed shards from ``checkpoint_dir`` and execute
            only the missing ones; the resumed result is byte-identical
            to an uninterrupted one.  Requires an
            existing, configuration-compatible checkpoint
            (:class:`~repro.errors.ConfigError` otherwise).

        A malformed batch (a start that is not a vertex, a step count that
        is not a non-negative integer, a graph the algorithm cannot walk)
        raises before any shard runs, so it is never retried or dropped.
        """
        if resume and checkpoint_dir is None:
            raise ConfigError(
                "resume=True requires a checkpoint_dir pointing at the "
                "interrupted run's checkpoint directory"
            )
        obs = observer or self.observer or current_observer()
        with use_observer(obs), obs.span(
            "run", backend=self.backend, algorithm=algorithm.name
        ):
            usage = resource.getrusage(resource.RUSAGE_SELF) if obs.enabled else None
            if starts is None:
                starts = make_queries(self.graph, seed=self.seed)
            starts = check_batch(self.graph, starts, n_steps, algorithm)
            plan = plan_run(
                self.backend,
                algorithm,
                n_steps,
                starts,
                max_sampled_queries=max_sampled_queries,
                record_latency=record_latency,
                shards=shards,
                seed=self.seed,
                trace=trace,
            )
            checkpoint = None
            if checkpoint_dir is not None:
                checkpoint = RunCheckpoint.open(
                    checkpoint_dir,
                    plan,
                    seed=self.seed,
                    config_hash=config_fingerprint(self.config),
                    resume=resume,
                )
            backend = create_backend(self.backend, self.runtime_context())
            if faults:
                backend = FaultInjectionBackend(backend, faults)
            scheduler = BatchScheduler(
                mode=mode,
                max_workers=workers,
                retry=retry or RetryPolicy(),
                strict=strict,
            )
            outcome = scheduler.execute(backend, plan, checkpoint=checkpoint)
            result = self._package(plan, outcome, strict=strict)
            if usage is not None:
                after = resource.getrusage(resource.RUSAGE_SELF)
                record_host(obs.metrics, usage, after, backend=self.backend)
            return result

    # -- runtime plumbing ----------------------------------------------------

    def _package(
        self, plan: ExecutionPlan, outcome: BatchOutcome, *, strict: bool = True
    ) -> RunResult:
        report = outcome.report
        pcie_s = 0.0
        if resolve_backend(self.backend).capabilities.uses_pcie:
            pcie_s = self.pcie.round_trip_s(
                self.graph, plan.total_queries, report.total_steps
            )
        result = RunResult(
            backend=self.backend,
            algorithm=plan.algorithm.name,
            num_queries=plan.total_queries,
            total_steps=report.total_steps,
            paths=report.paths,
            lengths=report.lengths,
            kernel_s=report.kernel_s,
            pcie_s=pcie_s,
            setup_s=report.setup_s,
            breakdown=report.breakdown,
            session=report.session,
            query_latency_s=report.query_latency_s,
            manifest=build_manifest(
                plan,
                seed=self.seed,
                config=self.config,
                graph_name=getattr(self.graph, "name", "") or "",
                failures=outcome.failures,
            ),
            failures=outcome.failures,
            strict=strict,
            resumed_shards=outcome.resumed,
        )
        obs = current_observer()
        if obs.enabled:
            record_run(obs.metrics, result)
        logger.debug(
            "%s run complete: %d queries, %d steps, kernel %.3g s",
            self.backend, result.num_queries, result.total_steps, result.kernel_s,
        )
        return result
