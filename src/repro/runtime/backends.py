"""Backend registry and the built-in execution backends.

A *backend* is one way of executing (and costing) a planned query batch:
the analytic FPGA model, the cycle-accurate simulator, or the modeled
ThunderRW CPU baseline.  Each is a class with

* a ``name`` (the string users pass to :class:`repro.core.api.LightRW`),
* declared :class:`BackendCapabilities` the query planner validates
  against, and
* two stages: ``execute(plan, shard) -> BackendReport``, the **walk
  stage** the batch scheduler calls once per group of consecutive shards
  (falling back to per-shard, retried attempts), and
  ``cost(plan, session, total_queries)``, the **cost stage**
  :meth:`Backend.merge` runs exactly once, on the merged walk.

Costing once is what keeps modeled numbers (kernel time, DAC hit ratio,
``total_steps``, latencies) independent of how the batch was sharded: the
merged session holds exactly the trace records an unsharded run records.

New backends register with the :func:`register_backend` decorator and are
immediately visible to the facade, the CLI (``--backend``) and the bench
runner — no ``if/elif`` chain to extend::

    from repro.runtime import Backend, BackendCapabilities, register_backend

    @register_backend
    class MyBackend(Backend):
        name = "my-backend"
        capabilities = BackendCapabilities(description="...", system_label="Mine")

        def execute(self, plan, shard):
            ...  # walk the shard; return walked_report(self.name, session)

        def cost(self, plan, session, total_queries):
            ...

All built-in backends share the same per-query RNG derivation keyed by
*global* query id, so identical seeds produce identical walks regardless
of backend or shard layout — the repo's core invariant.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cpu.costmodel import CPUSpec
from repro.errors import ConfigError
from repro.fpga.config import LightRWConfig
from repro.obs import span
from repro.graph.csr import CSRGraph
from repro.runtime.timing import (
    CPUBaselineBreakdown,
    FPGACycleBreakdown,
    FPGAModelBreakdown,
    TimingBreakdown,
)
from repro.walks.stepper import StepRecord, WalkSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.plan import ExecutionPlan, QueryShard


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do; the query planner enforces these limits."""

    #: One-line human description (shown by the CLI and the bench runner).
    description: str = ""
    #: System name used when benchmarks compare engines ("LightRW", ...).
    system_label: str = ""
    #: May the planner run a uniform query subsample and extrapolate?
    supports_query_sampling: bool = True
    #: Does the backend execute random walks with restart (PPR)?
    supports_restart: bool = False
    #: May the planner split the batch into several shards?  False for a
    #: backend that walks and costs in one indivisible pass.
    shardable: bool = True
    #: Does this backend pay the host<->device PCIe transfer?
    uses_pcie: bool = True
    #: Appear in engine-comparison benchmarks (fig14/15/16/17 style)?
    compare_in_benchmarks: bool = False
    #: Hard cap on the functional batch size (None = unlimited).
    max_batch_queries: int | None = None


@dataclass(frozen=True)
class RuntimeContext:
    """Immutable per-engine state shared by every backend instance."""

    graph: CSRGraph
    config: LightRWConfig
    cpu_spec: CPUSpec
    seed: int = 0


@dataclass
class BackendReport:
    """One backend execution: a walked shard, or a costed batch.

    A walk-stage shard report carries ``paths``, ``lengths`` and the
    ``session``; the timing fields stay empty until the cost stage fills
    them in on the merged report.
    """

    backend: str
    paths: np.ndarray
    lengths: np.ndarray
    total_steps: int = 0
    kernel_s: float = 0.0
    breakdown: TimingBreakdown | None = None
    setup_s: float = 0.0
    query_latency_s: np.ndarray | None = None
    session: WalkSession | None = None


class Backend(abc.ABC):
    """Protocol every execution backend implements."""

    #: Registry key; also the ``backend=`` string of the public API.
    name: str = ""
    capabilities: BackendCapabilities = BackendCapabilities()

    def __init__(self, context: RuntimeContext) -> None:
        self.context = context

    @abc.abstractmethod
    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        """Walk stage: walk one shard; the report carries its session.

        The scheduler may also hand in a *group*: one ``QueryShard``
        spanning several consecutive plan shards, whose session it then
        cuts back into per-shard reports with :func:`slice_session`.
        """

    def walks_alone(self, shard_index: int) -> bool:
        """Must plan shard ``shard_index`` be walked by itself, never in a group?"""
        return False

    def cost(
        self, plan: "ExecutionPlan", session: WalkSession, total_queries: int
    ) -> BackendReport:
        """Cost stage: model ``session``, extrapolated to ``total_queries``."""
        raise NotImplementedError(f"backend {self.name!r} has no cost stage")

    def merge(
        self, plan: "ExecutionPlan", reports: Sequence[BackendReport]
    ) -> BackendReport:
        """Cost the shards' merged walk once.

        ``reports`` are the walk-stage reports of ``plan.shards``, in shard
        order (the scheduler narrows ``plan.shards`` to the survivors of a
        degraded run), so the merged session is in global query-id order
        and extrapolates to the shards' summed ``total_queries``.
        """
        session = merge_sessions([r.session for r in reports], self.context.graph)
        return self.cost(plan, session, sum(s.total_queries for s in plan.shards))


def walked_report(backend: str, session: WalkSession) -> BackendReport:
    """The walk-stage report of one shard."""
    return BackendReport(
        backend=backend, paths=session.paths, lengths=session.lengths, session=session
    )


#: Per-row fields of a :class:`StepRecord` besides ``query_ids``.
_TRACED = ("curr", "degrees", "prev", "prev_degrees", "next_vertex")


def merge_sessions(sessions: Sequence[WalkSession], graph: CSRGraph) -> WalkSession:
    """Stitch shard sessions into the session an unsharded walk records.

    Shards are contiguous slices in global query-id order, so joining each
    step's records in shard order, with rows rebased to the merged session,
    rebuilds exactly the records (and their order, which the cache models
    replay) of a one-shard run.  ``graph`` is attached to the result:
    sessions restored from a checkpoint arrive without one.
    """
    if len(sessions) == 1:
        return replace(sessions[0], graph=graph)
    offsets = np.cumsum([0] + [s.num_queries for s in sessions[:-1]])
    by_step: dict[int, list[tuple[int, StepRecord]]] = {}
    for offset, session in zip(offsets, sessions):
        for record in session.records:
            by_step.setdefault(record.step, []).append((offset, record))
    records = [
        StepRecord(
            step=step,
            query_ids=np.concatenate([r.query_ids + o for o, r in parts]),
            **{name: np.concatenate([getattr(r, name) for _, r in parts]) for name in _TRACED},
        )
        for step, parts in sorted(by_step.items())
    ]
    return WalkSession(
        graph=graph,
        algorithm=sessions[0].algorithm,
        sampler=sessions[0].sampler,
        starts=np.concatenate([s.starts for s in sessions]),
        paths=np.concatenate([s.paths for s in sessions]),
        lengths=np.concatenate([s.lengths for s in sessions]),
        records=records,
    )


def slice_session(session: WalkSession, lo: int, hi: int) -> WalkSession:
    """Query rows ``[lo, hi)`` of ``session``: what walking them alone records.

    The inverse of :func:`merge_sessions` for one contiguous row range.
    Every step record is cut with ``searchsorted`` on its sorted
    ``query_ids`` and rebased by ``-lo``; a step where none of the rows is
    active is dropped, because a walk of those rows alone stops before it.
    The result shares memory with ``session``.
    """
    records = []
    for record in session.records:
        a, b = np.searchsorted(record.query_ids, (lo, hi))
        if a < b:
            records.append(
                StepRecord(
                    step=record.step,
                    query_ids=record.query_ids[a:b] - lo,
                    **{name: getattr(record, name)[a:b] for name in _TRACED},
                )
            )
    return replace(
        session,
        starts=session.starts[lo:hi],
        paths=session.paths[lo:hi],
        lengths=session.lengths[lo:hi],
        records=records,
    )


def strip_report(report: BackendReport) -> BackendReport:
    """A shard report ready to be pickled into a checkpoint.

    Checkpoints store shard reports without the session's graph (large,
    and the engine's own) or a cycle run's pipeline tracer;
    :meth:`Backend.merge` re-attaches the context graph.
    """
    if report.session is not None:
        report = replace(report, session=replace(report.session, graph=None))
    detail = getattr(report.breakdown, "detail", None)
    if getattr(detail, "tracer", None) is not None:
        report = replace(
            report, breakdown=replace(report.breakdown, detail=replace(detail, tracer=None))
        )
    return report


# -- registry ----------------------------------------------------------------

_REGISTRY: dict[str, type[Backend]] = {}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Class decorator adding a backend to the global registry."""
    if not cls.name:
        raise ConfigError(f"backend class {cls.__name__} must set a name")
    if cls.name in _REGISTRY:
        raise ConfigError(f"backend {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def resolve_backend(name: str) -> type[Backend]:
    """Look up a backend class; unknown names get an actionable error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"backend must be one of {backend_names()}, got {name!r}"
        ) from None


def create_backend(name: str, context: RuntimeContext) -> Backend:
    return resolve_backend(name)(context)


def describe_backends() -> list[tuple[str, str]]:
    """(name, one-line description) rows for help text and ``--list``."""
    return [(name, cls.capabilities.description) for name, cls in _REGISTRY.items()]


def comparison_backends() -> list[tuple[str, str]]:
    """(backend, system label) pairs for engine-comparison experiments."""
    return [
        (name, cls.capabilities.system_label or name)
        for name, cls in _REGISTRY.items()
        if cls.capabilities.compare_in_benchmarks
    ]


# -- built-in backends -------------------------------------------------------


@register_backend
class FPGAModelBackend(Backend):
    """Analytic performance model over functionally exact walks."""

    name = "fpga-model"
    capabilities = BackendCapabilities(
        description=(
            "analytic FPGA performance model over exact walks; "
            "graph-scale batches with query-sampled extrapolation (default)"
        ),
        system_label="LightRW",
        supports_query_sampling=True,
        supports_restart=True,
        uses_pcie=True,
        compare_in_benchmarks=True,
    )

    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        from repro.walks.stepper import PWRSSampler, run_walks

        ctx = self.context
        with span("walk", backend=self.name):
            session = run_walks(
                ctx.graph,
                shard.starts,
                plan.n_steps,
                plan.algorithm,
                PWRSSampler(k=ctx.config.k, seed=ctx.seed),
                query_ids=shard.query_ids(),
            )
        return walked_report(self.name, session)

    def cost(
        self, plan: "ExecutionPlan", session: WalkSession, total_queries: int
    ) -> BackendReport:
        from repro.fpga.perfmodel import FPGAPerfModel

        with span("perf-model", backend=self.name):
            model = FPGAPerfModel(self.context.config, plan.algorithm)
            native = model.evaluate(
                session,
                total_queries=total_queries,
                record_latency=plan.record_latency,
            )
        return BackendReport(
            backend=self.name,
            paths=session.paths,
            lengths=session.lengths,
            total_steps=native.total_steps,
            kernel_s=native.kernel_s,
            breakdown=FPGAModelBreakdown(
                backend=self.name,
                kernel_s=native.kernel_s,
                total_steps=native.total_steps,
                num_queries=native.num_queries,
                detail=native,
            ),
            query_latency_s=(
                native.query_latency_seconds() if plan.record_latency else None
            ),
            session=session,
        )


@register_backend
class FPGACycleBackend(Backend):
    """Cycle-accurate simulator of the full accelerator pipeline."""

    name = "fpga-cycle"
    capabilities = BackendCapabilities(
        description=(
            "cycle-accurate pipeline simulator; ground truth, walks every "
            "query it is given (small batches only)"
        ),
        system_label="LightRW (cycle)",
        supports_query_sampling=False,
        supports_restart=False,
        # One simulation both walks and costs the batch, so it cannot be
        # split into a sharded walk stage and a single cost stage.
        shardable=False,
        uses_pcie=True,
        max_batch_queries=4096,
    )

    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        from repro.fpga.accelerator import LightRWAcceleratorSim

        ctx = self.context
        with span("cycle-sim", backend=self.name):
            sim = LightRWAcceleratorSim(
                ctx.graph, ctx.config, plan.algorithm, seed=ctx.seed
            )
            result = sim.run(
                shard.starts,
                plan.n_steps,
                trace=plan.trace,
                query_ids=shard.query_ids(),
            )
        n_queries = shard.num_queries
        max_len = max((len(p) for p in result.paths.values()), default=1)
        paths = np.full((n_queries, max_len), -1, dtype=np.int64)
        lengths = np.zeros(n_queries, dtype=np.int64)
        for qid, path in result.paths.items():
            row = qid - shard.offset
            paths[row, : len(path)] = path
            lengths[row] = len(path) - 1
        latencies = np.array(
            [
                result.query_latency_cycles.get(shard.offset + row, 0)
                for row in range(n_queries)
            ],
            dtype=np.float64,
        ) / ctx.config.frequency_hz
        return BackendReport(
            backend=self.name,
            paths=paths,
            lengths=lengths,
            total_steps=result.total_steps,
            kernel_s=result.kernel_s,
            breakdown=FPGACycleBreakdown(
                backend=self.name,
                kernel_s=result.kernel_s,
                total_steps=result.total_steps,
                num_queries=n_queries,
                detail=result,
            ),
            query_latency_s=latencies,
        )

    def merge(
        self, plan: "ExecutionPlan", reports: Sequence[BackendReport]
    ) -> BackendReport:
        # The planner gives this backend one shard, already costed.
        (report,) = reports
        return report


@register_backend
class CPUBaselineBackend(Backend):
    """Modeled ThunderRW staged-execution engine (the paper's baseline)."""

    name = "cpu-baseline"
    capabilities = BackendCapabilities(
        description=(
            "modeled ThunderRW CPU engine (staged execution, "
            "inverse-transform sampling); for comparisons"
        ),
        system_label="ThunderRW",
        supports_query_sampling=True,
        supports_restart=False,
        uses_pcie=False,
        compare_in_benchmarks=True,
    )

    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        from repro.walks.stepper import InverseTransformSampler, run_walks

        ctx = self.context
        # ThunderRW's configured sampling method; its per-query lanes are
        # keyed by global id too, so CPU walks are shard-invariant.
        with span("walk", backend=self.name):
            session = run_walks(
                ctx.graph,
                shard.starts,
                plan.n_steps,
                plan.algorithm,
                InverseTransformSampler(seed=ctx.seed),
                query_ids=shard.query_ids(),
            )
        return walked_report(self.name, session)

    def cost(
        self, plan: "ExecutionPlan", session: WalkSession, total_queries: int
    ) -> BackendReport:
        from repro.cpu.costmodel import cpu_time_for_session

        ctx = self.context
        with span("cpu-engine", backend=self.name):
            timing = cpu_time_for_session(
                session, plan.algorithm, ctx.cpu_spec, total_queries=total_queries
            )
        return BackendReport(
            backend=self.name,
            paths=session.paths,
            lengths=session.lengths,
            total_steps=timing.total_steps,
            kernel_s=timing.exec_s,
            setup_s=timing.init_time_s,
            breakdown=CPUBaselineBreakdown(
                backend=self.name,
                kernel_s=timing.exec_s,
                total_steps=timing.total_steps,
                num_queries=timing.num_queries,
                setup_s=timing.init_time_s,
                detail=timing,
            ),
            query_latency_s=(
                timing.query_latency_s * ctx.cpu_spec.interleave_width
                if timing.query_latency_s is not None
                else None
            ),
            session=session,
        )
