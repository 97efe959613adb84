"""The pluggable runtime layer: registry, planner, scheduler.

Every caller — the :class:`repro.core.api.LightRW` facade, the CLI and
the bench runner — executes query batches through this package:

1. the **backend registry** (:mod:`repro.runtime.backends`) maps backend
   names to :class:`Backend` classes; new engines plug in with the
   :func:`register_backend` decorator;
2. the **query planner** (:mod:`repro.runtime.plan`) validates a request
   against the backend's declared capabilities and lays out the sharded
   :class:`ExecutionPlan`;
3. the **batch scheduler** (:mod:`repro.runtime.scheduler`) runs each
   backend's walk stage over the shards (sequentially or via a worker
   pool), merges the walked shards and runs the backend's cost stage
   once, producing one :class:`BackendReport` with the unified
   :class:`TimingBreakdown`.  Shards are fault-isolated: a
   failed shard becomes a structured :class:`ShardFailure` under the
   scheduler's :class:`RetryPolicy` (attempts and a per-shard
   timeout), and the ``strict`` flag chooses between
   raise-on-any-failure and a partial :class:`BatchOutcome` merged over
   the survivors;
4. the **fault-injection wrapper** (:mod:`repro.runtime.faults`) makes
   every failure path deterministically testable by failing or delaying
   chosen shards for chosen attempts.

Identical seeds produce identical walks across backends and shard
layouts, because per-query randomness is keyed by global query id —
which is also why a retried shard reproduces byte-identical walks.
"""

from repro.runtime.backends import (
    Backend,
    BackendCapabilities,
    BackendReport,
    CPUBaselineBackend,
    FPGACycleBackend,
    FPGAModelBackend,
    RuntimeContext,
    backend_names,
    comparison_backends,
    create_backend,
    describe_backends,
    register_backend,
    resolve_backend,
)
from repro.runtime.durability import (
    RunCheckpoint,
    plan_fingerprint,
)
from repro.runtime.faults import (
    FaultInjectionBackend,
    InjectedFault,
    InjectedFaultError,
)
from repro.runtime.plan import ExecutionPlan, QueryShard, plan_run
from repro.runtime.scheduler import (
    EXECUTION_MODES,
    BatchOutcome,
    BatchScheduler,
    RetryPolicy,
    ShardFailure,
)
from repro.runtime.timing import (
    CPUBaselineBreakdown,
    FPGACycleBreakdown,
    FPGAModelBreakdown,
    TimingBreakdown,
)

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendReport",
    "BatchOutcome",
    "BatchScheduler",
    "CPUBaselineBackend",
    "CPUBaselineBreakdown",
    "EXECUTION_MODES",
    "ExecutionPlan",
    "FPGACycleBackend",
    "FPGACycleBreakdown",
    "FPGAModelBackend",
    "FPGAModelBreakdown",
    "FaultInjectionBackend",
    "InjectedFault",
    "InjectedFaultError",
    "QueryShard",
    "RetryPolicy",
    "RunCheckpoint",
    "RuntimeContext",
    "ShardFailure",
    "TimingBreakdown",
    "backend_names",
    "comparison_backends",
    "create_backend",
    "describe_backends",
    "plan_fingerprint",
    "plan_run",
    "register_backend",
    "resolve_backend",
]
