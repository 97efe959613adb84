"""Sharded batch scheduler: fault-isolated execution of a plan's shards.

Large query batches are split into shards by the planner.  A shard is the
unit of retry, checkpointing and failure reporting, but not of walking:
per-call overhead (Python, small numpy blocks, the GIL under threads)
would then grow with the shard count.  So the scheduler cuts the pending
shards into maximal runs of consecutive plan shards (a shard restored
from a checkpoint ends a run), splits each run into at most ``workers``
contiguous *groups* (one in sequential mode), and walks each group of two
or more shards with **one** ``backend.execute`` call on a
:class:`QueryShard` spanning them.  The walked session is then cut back
by query rows into one walk report per member shard
(:func:`~repro.runtime.backends.slice_session`), each checkpointed on its
own.  Walks depend only on the global query id, so a member's part is
exactly what walking it alone records.

Groups run sequentially by default or on a thread pool (the functional
stepper releases the GIL inside its numpy kernels, so groups genuinely
overlap).  The walked shards then merge in shard order and the backend's
**cost stage** runs once on the merged walk, so walks *and* modeled
numbers are identical across both modes, any shard layout, grouping,
retries and checkpoint resume.

A failed shard never aborts its siblings.  A group attempt that raises
(or outlives ``shard_timeout_s`` times its member count) is not retried
as a group: its members fall back to per-shard attempts, each with the
full :class:`RetryPolicy` budget (a retry starts at once), and the failed
group attempt is logged but not counted as a retry.  A shard the backend
says ``walks_alone`` (one with an injected fault) never joins a group.  A
shard that exhausts its attempts becomes a structured
:class:`ShardFailure` instead of an exception tearing down the pool.
What happens next is the ``strict`` flag's choice:

* ``strict=True`` (default) — any failure raises
  :class:`~repro.errors.ShardExecutionError` carrying every
  :class:`ShardFailure`;
* ``strict=False`` — surviving shards merge into a partial result (still
  in global query-id order) and the failures ride along on the
  :class:`BatchOutcome`.

Retries and failures are recorded through the metrics registry
(``run.retries``, ``run.shard_failures``).  A group attempt is a
``group`` span; every shard gets a ``shard`` span — per attempt when
walked alone, or (``attempt=1``) around its split and checkpoint write
right after its group's span — so degraded runs stay fully observable.  The
modeled-hardware series are recorded once per run, from the cost stage.
"""

from __future__ import annotations

import logging
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, field, replace
from typing import Callable, Container

import numpy as np

from repro.errors import ConfigError, ShardExecutionError, ShardTimeoutError
from repro.obs import (
    current_observer,
    record_breakdown,
    record_checkpoint,
    record_resumed_shard,
    record_retry,
    record_shard_failure,
)
from repro.runtime.backends import (
    Backend,
    BackendReport,
    slice_session,
    walked_report,
)
from repro.runtime.durability import RunCheckpoint
from repro.runtime.plan import ExecutionPlan, QueryShard
from repro.walks.stepper import WalkSession

logger = logging.getLogger(__name__)

#: Legal values of :attr:`BatchScheduler.mode`.
EXECUTION_MODES = ("sequential", "thread")

@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler treats a shard attempt that fails.

    A failed attempt is retried at once, up to ``max_attempts`` in all.
    The only failures are in-process ones (injected faults, timeouts), so
    waiting between attempts would buy nothing.
    """

    #: Total attempts per shard (1 = no retry).
    max_attempts: int = 1
    #: Wall-clock budget of one shard attempt (None = unlimited); at most
    #: ``threading.TIMEOUT_MAX``, the longest wait the watchdog can make.
    shard_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, numbers.Integral) or self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        # A chained comparison is False for NaN, so it rejects that too.
        if self.shard_timeout_s is not None and not (
            0 < self.shard_timeout_s <= threading.TIMEOUT_MAX
        ):
            raise ConfigError(
                f"shard_timeout_s must be positive and at most "
                f"{threading.TIMEOUT_MAX:.4g} s, got {self.shard_timeout_s}"
            )

    @property
    def retries(self) -> int:
        return self.max_attempts - 1


@dataclass(frozen=True)
class ShardFailure:
    """One shard that exhausted its attempt budget."""

    #: Shard index in the plan's layout.
    shard: int
    #: Global query id of the shard's first query.
    offset: int
    #: Number of (sampled) queries the shard would have walked.
    num_queries: int
    #: Exception class name of the final attempt.
    error_type: str
    #: Exception message of the final attempt.
    message: str
    #: Attempts consumed (== the policy's ``max_attempts``).
    attempts: int
    #: True when the final attempt hit the per-shard timeout.
    timed_out: bool = False

    def query_ids(self) -> np.ndarray:
        """Global ids of the queries this failure lost."""
        return self.offset + np.arange(self.num_queries, dtype=np.int64)

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "offset": self.offset,
            "num_queries": self.num_queries,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
        }


@dataclass(frozen=True)
class BatchOutcome:
    """What executing a plan produced: the merged report plus any failures."""

    #: Merged report over the surviving shards (all of them when ``ok``).
    report: BackendReport
    failures: tuple[ShardFailure, ...] = ()
    #: Total retry attempts consumed across every shard.
    retries: int = 0
    #: Shards restored from a checkpoint instead of re-executed.
    resumed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _call_with_timeout(call, timeout_s: float | None, what: str):
    """Run ``call`` on a watchdog thread, abandoning it past ``timeout_s``.

    With no timeout, ``call`` runs on the calling thread.  Otherwise it
    runs in a copy of the caller's context, so the observer and the open
    span carry over.  Backends cannot be interrupted cooperatively
    mid-kernel, so a timed-out attempt keeps running on its (daemon) thread
    while the scheduler moves on — the standard thread-pool trade-off.
    """
    if timeout_s is None:
        return call()
    box: dict[str, object] = {}
    done = threading.Event()

    def target() -> None:
        try:
            box["report"] = call()
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller
            box["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(
        target=copy_context().run, args=(target,), name=what.replace(" ", "-"), daemon=True
    )
    worker.start()
    if not done.wait(timeout_s):
        raise ShardTimeoutError(f"{what} exceeded the {timeout_s:.3g}s shard timeout")
    if "error" in box:
        raise box["error"]
    return box["report"]


def _pool_width() -> int:
    """Default pool width: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _walk_groups(
    shards: tuple[QueryShard, ...],
    restored: Container[int],
    walks_alone: Callable[[int], bool],
    width: int,
) -> list[list[QueryShard]]:
    """Cut the pending shards into the groups walked with one call each.

    Pending shards form maximal runs of consecutive plan shards: a
    restored shard ends a run, and a shard that ``walks_alone`` is a run
    by itself.  Each run is split into at most ``width`` contiguous
    groups of near-equal shard counts.  Groups come back in plan order.
    """
    runs: list[list[QueryShard]] = [[]]
    for shard in shards:
        if shard.index in restored:
            runs.append([])
        elif walks_alone(shard.index):
            runs += [[shard], []]
        else:
            runs[-1].append(shard)
    groups = []
    for run in runs:
        count = min(width, len(run))
        groups += [
            run[len(run) * i // count : len(run) * (i + 1) // count]
            for i in range(count)
        ]
    return groups


@dataclass
class BatchScheduler:
    """Execution policy for a planned batch.

    Parameters
    ----------
    max_workers:
        Pool width; defaults to the number of CPUs this process may run
        on (its affinity mask) and is always clamped to the shard count.
        In thread mode it also bounds how many groups a run of
        consecutive shards is cut into.  A width that is not an integer
        >= 1 is a :class:`~repro.errors.ConfigError` at construction,
        not a mid-run pool crash.
    retry:
        Per-shard attempt budget and timeout (default: one attempt, no
        timeout).
    strict:
        ``True`` raises :class:`~repro.errors.ShardExecutionError` on any
        shard failure; ``False`` merges the survivors into a partial
        result and reports the failures on the :class:`BatchOutcome`.
    mode:
        Execution mode — ``"sequential"`` (default) or ``"thread"``, which
        runs groups of shards on a thread pool.  Walks and modeled numbers
        are identical in both modes.
    """

    max_workers: int | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    strict: bool = True
    mode: str = "sequential"

    def __post_init__(self) -> None:
        if self.max_workers is not None and (
            not isinstance(self.max_workers, numbers.Integral) or self.max_workers < 1
        ):
            raise ConfigError(
                f"max_workers must be an integer >= 1, got {self.max_workers!r}"
            )
        if self.mode not in EXECUTION_MODES:
            raise ConfigError(
                f"mode must be one of {EXECUTION_MODES}, got {self.mode!r}"
            )

    def execute(
        self,
        backend: Backend,
        plan: ExecutionPlan,
        checkpoint: RunCheckpoint | None = None,
    ) -> BatchOutcome:
        """Walk every shard of ``plan`` on ``backend``; merge and cost the survivors.

        With a ``checkpoint``, shards already persisted in it are restored
        instead of re-executed, and every shard that completes here is
        persisted the moment its group (or its own attempt) finishes — so
        a killed process resumes at the first unfinished group and,
        because per-query RNG lanes are keyed by global query id, merges
        to a byte-identical result.
        """
        shards = plan.shards
        if not shards:
            raise ValueError("plan has no shards to execute")
        obs = current_observer()
        policy = self.retry

        restored: dict[int, BackendReport] = {}
        if checkpoint is not None:
            valid = {shard.index for shard in shards}
            restored = {
                index: report
                for index, report in checkpoint.load_completed().items()
                if index in valid
            }
            if restored:
                logger.info(
                    "resume: restoring %d of %d shard(s) from %s",
                    len(restored), len(shards), checkpoint.directory,
                )
                if obs.enabled:
                    for index in sorted(restored):
                        record_resumed_shard(
                            obs.metrics, backend=backend.name, shard=index
                        )

        def attempt_shard(shard: QueryShard, attempt: int) -> BackendReport:
            def call() -> BackendReport:
                with obs.span(
                    "shard", backend=backend.name, shard=shard.index,
                    queries=shard.num_queries, attempt=attempt,
                ):
                    return backend.execute(plan, shard)

            return _call_with_timeout(
                call, policy.shard_timeout_s, f"shard {shard.index} attempt {attempt}"
            )

        def save(shard: QueryShard, report: BackendReport) -> None:
            if checkpoint is None:
                return
            try:
                checkpoint.record_shard(shard.index, report)
                if obs.enabled:
                    record_checkpoint(
                        obs.metrics, backend=backend.name, shard=shard.index
                    )
            except (OSError, TypeError, ValueError) as exc:
                # A checkpoint that cannot be written costs resumability,
                # never the run itself.
                logger.warning(
                    "failed to checkpoint shard %d: %s: %s",
                    shard.index, type(exc).__name__, exc,
                )

        def run_shard(shard: QueryShard) -> tuple[BackendReport | ShardFailure, int]:
            last: Exception | None = None
            for attempt in range(1, policy.max_attempts + 1):
                if attempt > 1:
                    if obs.enabled:
                        record_retry(
                            obs.metrics, backend=backend.name, shard=shard.index
                        )
                try:
                    report = attempt_shard(shard, attempt)
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    last = exc
                    logger.warning(
                        "shard %d attempt %d/%d on %s failed: %s: %s",
                        shard.index, attempt, policy.max_attempts,
                        backend.name, type(exc).__name__, exc,
                    )
                else:
                    save(shard, report)
                    return report, attempt
            failure = ShardFailure(
                shard=shard.index,
                offset=shard.offset,
                num_queries=shard.num_queries,
                error_type=type(last).__name__,
                message=str(last),
                attempts=policy.max_attempts,
                timed_out=isinstance(last, ShardTimeoutError),
            )
            return failure, policy.max_attempts

        def walk_group(members: list[QueryShard]) -> list[BackendReport]:
            # One walk over the members' concatenated rows, cut back into
            # one report (and checkpoint) per member.  Walks depend only
            # on global query ids, so each part is what the member walks
            # alone.
            first = members[0]
            group = QueryShard(
                index=first.index,
                offset=first.offset,
                starts=np.concatenate([shard.starts for shard in members]),
                total_queries=sum(shard.total_queries for shard in members),
            )

            def call() -> WalkSession:
                with obs.span(
                    "group", backend=backend.name, first=first.index,
                    shards=len(members), queries=group.num_queries,
                ):
                    return backend.execute(plan, group).session

            budget = policy.shard_timeout_s
            if budget is not None:
                budget = min(budget * len(members), threading.TIMEOUT_MAX)
            session = _call_with_timeout(
                call, budget, f"group of shards {first.index}-{members[-1].index}"
            )
            reports = []
            for shard in members:
                with obs.span(
                    "shard", backend=backend.name, shard=shard.index,
                    queries=shard.num_queries, attempt=1,
                ):
                    lo = shard.offset - first.offset
                    report = walked_report(
                        backend.name,
                        slice_session(session, lo, lo + shard.num_queries),
                    )
                    save(shard, report)
                reports.append(report)
            return reports

        def run_group(
            members: list[QueryShard],
        ) -> list[tuple[BackendReport | ShardFailure, int]]:
            if len(members) > 1:
                try:
                    return [(report, 1) for report in walk_group(members)]
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    # Not a retry: each member starts its own full budget.
                    logger.warning(
                        "group of shards %d-%d on %s failed, walking them one "
                        "by one: %s: %s",
                        members[0].index, members[-1].index, backend.name,
                        type(exc).__name__, exc,
                    )
            return [run_shard(shard) for shard in members]

        pending = [shard for shard in shards if shard.index not in restored]
        workers = 1
        if self.mode == "thread" and len(pending) > 1:
            workers = min(self.max_workers or _pool_width(), len(pending))
        groups = _walk_groups(shards, restored, backend.walks_alone, workers)
        logger.debug(
            "executing %d shard(s) on %s as %d group(s) on %d worker(s)",
            len(pending), backend.name, len(groups), workers,
        )
        if workers > 1:
            # Each group runs in its own copy of this context, so its spans
            # descend from the span open here.
            contexts = [copy_context() for _ in groups]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                grouped = list(pool.map(lambda c, g: c.run(run_group, g), contexts, groups))
        else:
            grouped = [run_group(members) for members in groups]
        # Groups list the pending shards in plan order, so stitching them
        # between the restored ones keeps the merge in global query-id order.
        executed = iter([outcome for outcomes in grouped for outcome in outcomes])
        outcomes = [
            (restored[shard.index], 0) if shard.index in restored else next(executed)
            for shard in shards
        ]

        reports = [r for r, _ in outcomes if isinstance(r, BackendReport)]
        failures = tuple(r for r, _ in outcomes if isinstance(r, ShardFailure))
        retries = sum(max(0, attempts - 1) for _, attempts in outcomes)
        if failures:
            if obs.enabled:
                for failure in failures:
                    record_shard_failure(
                        obs.metrics, failure, backend=backend.name
                    )
            detail = "; ".join(
                f"shard {f.shard} ({f.error_type} after {f.attempts} attempt(s)): "
                f"{f.message}"
                for f in failures
            )
            if self.strict:
                raise ShardExecutionError(
                    f"{len(failures)} of {len(shards)} shard(s) failed: {detail}",
                    failures=failures,
                )
            if not reports:
                raise ShardExecutionError(
                    f"every shard failed, no partial result to return: {detail}",
                    failures=failures,
                )
            logger.warning(
                "degraded run: %d of %d shard(s) failed, merging %d survivor(s)",
                len(failures), len(shards), len(reports),
            )
            # Cost the survivors only, extrapolated to their share.
            plan = replace(
                plan,
                shards=tuple(
                    shard
                    for shard, (r, _) in zip(shards, outcomes)
                    if isinstance(r, BackendReport)
                ),
            )
        with obs.span("merge", backend=backend.name, shards=len(reports)):
            merged = backend.merge(plan, reports)
        if obs.enabled:
            record_breakdown(obs.metrics, merged.breakdown, backend=backend.name)
        return BatchOutcome(
            report=merged,
            failures=failures,
            retries=retries,
            resumed=len(restored),
        )
