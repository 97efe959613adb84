"""The query planner: turn a run request into a validated execution plan.

:func:`plan_run` is the single place where a (graph, algorithm, query
batch, backend) combination is checked against the chosen backend's
declared capabilities and turned into an :class:`ExecutionPlan` — the
sampled functional batch plus the shard layout the scheduler executes.
Limit violations (unknown backend, cycle-simulator batch caps, restart on
a backend without restart support, bad shard counts, several shards on a
backend that is not ``shardable``) surface here as
actionable :class:`~repro.errors.ConfigError`\\ s instead of deep failures
inside a cost model.

Sharding preserves the repo's core invariant — identical seeds produce
identical walks — because every shard carries the **global** query ids of
its slice: per-query RNG lanes are derived from ``(seed, global id)``, so
a query's walk does not depend on which shard executed it.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.core.queries import sample_queries
from repro.errors import ConfigError
from repro.obs import span
from repro.runtime.backends import resolve_backend
from repro.walks.base import WalkAlgorithm
from repro.walks.ppr import RestartWalk

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QueryShard:
    """One contiguous slice of the functional query batch.

    ``offset`` is the global query id of the slice's first query;
    ``total_queries`` is this shard's share of the extrapolation target
    (shares always sum exactly to the plan's ``total_queries``).
    """

    index: int
    offset: int
    starts: np.ndarray
    total_queries: int

    @property
    def num_queries(self) -> int:
        return int(self.starts.size)

    def query_ids(self) -> np.ndarray:
        """Global ids of this shard's queries (seed-derivation keys)."""
        return self.offset + np.arange(self.starts.size, dtype=np.int64)


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything a backend needs to execute one query batch."""

    backend: str
    algorithm: WalkAlgorithm
    n_steps: int
    #: The functional batch (after query sampling), in global-id order.
    starts: np.ndarray
    #: Extrapolation target: the size of the original batch.
    total_queries: int
    shards: tuple[QueryShard, ...] = field(default=())
    record_latency: bool = True
    #: Record pipeline events on backends that support it (``fpga-cycle``);
    #: the Chrome-trace exporter serializes them alongside runtime spans.
    trace: bool = False

    @property
    def num_sampled(self) -> int:
        return int(self.starts.size)

    @property
    def shard_count(self) -> int:
        return len(self.shards)


def _partition(starts: np.ndarray, total_queries: int, shards: int) -> tuple[QueryShard, ...]:
    """Contiguous shards with exact integer shares of the extrapolation total."""
    if starts.size == 0:
        return (QueryShard(index=0, offset=0, starts=starts, total_queries=total_queries),)
    chunks = np.array_split(starts, shards)
    out: list[QueryShard] = []
    offset = 0
    for index, chunk in enumerate(chunks):
        if chunk.size == 0:
            continue
        begin = (total_queries * offset) // starts.size
        end = (total_queries * (offset + chunk.size)) // starts.size
        out.append(
            QueryShard(
                index=index, offset=offset, starts=chunk, total_queries=end - begin
            )
        )
        offset += chunk.size
    return tuple(out)


def plan_run(
    backend: str,
    algorithm: WalkAlgorithm,
    n_steps: int,
    starts: np.ndarray,
    *,
    max_sampled_queries: int = 4096,
    record_latency: bool = True,
    shards: int = 1,
    seed: int = 0,
    trace: bool = False,
) -> ExecutionPlan:
    """Validate a run request and lay out its execution.

    Raises :class:`ConfigError` early — before any walk or simulation
    starts — when the request exceeds what the backend declares it can do.
    """
    with span("plan", backend=backend, algorithm=algorithm.name):
        backend_cls = resolve_backend(backend)
        caps = backend_cls.capabilities
        starts = np.asarray(starts, dtype=np.int64)

        if not isinstance(shards, numbers.Integral) or shards < 1:
            raise ConfigError(f"shards must be an integer >= 1, got {shards!r}")
        if shards > 1 and not caps.shardable:
            raise ConfigError(
                f"backend {backend!r} walks and costs a batch in one pass and "
                f"runs a single shard; got shards={shards}"
            )
        if isinstance(algorithm, RestartWalk) and not caps.supports_restart:
            raise ConfigError(
                f"backend {backend!r} does not run walks with restart; "
                f"use the 'fpga-model' backend"
            )

        if caps.supports_query_sampling:
            sampled, total = sample_queries(starts, max_sampled_queries, seed=seed)
        else:
            sampled, total = starts, int(starts.size)

        if caps.max_batch_queries is not None and sampled.size > caps.max_batch_queries:
            raise ConfigError(
                f"backend {backend!r} walks every query it is given and is "
                f"capped at {caps.max_batch_queries} queries per batch; got "
                f"{sampled.size}. Subsample the batch (max_sampled_queries) or "
                f"use the 'fpga-model' backend, which extrapolates from a sample."
            )

        shard_count = min(shards, max(sampled.size, 1))
        plan = ExecutionPlan(
            backend=backend,
            algorithm=algorithm,
            n_steps=n_steps,
            starts=sampled,
            total_queries=total,
            shards=_partition(sampled, total, shard_count),
            record_latency=record_latency,
            trace=trace,
        )
        logger.debug(
            "planned %s run: %d queries (%d sampled) x %d steps in %d shard(s)",
            backend, total, plan.num_sampled, n_steps, plan.shard_count,
        )
        return plan
