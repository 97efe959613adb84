"""Deterministic fault injection for exercising the scheduler's policies.

The fault-tolerance paths of :class:`~repro.runtime.BatchScheduler` —
retry-then-succeed, permanent failure, timeout expiry, degraded partial
merges — are unreachable with healthy backends.  This module makes every
one of them testable without ambient randomness:
:class:`FaultInjectionBackend` wraps any registered backend and raises
(or delays) on configured shards for a configured number of attempts, so
a "transient" fault is simply ``fail_attempts=1`` and a "permanent" one
``fail_attempts=-1``.

Because per-query randomness is keyed by global query id, a shard that
fails and is retried reproduces *byte-identical* walks on the attempt
that succeeds — the invariant ``tests/test_faults.py`` pins down.

Injected faults are observable: each one increments
``run.injected_faults{backend=...,shard=...}`` and records an
``injected-fault`` span, alongside the scheduler's own ``run.retries``
and ``run.shard_failures`` series.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigError
from repro.obs import current_observer
from repro.runtime.backends import Backend, BackendCapabilities, BackendReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.plan import ExecutionPlan, QueryShard

__all__ = ["FaultInjectionBackend", "InjectedFault", "InjectedFaultError"]


class InjectedFaultError(RuntimeError):
    """The exception a configured fault raises.

    Deliberately *not* a :class:`~repro.errors.ReproError`: an injected
    fault stands in for an unexpected backend crash, so it must exercise
    the scheduler's generic isolation path, not the library-error one.
    """


@dataclass(frozen=True)
class InjectedFault:
    """Failure schedule of one shard.

    ``fail_attempts`` is the number of execution attempts that raise
    before the shard is allowed to succeed: ``1`` models a transient
    fault absorbed by a single retry, ``-1`` a permanent fault that
    never recovers, and ``0`` a healthy shard that only pays ``delay_s``
    (the knob that drives timeout tests).
    """

    shard: int
    fail_attempts: int = 1
    delay_s: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if not isinstance(self.shard, numbers.Integral) or self.shard < 0:
            raise ConfigError(f"fault shard must be an integer >= 0, got {self.shard!r}")
        if not isinstance(self.fail_attempts, numbers.Integral) or self.fail_attempts < -1:
            raise ConfigError(
                "fail_attempts must be an integer >= -1 (-1 = always), "
                f"got {self.fail_attempts!r}"
            )
        if not (
            isinstance(self.delay_s, numbers.Real)
            and math.isfinite(self.delay_s)
            and self.delay_s >= 0
        ):
            raise ConfigError(f"delay_s must be finite and >= 0, got {self.delay_s!r}")

    @property
    def permanent(self) -> bool:
        return self.fail_attempts < 0

    def fails_attempt(self, attempt: int) -> bool:
        return self.permanent or attempt <= self.fail_attempts


class FaultInjectionBackend(Backend):
    """Wrap a backend, failing configured shards for configured attempts.

    Attempt numbers are counted per shard inside the wrapper (the
    scheduler retries a shard by calling ``execute`` again), so the
    injection schedule is deterministic whether shards run sequentially
    or on pool threads.
    """

    def __init__(self, inner: Backend, faults: Sequence[InjectedFault]) -> None:
        self.inner = inner
        self.context = inner.context
        self._faults = {}
        for fault in faults:
            if fault.shard in self._faults:
                raise ConfigError(
                    f"duplicate injected fault for shard {fault.shard}"
                )
            self._faults[fault.shard] = fault
        self._attempts: dict[int, int] = {}
        self._lock = threading.Lock()

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def capabilities(self) -> BackendCapabilities:  # type: ignore[override]
        return self.inner.capabilities

    def attempts(self, shard: int) -> int:
        """Execution attempts observed so far for ``shard``."""
        with self._lock:
            return self._attempts.get(shard, 0)

    def walks_alone(self, shard_index: int) -> bool:
        """A shard with a scheduled fault is never walked in a group.

        Grouping would hide its attempts inside a sibling's call, so every
        faulted shard — delay-only ones included — keeps the per-shard
        attempt schedule documented above.
        """
        return shard_index in self._faults

    def execute(self, plan: "ExecutionPlan", shard: "QueryShard") -> BackendReport:
        fault = self._faults.get(shard.index)
        if fault is None:
            return self.inner.execute(plan, shard)
        with self._lock:
            attempt = self._attempts.get(shard.index, 0) + 1
            self._attempts[shard.index] = attempt
        if fault.delay_s > 0:
            time.sleep(fault.delay_s)
        if fault.fails_attempt(attempt):
            obs = current_observer()
            if obs.enabled:
                obs.metrics.counter(
                    "run.injected_faults", backend=self.name, shard=shard.index
                ).inc()
            with obs.span("injected-fault", shard=shard.index, attempt=attempt):
                pass
            raise InjectedFaultError(
                f"{fault.message} (shard {shard.index}, attempt {attempt})"
            )
        return self.inner.execute(plan, shard)

    def merge(
        self, plan: "ExecutionPlan", reports: Sequence[BackendReport]
    ) -> BackendReport:
        return self.inner.merge(plan, reports)
