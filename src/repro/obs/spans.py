"""Span tracing for the runtime spine.

A *span* is one named phase of a run — planning, a scheduler shard, a
backend's kernel — with a wall-clock duration, arbitrary attributes and
parent/child nesting::

    with span("plan", backend="fpga-model"):
        ...
    with span("shard", shard=2):
        with span("kernel"):
            ...

Spans nest per :mod:`contextvars` context: a span's parent is the span
open in the context that opens it.  A new thread starts with an empty
context, so its spans form their own chain, unless its work runs in a
copy of the submitting context (``contextvars.copy_context().run``), as
the batch scheduler does for its pool workers and watchdog threads; their
``group`` and ``shard`` spans then descend from the run that submitted
them.  Every span records its thread name so the Chrome-trace exporter can
lay shards out on separate tracks.

The module-level :func:`span` helper records into the *current observer*
(:func:`current_observer`), a context-variable the facade sets for the
duration of a run via :func:`use_observer`.  With no observer installed
it returns a shared ``nullcontext`` — tracing off is a dictionary lookup
and nothing else.
"""

from __future__ import annotations

import contextlib
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "SpanRecord",
    "SpanRecorder",
    "current_observer",
    "span",
    "use_observer",
]


@dataclass
class SpanRecord:
    """One finished span."""

    span_id: int
    name: str
    #: Seconds since the recorder's epoch (monotonic clock).
    start_s: float
    duration_s: float
    parent_id: int | None
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "attrs": self.attrs,
        }


class SpanRecorder:
    """Collects finished :class:`SpanRecord`\\ s with per-context nesting."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._finished: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._next_id = 0
        #: id of the innermost open span of this recorder, per context
        self._open: ContextVar[int | None] = ContextVar("repro_open_span", default=None)

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord]:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = SpanRecord(
            span_id=span_id,
            name=name,
            start_s=time.perf_counter() - self._epoch,
            duration_s=0.0,
            parent_id=self._open.get(),
            thread=threading.current_thread().name,
            attrs=dict(attrs),
        )
        token = self._open.set(span_id)
        try:
            yield record
        finally:
            self._open.reset(token)
            record.duration_s = (time.perf_counter() - self._epoch) - record.start_s
            with self._lock:
                self._finished.append(record)

    def finished(self) -> list[SpanRecord]:
        """Finished spans in completion order (children before parents)."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> list[SpanRecord]:
        return [s for s in self.finished() if s.name == name]

    def children(self, parent: SpanRecord) -> list[SpanRecord]:
        return [s for s in self.finished() if s.parent_id == parent.span_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


class Observer:
    """One run's telemetry sinks: a metrics registry plus a span recorder.

    Pass an ``Observer`` to :class:`repro.core.api.LightRW` (or install one
    with :func:`use_observer`) to collect; the default
    :data:`NULL_OBSERVER` collects nothing at effectively zero cost.
    """

    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder()

    def span(self, name: str, **attrs: Any):
        return self.spans.span(name, **attrs)


_NULL_CONTEXT = contextlib.nullcontext()


class NullObserver(Observer):
    """Disabled observer: ``enabled`` is False and spans are a shared no-op.

    Every metrics write site checks ``enabled`` first, so its registry
    stays empty.
    """

    enabled = False

    def span(self, name: str, **attrs: Any):
        return _NULL_CONTEXT


#: The default observer: collects nothing.
NULL_OBSERVER = NullObserver()

_CURRENT: ContextVar[Observer] = ContextVar("repro_observer", default=NULL_OBSERVER)


def current_observer() -> Observer:
    """The observer in effect for this thread/context."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_observer(observer: Observer | None) -> Iterator[Observer]:
    """Install ``observer`` as current for the duration of the block.

    ``None`` keeps whatever is already installed (so callers can thread an
    optional observer without branching).
    """
    if observer is None:
        yield _CURRENT.get()
        return
    token = _CURRENT.set(observer)
    try:
        yield observer
    finally:
        _CURRENT.reset(token)


def span(name: str, **attrs: Any):
    """Open a span on the current observer (no-op when observability is off)."""
    return _CURRENT.get().span(name, **attrs)
