"""Event tracing for the cycle simulator.

A :class:`PipelineTracer` collects timestamped events from the pipeline
modules — task issues, cache hits and misses, DRAM request grants, sampler
selections, query retirements — into a bounded ring buffer.  It is the
waveform-viewer substitute: enough to reconstruct what the pipeline did
around any cycle without storing gigabytes.

Enable it via ``LightRWAcceleratorSim.run(..., trace=True)`` and read the
result's ``tracer``:

>>> result = sim.run(starts, 5, trace=True)          # doctest: +SKIP
>>> result.tracer.filter(event="cache-miss")[:3]     # doctest: +SKIP
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class TraceEvent:
    """One pipeline event."""

    cycle: int
    module: str
    event: str
    info: dict = field(default_factory=dict)


class PipelineTracer:
    """Bounded ring buffer of :class:`TraceEvent`.

    ``max_events`` bounds memory; the oldest events fall off first, so the
    buffer always holds the *latest* window of activity (what you want when
    diagnosing the end of a run or a deadlock).
    """

    def __init__(self, max_events: int = 100_000) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.max_events = max_events
        self._events: deque[TraceEvent] = deque(maxlen=max_events)
        self.total_recorded = 0

    def record(self, cycle: int, module: str, event: str, **info: Any) -> None:
        self._events.append(TraceEvent(cycle=cycle, module=module, event=event, info=info))
        self.total_recorded += 1

    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def filter(
        self,
        module: str | None = None,
        event: str | None = None,
        qid: int | None = None,
    ) -> list[TraceEvent]:
        """Events matching all given criteria."""
        out = []
        for entry in self._events:
            if module is not None and entry.module != module:
                continue
            if event is not None and entry.event != event:
                continue
            if qid is not None and entry.info.get("qid") != qid:
                continue
            out.append(entry)
        return out

    def counts(self) -> dict[str, int]:
        """Event-name histogram over the retained window."""
        histogram: dict[str, int] = {}
        for entry in self._events:
            histogram[entry.event] = histogram.get(entry.event, 0) + 1
        return histogram

    def __len__(self) -> int:
        return len(self._events)
