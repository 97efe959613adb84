"""Labeled metrics registry: counters, gauges and histograms.

Every backend family produces the paper's architectural quantities — DAC
hit ratios (Figure 11), DYB valid-data ratios (Figures 6/12), per-module
pipeline occupancy (Figure 13), DRAM traffic, ThunderRW's top-down
profile (Table 1) — but historically kept them in backend-native objects
with no common schema.  A :class:`MetricsRegistry` is the shared sink:
series are identified by a metric name plus a label set
(``dac.hits{backend=fpga-model,shard=2}``), and the adapters in
:mod:`repro.obs.adapters` translate the native stats objects into it
under the stable names documented in ``docs/observability.md``.

Collection is opt-in.  Every write site checks ``observer.enabled``
first, so with no observer installed nothing is written and the check
is the whole cost.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "series_key",
    "DEFAULT_LATENCY_BUCKETS_S",
]

#: Histogram buckets (upper bounds, seconds) sized for modeled per-query
#: walk latencies: sub-microsecond cache hits up to multi-second batches.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0
)


def series_key(name: str, labels: Mapping[str, object] | None = None) -> str:
    """Canonical series id: ``name`` or ``name{k=v,...}`` with sorted keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Instrument:
    """Common identity of one labeled series."""

    kind = "instrument"
    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: Mapping[str, object]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()

    @property
    def key(self) -> str:
        return series_key(self.name, self.labels)


class Counter(_Instrument):
    """Monotonically increasing count (events, bytes, cycles)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: Mapping[str, object]) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """Last-written value (ratios, fractions, throughput)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: Mapping[str, object]) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram(_Instrument):
    """Bucketed distribution with total sum and count.

    ``buckets`` are inclusive upper bounds; an implicit ``+inf`` bucket
    catches the tail, so ``counts`` has ``len(buckets) + 1`` entries.
    """

    kind = "histogram"
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, object],
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> None:
        super().__init__(name, labels)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram buckets must be sorted, got {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(float(value))


class MetricsRegistry:
    """Get-or-create store of labeled instruments.

    Instruments are created on first use and are stable objects — hot
    paths can hold a reference instead of re-resolving the label set.
    The registry is safe to populate from the batch scheduler's worker
    threads.
    """

    def __init__(self) -> None:
        self._series: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # -- instrument accessors ------------------------------------------------

    def _get(self, cls: type, name: str, labels: Mapping[str, object], **kwargs):
        key = series_key(name, labels)
        with self._lock:
            found = self._series.get(key)
            if found is None:
                found = cls(name, labels, **kwargs)
                self._series[key] = found
            elif not isinstance(found, cls):
                raise ValueError(
                    f"series {key!r} is a {found.kind}, not a {cls.kind}"
                )
            return found

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
        **labels: object,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- read side -----------------------------------------------------------

    def series(self) -> list[_Instrument]:
        with self._lock:
            return list(self._series.values())

    def get(self, name: str, **labels: object) -> float | None:
        """Value of one counter/gauge series, or None if absent."""
        found = self._series.get(series_key(name, labels))
        if found is None or isinstance(found, Histogram):
            return None
        return found.value

    def total(self, name: str) -> float:
        """Sum of every counter series sharing ``name`` across label sets."""
        return sum(
            s.value
            for s in self.series()
            if s.name == name and isinstance(s, Counter)
        )

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> dict:
        """JSON-ready view: ``{series_key: value-or-histogram-dict}``."""
        out: dict[str, object] = {}
        for instrument in self.series():
            if isinstance(instrument, Histogram):
                out[instrument.key] = {
                    "kind": "histogram",
                    "buckets": list(instrument.buckets),
                    "counts": list(instrument.counts),
                    "sum": instrument.sum,
                    "count": instrument.count,
                }
            else:
                out[instrument.key] = instrument.value
        return out
