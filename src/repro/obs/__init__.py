"""Backend-agnostic observability: metrics, spans, manifests, exporters.

The runtime spine (planner -> batch scheduler -> backends) is
instrumented with this package:

* :class:`MetricsRegistry` — labeled counters, gauges and histograms
  (``run.retries{backend=fpga-model,shard=2}``); the adapters translate each
  backend's native stats objects into the stable schema documented in
  ``docs/observability.md``.
* :func:`span` / :class:`Observer` — wall-clock span tracing with
  parent/child nesting around planning, per-shard execution and backend
  kernel phases.
* :mod:`repro.obs.export` — JSONL run records, Prometheus text and a
  Chrome trace-event (``chrome://tracing`` / Perfetto) converter that
  also serializes the cycle simulator's pipeline events.
* :class:`RunManifest` — provenance (seed, backend, plan, config hash,
  version, host) attached to every :class:`~repro.core.api.RunResult`.

Collection is opt-in and the disabled path is a no-op::

    from repro import LightRW, Node2VecWalk
    from repro.obs import Observer

    obs = Observer()
    result = engine.run(Node2VecWalk(p=2, q=0.5), 80, observer=obs)
    obs.metrics.get("dac.hit_ratio", backend="fpga-model")
"""

from repro.obs.adapters import (
    record_breakdown,
    record_checkpoint,
    record_host,
    record_resumed_shard,
    record_retry,
    record_run,
    record_shard_failure,
    record_watchdog_abort,
)
from repro.obs.export import (
    append_jsonl,
    chrome_trace,
    prometheus_from_snapshot,
    read_jsonl,
    run_record,
    summarize_records,
    write_chrome_trace,
)
from repro.obs.logsetup import LOG_LEVELS, configure_logging
from repro.obs.manifest import RunManifest, build_manifest, config_fingerprint
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    series_key,
)
from repro.obs.spans import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    SpanRecord,
    SpanRecorder,
    current_observer,
    span,
    use_observer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NullObserver",
    "Observer",
    "RunManifest",
    "SpanRecord",
    "SpanRecorder",
    "append_jsonl",
    "build_manifest",
    "chrome_trace",
    "config_fingerprint",
    "configure_logging",
    "current_observer",
    "prometheus_from_snapshot",
    "read_jsonl",
    "record_breakdown",
    "record_checkpoint",
    "record_host",
    "record_resumed_shard",
    "record_retry",
    "record_run",
    "record_shard_failure",
    "record_watchdog_abort",
    "run_record",
    "series_key",
    "span",
    "summarize_records",
    "use_observer",
    "write_chrome_trace",
]
