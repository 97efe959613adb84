"""Adapters: backend-native stats objects -> the shared metrics registry.

Each backend family already measures the paper's architectural
quantities in its own native breakdown object (the analytic model's
``FPGATimeBreakdown``, the cycle simulator's ``CycleSimResult`` /
``InstanceStats``, the CPU baseline's ``CPUTimeBreakdown``).  These
functions translate them into the registry under the **stable metric
names** documented in ``docs/observability.md``, so one schema covers
every backend:

================================  =============================================
series                            source (paper reference)
================================  =============================================
``dac.accesses/hits/misses``      degree-aware cache (Figure 11)
``dyb.bytes_valid/bytes_loaded``  dynamic burst engine (Figures 6/12)
``dram.bytes_read/requests``      DRAM channel traffic (Figure 6)
``pipeline.busy_cycles``          per-module activity (Figure 13)
``time.component_seconds``        :meth:`TimingBreakdown.components`
``cpu.llc_miss_ratio`` etc.       top-down profile (Table 1)
``run.*`` / ``query.*``           end-to-end figures (Figures 14/15)
================================  =============================================

Dispatch is duck-typed on the native object's attributes, so this module
depends on no backend package and custom backends participate by
exposing the same attribute names (or by writing to the registry
directly).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.api import RunResult
    from repro.runtime.scheduler import ShardFailure
    from repro.runtime.timing import TimingBreakdown

__all__ = [
    "record_breakdown",
    "record_checkpoint",
    "record_host",
    "record_resumed_shard",
    "record_retry",
    "record_run",
    "record_shard_failure",
    "record_watchdog_abort",
]


def _family(native: Any) -> str:
    """Classify a backend-native stats object by its attribute surface."""
    if native is None:
        return "unknown"
    if hasattr(native, "instances"):
        return "fpga-cycle"
    if hasattr(native, "cache_accesses") and hasattr(native, "mem_cycles"):
        return "fpga-model"
    if hasattr(native, "llc_miss_ratio") and hasattr(native, "seq_time_s"):
        return "cpu"
    return "unknown"


# -- modeled-hardware counters ----------------------------------------------


def record_breakdown(
    metrics: MetricsRegistry,
    breakdown: "TimingBreakdown",
    *,
    backend: str,
) -> None:
    """Record one run's modeled counters, labeled ``{backend=...}``.

    Called once per run on the cost stage's breakdown, so the series do
    not depend on how the batch was sharded.
    """
    for component, seconds in breakdown.components().items():
        metrics.counter(
            "time.component_seconds", backend=backend, component=component
        ).inc(seconds)
    native = breakdown.detail
    family = _family(native)
    if family == "fpga-model":
        _record_model(metrics, native, backend)
    elif family == "fpga-cycle":
        _record_cycle(metrics, native, backend)
    elif family == "cpu":
        _record_cpu(metrics, native, backend)


def _record_model(metrics: MetricsRegistry, native: Any, backend: str) -> None:
    labels = {"backend": backend}
    metrics.counter("dac.accesses", **labels).inc(native.cache_accesses)
    metrics.counter("dac.hits", **labels).inc(native.cache_hits)
    metrics.counter("dac.misses", **labels).inc(
        native.cache_accesses - native.cache_hits
    )
    metrics.counter("dyb.bytes_valid", **labels).inc(native.bytes_valid)
    metrics.counter("dyb.bytes_loaded", **labels).inc(native.bytes_loaded)
    metrics.counter("dram.bytes_read", **labels).inc(native.bytes_loaded)


def _record_cycle(metrics: MetricsRegistry, native: Any, backend: str) -> None:
    for index, stats in enumerate(native.instances):
        labels = {"backend": backend, "instance": index}
        metrics.counter("dac.accesses", **labels).inc(
            stats.cache_hits + stats.cache_misses
        )
        metrics.counter("dac.hits", **labels).inc(stats.cache_hits)
        metrics.counter("dac.misses", **labels).inc(stats.cache_misses)
        metrics.counter("dyb.bytes_valid", **labels).inc(stats.bytes_valid)
        metrics.counter("dyb.bytes_loaded", **labels).inc(stats.bytes_loaded)
        metrics.counter("dram.bytes_read", **labels).inc(stats.dram_bytes)
        metrics.counter("dram.requests", **labels).inc(stats.dram_requests)
        metrics.counter("dram.busy_cycles", **labels).inc(stats.dram_busy_cycles)
        for module, busy in stats.module_busy.items():
            metrics.counter(
                "pipeline.busy_cycles", module=module, **labels
            ).inc(busy)
        for fifo, stalled in getattr(stats, "fifo_stalls", {}).items():
            metrics.counter(
                "pipeline.fifo_stall_cycles", fifo=fifo, **labels
            ).inc(stalled)


def _record_cpu(metrics: MetricsRegistry, native: Any, backend: str) -> None:
    labels = {"backend": backend}
    metrics.counter("cpu.memory_seconds", **labels).inc(native.memory_time_s)
    metrics.counter("cpu.instr_seconds", **labels).inc(native.instr_time_s)


# -- fault-tolerance events ---------------------------------------------------


def record_retry(metrics: MetricsRegistry, *, backend: str, shard: int) -> None:
    """Count one shard retry attempt (``run.retries``)."""
    metrics.counter("run.retries", backend=backend, shard=shard).inc()


def record_shard_failure(
    metrics: MetricsRegistry, failure: "ShardFailure", *, backend: str
) -> None:
    """Count one shard that exhausted its attempts (``run.shard_failures``)."""
    metrics.counter(
        "run.shard_failures", backend=backend, shard=failure.shard,
        error=failure.error_type,
    ).inc()
    metrics.counter(
        "run.failed_queries", backend=backend, shard=failure.shard
    ).inc(failure.num_queries)


# -- durability events --------------------------------------------------------


def record_checkpoint(
    metrics: MetricsRegistry, *, backend: str, shard: int
) -> None:
    """Count one shard report persisted to disk (``run.checkpoints``)."""
    metrics.counter("run.checkpoints", backend=backend, shard=shard).inc()


def record_resumed_shard(
    metrics: MetricsRegistry, *, backend: str, shard: int
) -> None:
    """Count one shard restored from a checkpoint (``run.resumed_shards``)."""
    metrics.counter("run.resumed_shards", backend=backend, shard=shard).inc()


def record_watchdog_abort(metrics: MetricsRegistry, *, cycle: int) -> None:
    """Count one simulator watchdog trip (``sim.watchdog_aborts``)."""
    metrics.counter("sim.watchdog_aborts").inc()
    metrics.gauge("sim.watchdog_abort_cycle").set(cycle)


# -- batch-level gauges and distributions -------------------------------------


def record_host(metrics: MetricsRegistry, before: Any, after: Any, *, backend: str) -> None:
    """Record the host resources of one run from ``resource.getrusage``
    readings (``RUSAGE_SELF``) taken when it started and when it ended.

    ``host.cpu_s`` (user + system) and ``host.minflt`` (minor page faults)
    are what the run added; ``host.maxrss_mb`` is the process's peak
    resident set so far (Linux reports ``ru_maxrss`` in KiB).
    """
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    metrics.gauge("host.cpu_s", backend=backend).set(cpu_s)
    metrics.gauge("host.minflt", backend=backend).set(after.ru_minflt - before.ru_minflt)
    metrics.gauge("host.maxrss_mb", backend=backend).set(after.ru_maxrss / 1024)


def record_run(metrics: MetricsRegistry, result: "RunResult") -> None:
    """Record the merged run's ratio/throughput gauges and latency histogram.

    The modeled event *counts* are recorded by :func:`record_breakdown`;
    this records the derived ratios, throughput and latencies, labeled
    ``{backend=...}``.
    """
    backend = result.backend
    metrics.gauge("run.kernel_seconds", backend=backend).set(result.kernel_s)
    metrics.gauge("run.setup_seconds", backend=backend).set(result.setup_s)
    metrics.gauge("run.pcie_seconds", backend=backend).set(result.pcie_s)
    metrics.gauge("run.steps_per_second", backend=backend).set(
        result.steps_per_second
    )
    metrics.counter("run.total_steps", backend=backend).inc(result.total_steps)
    metrics.counter("run.queries", backend=backend).inc(result.num_queries)
    metrics.gauge("run.failed_shards", backend=backend).set(len(result.failures))
    if result.query_latency_s is not None:
        metrics.histogram(
            "query.latency_seconds", backend=backend
        ).observe_many(result.query_latency_s.tolist())

    native = result.breakdown.detail
    family = _family(native)
    if family == "fpga-model":
        metrics.gauge("dac.hit_ratio", backend=backend).set(native.cache_hit_ratio)
        metrics.gauge("dyb.valid_ratio", backend=backend).set(native.valid_ratio)
        metrics.gauge("dram.bandwidth_gbps", backend=backend).set(
            native.achieved_bandwidth_gbps
        )
        kernel = max(native.kernel_cycles, 1.0)
        denom = kernel * max(len(native.mem_cycles), 1)
        for module, cycles in (
            ("memory", float(native.mem_cycles.sum())),
            ("sampler", float(native.sampler_cycles.sum())),
            ("controller", float(native.controller_cycles.sum())),
        ):
            metrics.gauge(
                "pipeline.busy_fraction", backend=backend, module=module
            ).set(cycles / denom)
    elif family == "fpga-cycle":
        hits = sum(s.cache_hits for s in native.instances)
        misses = sum(s.cache_misses for s in native.instances)
        valid = sum(s.bytes_valid for s in native.instances)
        loaded = sum(s.bytes_loaded for s in native.instances)
        metrics.gauge("dac.hit_ratio", backend=backend).set(
            hits / (hits + misses) if hits + misses else 0.0
        )
        metrics.gauge("dyb.valid_ratio", backend=backend).set(
            valid / loaded if loaded else 1.0
        )
        for module, fraction in native.utilization_report().items():
            metrics.gauge(
                "pipeline.busy_fraction", backend=backend, module=module
            ).set(fraction)
    elif family == "cpu":
        from repro.cpu.profiling import profile_session

        profile = profile_session(native, application=result.algorithm, graph_name="")
        metrics.gauge("cpu.llc_miss_ratio", backend=backend).set(
            profile.llc_miss_ratio
        )
        metrics.gauge("cpu.memory_bound", backend=backend).set(profile.memory_bound)
        metrics.gauge("cpu.retiring", backend=backend).set(profile.retiring)
