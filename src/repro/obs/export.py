"""Telemetry exporters: JSONL run records, Prometheus text, Chrome traces.

Three output formats cover the common consumers:

* :func:`run_record` / :func:`append_jsonl` — one self-contained JSON
  object per run (manifest + metrics snapshot + spans), appended to a
  ``.jsonl`` file.  ``repro obs summarize`` reads these back.
* :func:`prometheus_from_snapshot` — a metrics snapshot (a JSONL
  record's ``metrics``, or ``registry.snapshot()``) in Prometheus
  exposition format (metric names have dots rewritten to underscores),
  for scraping or diffing with standard tooling.
* :func:`chrome_trace` — a ``chrome://tracing`` / Perfetto trace-event
  JSON combining runtime spans (wall-clock) and the cycle simulator's
  :class:`~repro.fpga.sim.trace.PipelineTracer` events (cycles converted
  to microseconds at the configured kernel frequency), so one file shows
  the planner, every scheduler shard and the pipeline's internal activity
  on a shared timeline.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.artifacts import (
    atomic_write_text,
    checked_record,
    corrupt,
    record_checksum_ok,
)
from repro.obs.spans import Observer, SpanRecord

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.api import RunResult
    from repro.fpga.accelerator import CycleSimResult
    from repro.fpga.sim.trace import PipelineTracer

__all__ = [
    "append_jsonl",
    "chrome_trace",
    "prometheus_from_snapshot",
    "read_jsonl",
    "run_record",
    "summarize_records",
    "write_chrome_trace",
]


# -- JSONL run records --------------------------------------------------------


def run_record(result: "RunResult", observer: Observer | None = None) -> dict:
    """One JSON-ready record describing a finished run."""
    record: dict[str, Any] = {
        "manifest": result.manifest.as_dict() if result.manifest else None,
        "summary": {
            "backend": result.backend,
            "algorithm": result.algorithm,
            "num_queries": result.num_queries,
            "executed_queries": result.executed_queries,
            "total_steps": result.total_steps,
            "kernel_s": result.kernel_s,
            "pcie_s": result.pcie_s,
            "setup_s": result.setup_s,
            "steps_per_second": result.steps_per_second,
            "strict": result.strict,
            "failures": [f.as_dict() for f in result.failures],
        },
    }
    if observer is not None and observer.enabled:
        record["metrics"] = observer.metrics.snapshot()
        record["spans"] = [s.as_dict() for s in observer.spans.finished()]
    return record


def append_jsonl(path: str | Path, record: dict) -> Path:
    """Append one record as a single checksummed line of JSON.

    JSONL appends cannot be made atomic by rename, so integrity is per
    record: each line embeds the digest of its own body and the append is
    fsynced.  A crash can therefore only ever tear the *final* line —
    which :func:`read_jsonl` detects and skips.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(checked_record(record), default=str) + "\n"
    with path.open("a") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
    return path


def read_jsonl(path: str | Path) -> list[dict]:
    """Read and verify JSONL records (``checksum`` keys stripped).

    An unparseable *final* line is the expected signature of a crash
    mid-append and is skipped with a warning; an unparseable line or a
    checksum mismatch anywhere else means the file was damaged after
    writing, so it is quarantined and raised as
    :class:`~repro.errors.ArtifactCorruptionError`.  Records written
    before checksums existed load unverified.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    records: list[dict] = []
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines):
                logger.warning(
                    "%s:%d: skipping torn final record (interrupted append)",
                    path, number,
                )
                continue
            corrupt(path, f"line {number}: unparseable JSON mid-file")
        if not isinstance(record, dict):
            corrupt(path, f"line {number}: record is not a JSON object")
        if record_checksum_ok(record) is False:
            corrupt(path, f"line {number}: record checksum mismatch")
        records.append({k: v for k, v in record.items() if k != "checksum"})
    return records


def summarize_records(records: Iterable[dict]) -> str:
    """Human-readable digest of JSONL run records (``repro obs summarize``)."""
    lines: list[str] = []
    for index, record in enumerate(records):
        manifest = record.get("manifest") or {}
        summary = record.get("summary") or {}
        header = (
            f"run {index}: {manifest.get('backend', summary.get('backend', '?'))}"
            f" {manifest.get('algorithm', summary.get('algorithm', '?'))}"
            f" n_steps={manifest.get('n_steps', '?')}"
            f" queries={summary.get('num_queries', '?')}"
            f" seed={manifest.get('seed', '?')}"
        )
        lines.append(header)
        if manifest:
            lines.append(
                f"  config={manifest.get('config_hash')}"
                f" version={manifest.get('package_version')}"
                f" host={manifest.get('host')}"
            )
        if summary:
            lines.append(
                f"  kernel={summary.get('kernel_s', 0.0):.6g}s"
                f" steps/s={summary.get('steps_per_second', 0.0):.4g}"
                f" pcie={summary.get('pcie_s', 0.0):.6g}s"
            )
        failed = (summary.get("failures") if summary else None) or []
        if failed:
            lines.append(
                "  failures: "
                + ", ".join(
                    f"shard {f.get('shard')} ({f.get('error_type')}, "
                    f"{f.get('attempts')} attempt(s))"
                    for f in failed
                )
            )
        metrics = record.get("metrics") or {}
        interesting = [
            key for key in sorted(metrics)
            if key.split("{")[0] in (
                "dac.hit_ratio", "dyb.valid_ratio", "dram.bandwidth_gbps",
                "cpu.llc_miss_ratio", "cpu.memory_bound", "cpu.retiring",
            )
        ]
        for key in interesting:
            lines.append(f"  {key} = {metrics[key]:.4g}")
        spans = record.get("spans") or []
        if spans:
            lines.append(f"  spans: {len(spans)} recorded")
    return "\n".join(lines) if lines else "(no records)"


# -- Prometheus text ----------------------------------------------------------


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_prom_name(str(k))}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


def _parse_series_key(key: str) -> tuple[str, dict]:
    """Invert :func:`repro.obs.metrics.series_key`."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = {}
    for pair in rest.rstrip("}").split(","):
        if pair:
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


def prometheus_from_snapshot(snapshot: dict) -> str:
    """Prometheus text from a JSONL record's ``metrics`` snapshot.

    Instrument kinds are not preserved in snapshots, so scalar series are
    emitted untyped and histograms keep their bucket structure.
    """
    lines: list[str] = []
    for key in sorted(snapshot):
        name, labels = _parse_series_key(key)
        prom = _prom_name(name)
        value = snapshot[key]
        if isinstance(value, dict) and value.get("kind") == "histogram":
            cumulative = 0
            for bound, count in zip(value["buckets"], value["counts"]):
                cumulative += count
                lines.append(
                    f"{prom}_bucket{_prom_labels(dict(labels, le=repr(bound)))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{prom}_bucket{_prom_labels(dict(labels, le='+Inf'))}"
                f" {value['count']}"
            )
            lines.append(f"{prom}_sum{_prom_labels(labels)} {value['sum']}")
            lines.append(f"{prom}_count{_prom_labels(labels)} {value['count']}")
        else:
            lines.append(f"{prom}{_prom_labels(labels)} {value}")
    return "\n".join(lines) + "\n" if lines else ""


# -- Chrome trace events ------------------------------------------------------

#: Synthetic process ids for the two timelines in the combined trace.
_PID_RUNTIME = 1
_PID_PIPELINE = 2


def _span_events(spans: Sequence[SpanRecord]) -> list[dict]:
    threads = {}
    events: list[dict] = []
    for record in spans:
        tid = threads.setdefault(record.thread, len(threads) + 1)
        events.append(
            {
                "name": record.name,
                "cat": "runtime",
                "ph": "X",
                "ts": record.start_s * 1e6,
                "dur": record.duration_s * 1e6,
                "pid": _PID_RUNTIME,
                "tid": tid,
                "args": record.attrs,
            }
        )
    for thread, tid in threads.items():
        events.append(
            {
                "ph": "M", "name": "thread_name", "pid": _PID_RUNTIME,
                "tid": tid, "args": {"name": thread},
            }
        )
    return events


def _tracer_events(
    tracer: "PipelineTracer", frequency_hz: float, tids: dict[str, int]
) -> list[dict]:
    events: list[dict] = []
    for entry in tracer.events():
        tid = tids.setdefault(entry.module, len(tids) + 1)
        events.append(
            {
                "name": entry.event,
                "cat": "pipeline",
                "ph": "i",
                "s": "t",
                "ts": entry.cycle / frequency_hz * 1e6,
                "pid": _PID_PIPELINE,
                "tid": tid,
                "args": dict(entry.info),
            }
        )
    return events


def _module_summary_events(
    result: "CycleSimResult", frequency_hz: float, tids: dict[str, int]
) -> list[dict]:
    """One ``X`` span per pipeline module per instance: its busy share.

    Only some modules emit discrete tracer events; the summary spans
    guarantee every module of every active instance appears on the
    timeline with its busy-cycle count and utilization.
    """
    events: list[dict] = []
    for index, stats in enumerate(result.instances):
        if not stats.cycles:
            continue
        utilization = stats.utilization()
        for module, busy in stats.module_busy.items():
            name = f"inst{index}.{module}"
            tid = tids.setdefault(name, len(tids) + 1)
            events.append(
                {
                    "name": f"{module} busy",
                    "cat": "pipeline-summary",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": stats.cycles / frequency_hz * 1e6,
                    "pid": _PID_PIPELINE,
                    "tid": tid,
                    "args": {
                        "busy_cycles": busy,
                        "busy_fraction": utilization.get(module, 0.0),
                        "instance": index,
                    },
                }
            )
    return events


def chrome_trace(
    spans: Sequence[SpanRecord] | None = None,
    tracer: "PipelineTracer | None" = None,
    cycle_result: "CycleSimResult | None" = None,
    frequency_hz: float = 300e6,
) -> dict:
    """Build a Chrome trace-event JSON object from any telemetry sources.

    Runtime spans land on process 1 (one track per thread); pipeline
    tracer events and per-module busy summaries on process 2 (one track
    per module).  Events are sorted by timestamp so the file also reads
    sensibly as a log.
    """
    events: list[dict] = []
    tids: dict[str, int] = {}
    if spans:
        events.extend(_span_events(spans))
    if cycle_result is not None:
        events.extend(_module_summary_events(cycle_result, frequency_hz, tids))
    if tracer is not None:
        events.extend(_tracer_events(tracer, frequency_hz, tids))
    for module, tid in tids.items():
        events.append(
            {
                "ph": "M", "name": "thread_name", "pid": _PID_PIPELINE,
                "tid": tid, "args": {"name": module},
            }
        )
    metadata = [e for e in events if e["ph"] == "M"]
    timed = sorted(
        (e for e in events if e["ph"] != "M"), key=lambda e: e["ts"]
    )
    names = {}
    names[_PID_RUNTIME] = "runtime (wall clock)"
    names[_PID_PIPELINE] = f"pipeline (cycles @ {frequency_hz / 1e6:g} MHz)"
    process_meta = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": label}}
        for pid, label in names.items()
    ]
    return {
        "traceEvents": process_meta + metadata + timed,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    path: str | Path,
    spans: Sequence[SpanRecord] | None = None,
    tracer: "PipelineTracer | None" = None,
    cycle_result: "CycleSimResult | None" = None,
    frequency_hz: float = 300e6,
) -> Path:
    """Serialize :func:`chrome_trace` to ``path`` (atomic write)."""
    trace = chrome_trace(
        spans=spans, tracer=tracer, cycle_result=cycle_result,
        frequency_hz=frequency_hz,
    )
    return atomic_write_text(path, json.dumps(trace, default=str))
