"""Per-layer timing for the traced run: facade spans and a layer replay.

Nothing here adds spans inside ``src/``.  The per-layer split comes from
two sources, both driven from this file through public functions:

* **facade spans** — one ``LightRW.run`` under an :class:`repro.obs.Observer`
  records the runtime's existing ``run``/``plan``/``shard``/``walk``/
  ``perf-model``/``cpu-engine``/``merge`` spans; :func:`facade_layers` turns
  them into the planner and scheduler metrics;
* **layer replay** — :func:`replay` re-executes the same plan one layer at
  a time (``plan_run``; per shard ``run_walks`` with a delegating algorithm
  and sampler that time ``dynamic_weights`` and ``select``; both cost
  models; ``Backend.merge``; ``RunCheckpoint`` write and read), recording
  its own spans around each call.

A span's *self time* is its duration minus the part of it that its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import shutil
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.cpu.costmodel import cpu_time_for_session
from repro.fpga.perfmodel import FPGAPerfModel
from repro.obs import SpanRecord, SpanRecorder, config_fingerprint
from repro.runtime import (
    BackendReport,
    CPUBaselineBreakdown,
    FPGAModelBreakdown,
    RunCheckpoint,
    create_backend,
    plan_run,
)
from repro.walks import InverseTransformSampler, PWRSSampler, run_walks

from perfbench.checks import path_digest
from perfbench.workloads import Setup


# -- span arithmetic ---------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[SpanRecord]) -> dict[int, float]:
    """Self time of every span, keyed by span id.

    Children are linked by ``parent_id``; spans a worker thread opened have
    no parent on the opening thread's stack and count as roots.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start_s, s.end_s))
    return {
        s.span_id: s.duration_s - covered(children[s.span_id], s.start_s, s.end_s)
        for s in spans
    }


def span_table(spans: Iterable[SpanRecord]) -> dict[str, dict[str, float]]:
    """Count, total seconds and self seconds per span name."""
    spans = list(spans)
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration_s
        row["self_s"] += own[s.span_id]
    return table


# -- facade spans ------------------------------------------------------------


def facade_layers(spans: list[SpanRecord], workers: int) -> dict[str, float]:
    """Planner and scheduler metrics of one traced ``LightRW.run``.

    ``parallel_eff`` is shard busy time over the run's wall time times the
    pool width (1 for sequential runs).
    """
    table = span_table(spans)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    busy = total("shard")
    return {
        "runtime.plan.s": total("plan"),
        "runtime.scheduler.merge.s": total("merge"),
        "runtime.scheduler.shard_busy_s": busy,
        "runtime.scheduler.parallel_eff": busy / (total("run") * workers),
    }


# -- layer replay --------------------------------------------------------------


class TimedAlgorithm:
    """Delegates to a walk algorithm, timing ``dynamic_weights`` in a span."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def dynamic_weights(self, ctx):
        with self._recorder.span("walks.weights"):
            return self._inner.dynamic_weights(ctx)


class TimedSampler:
    """Delegates to a sampler strategy, timing ``select`` in a span."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def select(self, ctx, weights, active_index):
        with self._recorder.span("walks.sampler"):
            return self._inner.select(ctx, weights, active_index)


@dataclass
class Replay:
    """What one layer-by-layer replay of a run measured."""

    digest: str
    kernel_s: float
    total_steps: int
    layers: dict[str, float]
    spans: list[SpanRecord]


def _shard_report(setup: Setup, plan, session, fpga, cpu) -> BackendReport:
    """The report the workload's own backend builds for one shard."""
    backend = setup.workload.backend
    if backend == "cpu-baseline":
        spec = setup.engine.cpu_spec
        return BackendReport(
            backend=backend,
            paths=session.paths,
            lengths=session.lengths,
            total_steps=cpu.total_steps,
            kernel_s=cpu.exec_s,
            setup_s=cpu.init_time_s,
            breakdown=CPUBaselineBreakdown(
                backend=backend,
                kernel_s=cpu.exec_s,
                total_steps=cpu.total_steps,
                num_queries=cpu.num_queries,
                setup_s=cpu.init_time_s,
                detail=cpu,
            ),
            query_latency_s=(
                cpu.query_latency_s * spec.interleave_width
                if cpu.query_latency_s is not None
                else None
            ),
            session=session,
        )
    return BackendReport(
        backend=backend,
        paths=session.paths,
        lengths=session.lengths,
        total_steps=fpga.total_steps,
        kernel_s=fpga.kernel_s,
        breakdown=FPGAModelBreakdown(
            backend=backend,
            kernel_s=fpga.kernel_s,
            total_steps=fpga.total_steps,
            num_queries=fpga.num_queries,
            detail=fpga,
        ),
        query_latency_s=fpga.query_latency_seconds() if plan.record_latency else None,
        session=session,
    )


def replay(setup: Setup, workdir: Path) -> Replay:
    """Re-execute the workload's plan one layer at a time, timing each.

    Both cost models and the checkpoint layer run on every workload, so
    each layer's time is measured on each trace; only the workload's own
    backend's cost model feeds the merged report.
    """
    w = setup.workload
    engine = setup.engine
    algorithm = setup.algorithm
    rec = SpanRecorder()
    with rec.span("plan"):
        plan = plan_run(
            w.backend,
            algorithm,
            w.n_steps,
            setup.starts,
            max_sampled_queries=w.sampled_queries,
            shards=w.shards,
            seed=engine.seed,
        )
    timed_algorithm = TimedAlgorithm(algorithm, rec)
    reports = []
    natives = []
    for shard in plan.shards:
        if w.uses_pwrs:
            sampler = PWRSSampler(k=engine.config.k, seed=engine.seed)
        else:
            sampler = InverseTransformSampler(seed=engine.seed)
        with rec.span("walks.stepper"):
            session = run_walks(
                engine.graph,
                shard.starts,
                plan.n_steps,
                timed_algorithm,
                TimedSampler(sampler, rec),
                query_ids=shard.query_ids(),
            )
        with rec.span("fpga.perfmodel"):
            fpga = FPGAPerfModel(engine.config, algorithm).evaluate(
                session,
                total_queries=shard.total_queries,
                record_latency=plan.record_latency,
            )
        with rec.span("cpu.costmodel"):
            cpu = cpu_time_for_session(
                session, algorithm, engine.cpu_spec, total_queries=shard.total_queries
            )
        natives.append(fpga)
        reports.append(_shard_report(setup, plan, session, fpga, cpu))

    backend = create_backend(w.backend, engine.runtime_context())
    with rec.span("merge"):
        merged = backend.merge(plan, reports)

    directory = Path(tempfile.mkdtemp(prefix="replay-", dir=workdir))
    try:
        checkpoint = RunCheckpoint.open(
            directory,
            plan,
            seed=engine.seed,
            config_hash=config_fingerprint(engine.config),
        )
        written = 0
        for shard, report in zip(plan.shards, reports):
            with rec.span("durability.write"):
                path = checkpoint.record_shard(shard.index, report)
            written += path.stat().st_size
        with rec.span("durability.read"):
            restored = checkpoint.load_completed()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if sorted(restored) != [s.index for s in plan.shards]:
        raise RuntimeError("checkpoint replay restored the wrong shard set")

    if w.uses_pwrs:
        single = FPGAPerfModel(engine.config, algorithm).evaluate(
            merged.session, total_queries=plan.total_queries, record_latency=False
        ).kernel_s
    else:
        single = cpu_time_for_session(
            merged.session, algorithm, engine.cpu_spec, total_queries=plan.total_queries
        ).exec_s

    spans = rec.finished()
    table = span_table(spans)

    def total(name: str, key: str = "total_s") -> float:
        return table.get(name, {}).get(key, 0.0)

    accesses = sum(n.cache_accesses for n in natives)
    loaded = sum(n.bytes_loaded for n in natives)
    layers = {
        "walks.weights.s": total("walks.weights"),
        "walks.sampler.s": total("walks.sampler"),
        "walks.stepper.self_s": total("walks.stepper", "self_s"),
        "fpga.perfmodel.s": total("fpga.perfmodel"),
        "cpu.costmodel.s": total("cpu.costmodel"),
        "runtime.durability.write_s": total("durability.write"),
        "runtime.durability.write_bytes": float(written),
        "runtime.durability.read_s": total("durability.read"),
        "model.dac_hit_ratio": (
            sum(n.cache_hits for n in natives) / accesses if accesses else 0.0
        ),
        "model.dyb_valid_ratio": (
            sum(n.bytes_valid for n in natives) / loaded if loaded else 1.0
        ),
        "model.shard_drift_rel": abs(merged.kernel_s - single) / single,
    }
    return Replay(
        digest=path_digest(merged.paths, merged.lengths),
        kernel_s=float(merged.kernel_s),
        total_steps=int(merged.total_steps),
        layers=layers,
        spans=spans,
    )


def work_counts(result, n_steps: int) -> dict[str, float]:
    """Functional work of one ``RunResult``: steps walked and edges scanned."""
    steps = int(np.asarray(result.lengths).sum())
    edges = sum(int(r.degrees.sum()) for r in result.session.records)
    return {
        "walks.steps": float(steps),
        "walks.edges_scanned": float(edges),
        "walks.edges_per_step": edges / steps if steps else 0.0,
        "walks.completion_ratio": steps / (result.paths.shape[0] * n_steps),
    }
