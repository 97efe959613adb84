"""Measure one workload: end-to-end metrics, or the traced per-layer run.

A run is one process.  It sets the workload up several times (``setup_s``
is the median), walks one untimed warm-up batch, then calls
``LightRW.run`` back to back for ``--seconds``.  Every call's output is
checked (:mod:`perfbench.checks`); a call that raises or fails a check
counts in ``failed`` and its time is dropped.  Every timed set-up and call
is bracketed by a calibration kernel (:class:`Calibration`), and the gated
times are scaled to the kernel's reference time.

``--trace 0`` reports the end-to-end metrics with tracing and observers
off.  ``--trace 1`` instead alternates an untraced call, a call under an
:class:`repro.obs.Observer` and a layer replay (:mod:`perfbench.layers`),
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

from repro.core import sample_queries
from repro.obs import Observer

from perfbench.checks import (
    check_golden,
    check_schema,
    check_structure,
    golden_rows,
    path_digest,
)
from perfbench.layers import facade_layers, replay, span_table, work_counts
from perfbench.workloads import (
    METAPATH_SCHEMA,
    WORKLOADS,
    Setup,
    Workload,
    host_threads,
    set_up,
)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "run_s": "s",
    "steps_per_s": "steps/s",
    "edges_per_s": "edges/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "walks.weights.s": "s",
    "walks.sampler.s": "s",
    "walks.stepper.self_s": "s",
    "walks.steps": "count",
    "walks.edges_scanned": "count",
    "walks.edges_per_step": "edges/step",
    "walks.completion_ratio": "ratio",
    "fpga.perfmodel.s": "s",
    "cpu.costmodel.s": "s",
    "runtime.plan.s": "s",
    "runtime.scheduler.merge.s": "s",
    "runtime.scheduler.shard_busy_s": "s",
    "runtime.scheduler.parallel_eff": "ratio",
    "runtime.durability.write_s": "s",
    "runtime.durability.write_bytes": "bytes",
    "runtime.durability.read_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "model.kernel_s": "modeled-s",
    "model.dac_hit_ratio": "ratio",
    "model.dyb_valid_ratio": "ratio",
    "model.total_steps": "count",
    "model.shard_drift_rel": "ratio",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Rows compared with ``walk_single_query`` on the warm-up / on every timed call.
GOLDEN_WARMUP_ROWS = 16
GOLDEN_ROWS = 4


#: Calibration-kernel time the gated timings are scaled to (s): about the
#: kernel's time on the 2-core VM the bounds were set on, in a fast minute.
REFERENCE_CALIBRATION_S = 0.060
#: How strongly a call's time follows the kernel's, as an exponent: fitted
#: 0.42 (thunderrw-n2v-rmat16) and 0.60 (n2v-rmat16) on that VM from sets of
#: runs taken in slow and in fast minutes.
CALIBRATION_EXPONENT = 0.6


class Calibration:
    """A fixed numpy gather + prefix-sum kernel, timed around every call.

    On a shared host the CPU speed changes by up to 2x from one minute to
    the next, and a walk call's time follows this kernel's (correlation
    0.88 over 37 calls), though less steeply.  :meth:`time` therefore
    scales a call's wall time by ``(REFERENCE_CALIBRATION_S / k) **
    CALIBRATION_EXPONENT``, where ``k`` is the mean of the kernel times
    just before and just after the call.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random(1 << 20)
        self._index = rng.integers(0, self._table.size, size=1 << 22, dtype=np.int32)
        self._last: float | None = None

    def measure(self, repeats: int = 3) -> float:
        """Median time of ``repeats`` runs of the kernel."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            np.cumsum(self._table[self._index])
            times.append(time.perf_counter() - start)
        self._last = median(times)
        return self._last

    def time(self, call):
        """Run ``call``; returns ``(result, wall seconds, reference seconds)``."""
        before = self._last if self._last is not None else self.measure()
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        after = self.measure()
        scale = REFERENCE_CALIBRATION_S * 2.0 / (before + after)
        return result, wall, wall * scale**CALIBRATION_EXPONENT


def machine_context(seed: int, calibration: Calibration) -> dict:
    return {
        "nproc": host_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "calibration_s": calibration.measure(repeats=5),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Calls ``LightRW.run`` for one set-up and checks every output.

    The first passing call fixes the set's path digest and modeled
    outputs; every later call must reproduce them exactly.
    """

    def __init__(self, setup: Setup, workdir: Path, calibration: Calibration) -> None:
        self.setup = setup
        self.workdir = workdir
        self.calibration = calibration
        w = setup.workload
        self.expected_starts, _ = sample_queries(
            setup.starts, w.sampled_queries, seed=setup.engine.seed
        )
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.model: tuple[float, int] | None = None
        self.counts: dict[str, float] | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)

    def run(self, observer: Observer | None = None, golden_rows_count: int = GOLDEN_ROWS):
        """One checked call; returns ``(wall s, reference s)``, None on failure."""
        w = self.setup.workload
        self.attempted += 1
        checkpoint_dir = (
            Path(tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir)) if w.checkpoint else None
        )
        try:
            result, wall, reference = self.calibration.time(
                lambda: self.setup.engine.run(
                    self.setup.algorithm,
                    w.n_steps,
                    observer=observer,
                    **self.setup.run_kwargs(checkpoint_dir),
                )
            )
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            traceback.print_exc()
            self.fail(f"call {self.attempted} raised")
            return None
        finally:
            if checkpoint_dir is not None:
                shutil.rmtree(checkpoint_dir, ignore_errors=True)
        problems = self.check(result, golden_rows_count)
        if problems:
            self.fail(f"call {self.attempted}: " + "; ".join(problems))
            return None
        return wall, reference

    def check(self, result, golden_rows_count: int) -> list[str]:
        w = self.setup.workload
        graph = self.setup.graph
        seed = self.setup.engine.seed
        paths, lengths = result.paths, result.lengths
        problems = check_structure(graph, paths, lengths, self.expected_starts)
        if problems:
            return problems
        if w.algorithm == "metapath":
            problems += check_schema(graph, paths, lengths, np.asarray(METAPATH_SCHEMA))
        if w.uses_pwrs and golden_rows_count:
            rows = golden_rows(
                paths.shape[0], golden_rows_count, seed=seed * 1_000_003 + self.attempted
            )
            problems += check_golden(
                graph,
                paths,
                lengths,
                self.setup.algorithm,
                w.n_steps,
                k=self.setup.engine.config.k,
                seed=seed,
                rows=rows,
            )
        if problems:
            return problems
        digest = path_digest(paths, lengths)
        model = (float(result.kernel_s), int(result.total_steps))
        if self.digest is None:
            self.digest, self.model = digest, model
            self.counts = work_counts(result, w.n_steps)
        elif digest != self.digest:
            problems.append("path digest differs from the set's first run")
        elif model != self.model:
            problems.append(f"modeled (kernel_s, total_steps) {model} != {self.model}")
        return problems


def _timed_loop(seconds: float, body) -> None:
    """Call ``body`` until ``seconds`` have passed (at least once)."""
    deadline = time.perf_counter() + seconds
    while True:
        body()
        if time.perf_counter() >= deadline:
            return


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, workdir: Path, calibration: Calibration
):
    """End-to-end metrics; timings are reference seconds (see :class:`Calibration`).

    Also returns the samples behind them, wall and reference, for printing.
    """
    setup_wall, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        setup, wall, reference = calibration.time(lambda: set_up(workload, seed))
        setup_wall.append(wall)
        setup_ref.append(reference)
    runner = Runner(setup, workdir, calibration)
    runner.run(golden_rows_count=GOLDEN_WARMUP_ROWS)
    run_wall, run_ref = [], []

    def body() -> None:
        timing = runner.run()
        if timing is not None:
            run_wall.append(timing[0])
            run_ref.append(timing[1])

    _timed_loop(seconds, body)
    samples = {
        "run_s (reference)": run_ref,
        "run_s (wall)": run_wall,
        "setup_s (reference)": setup_ref,
        "setup_s (wall)": setup_wall,
    }
    if not run_ref or runner.counts is None:
        return runner, None, samples
    run_s = median(run_ref)
    metrics = {
        "run_s": run_s,
        "steps_per_s": runner.counts["walks.steps"] / run_s,
        "edges_per_s": runner.counts["walks.edges_scanned"] / run_s,
        "setup_s": median(setup_ref),
        "peak_rss_mb": peak_rss_mb(),
    }
    return runner, metrics, samples


def measure_layers(
    workload: Workload, seed: int, seconds: float, workdir: Path, calibration: Calibration
):
    """Per-layer metrics (raw wall seconds) plus the span tables behind them."""
    setup = set_up(workload, seed)
    runner = Runner(setup, workdir, calibration)
    runner.run(golden_rows_count=GOLDEN_WARMUP_ROWS)
    workers = min(host_threads(), workload.shards) if workload.mode == "thread" else 1
    untraced: list[float] = []
    traced: list[float] = []
    facade: list[dict[str, float]] = []
    replayed: list[dict[str, float]] = []
    tables: dict[str, dict] = {}

    def body() -> None:
        timing = runner.run()
        if timing is not None:
            untraced.append(timing[1])
        observer = Observer()
        timing = runner.run(observer=observer)
        if timing is not None:
            traced.append(timing[1])
            spans = observer.spans.finished()
            facade.append(facade_layers(spans, workers))
            tables["facade"] = span_table(spans)
        runner.attempted += 1
        try:
            result = replay(setup, workdir)
        except Exception:  # noqa: BLE001 - a failed replay is counted, not fatal
            traceback.print_exc()
            runner.fail("layer replay raised")
            return
        if runner.digest is None or result.digest != runner.digest:
            runner.fail("layer replay digest differs from the facade's")
        elif (result.kernel_s, result.total_steps) != runner.model:
            runner.fail("layer replay modeled outputs differ from the facade's")
        else:
            replayed.append(result.layers)
            tables["replay"] = span_table(result.spans)

    _timed_loop(seconds, body)
    if not (untraced and traced and replayed) or runner.counts is None:
        return runner, None, tables
    metrics = dict(runner.counts)
    for name in facade[0]:
        metrics[name] = median(f[name] for f in facade)
    for name in replayed[0]:
        metrics[name] = median(r[name] for r in replayed)
    metrics["obs.trace_overhead_frac"] = median(traced) / median(untraced) - 1.0
    metrics["model.kernel_s"], metrics["model.total_steps"] = runner.model
    return runner, metrics, tables


def _print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def run_one(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    calibration = Calibration()
    context = machine_context(args.seed, calibration)
    context.update(workload=workload.name, seconds=args.seconds, trace=args.trace)
    print("context " + json.dumps(context))
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        if args.trace:
            runner, metrics, tables = measure_layers(
                workload, args.seed, args.seconds, workdir, calibration
            )
            units = PER_LAYER
            for name, table in tables.items():
                _print_table(
                    f"{name} spans (count, total s, self s):",
                    [
                        (span, int(row["count"]), f"{row['total_s']:.6f}", f"{row['self_s']:.6f}")
                        for span, row in sorted(table.items())
                    ],
                )
        else:
            runner, metrics, samples = measure_end_to_end(
                workload, args.seed, args.seconds, workdir, calibration
            )
            units = END_TO_END
            for name, values in samples.items():
                if values:
                    print(
                        f"{name} samples: n={len(values)} median={median(values):.6f} "
                        f"min={min(values):.6f} max={max(values):.6f}"
                    )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    failed_frac = runner.failed / runner.attempted
    if metrics is None:
        print(f"error: no call of {workload.name} passed its checks", file=sys.stderr)
        return 1
    _print_table(
        f"{workload.name} ({'per-layer' if args.trace else 'end-to-end'}):",
        [(name, repr(metrics[name]), unit) for name, unit in units.items()]
        + [("failed_frac", repr(failed_frac), "ratio")],
    )
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def run_all(args, root: Path) -> int:
    """Run every workload in its own process; print one summary table."""
    results = {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable,
                str(root / "perfbench" / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {completed.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Host wall-clock benchmark of the LightRW facade.",
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)
