"""Process execution mode: worker pools, observer merge-back, determinism."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import LightRW, Observer
from repro.core.queries import make_queries
from repro.errors import ConfigError
from repro.runtime import (
    EXECUTION_MODES,
    BatchScheduler,
    FPGAModelBackend,
    InjectedFault,
    RetryPolicy,
    plan_run,
)
from repro.walks.node2vec import Node2VecWalk
from repro.walks.uniform import UniformWalk


def _snapshot(observer):
    """Metric snapshot minus the one series that names the mode itself."""
    return {
        key: value
        for key, value in observer.metrics.snapshot().items()
        if "run.process_workers" not in key
    }


class LockedBackend(FPGAModelBackend):
    """Holds a live lock, so it cannot be pickled for a worker process."""

    def __init__(self, context):
        super().__init__(context)
        self.lock = threading.Lock()
        self.executed = []

    def execute(self, plan, shard):
        self.executed.append(shard.index)
        return super().execute(plan, shard)


@pytest.fixture
def starts(labeled_graph):
    return make_queries(labeled_graph, n_queries=24, seed=6)


class TestModeSelection:
    def test_modes_exported(self):
        assert EXECUTION_MODES == ("sequential", "thread", "process")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            BatchScheduler(mode="fibers")

    def test_resolved_mode_defaults(self):
        assert BatchScheduler().mode == "sequential"
        assert BatchScheduler(mode="thread").mode == "thread"
        assert BatchScheduler(mode="process").mode == "process"

    def test_process_rejects_unpicklable_backend(self, labeled_graph, starts):
        """A backend that cannot reach a worker fails before any shard runs."""
        engine = LightRW(labeled_graph, hardware_scale=64, seed=6)
        backend = LockedBackend(engine.runtime_context())
        plan = plan_run("fpga-model", UniformWalk(), 3, starts, shards=4)
        with pytest.raises(ConfigError, match="worker processes"):
            BatchScheduler(mode="process").execute(backend, plan)
        assert backend.executed == []


class TestProcessParity:
    """Same seed => byte-identical walks and equivalent merged metrics."""

    @pytest.mark.parametrize("backend", ["fpga-model", "cpu-baseline"])
    def test_matches_sequential(self, labeled_graph, starts, backend):
        engine = LightRW(labeled_graph, backend=backend, hardware_scale=64, seed=6)
        seq_obs = Observer()
        seq = engine.run(
            Node2VecWalk(), 5, starts=starts, shards=4, observer=seq_obs
        )
        proc_obs = Observer()
        proc = engine.run(
            Node2VecWalk(), 5, starts=starts, shards=4,
            mode="process", workers=2, observer=proc_obs,
        )
        np.testing.assert_array_equal(seq.paths, proc.paths)
        np.testing.assert_array_equal(seq.lengths, proc.lengths)
        assert seq.total_steps == proc.total_steps
        # Worker registries merged back: the same series, the same values.
        assert _snapshot(seq_obs) == _snapshot(proc_obs)
        assert len(_snapshot(seq_obs)) > 0
        workers = proc_obs.metrics.get("run.process_workers", backend=backend)
        assert workers is not None and workers >= 1

    def test_shard_spans_adopt_worker_children(self, labeled_graph, starts):
        engine = LightRW(labeled_graph, hardware_scale=64, seed=6)
        obs = Observer()
        engine.run(
            UniformWalk(), 4, starts=starts, shards=4, mode="process", observer=obs
        )
        spans = obs.spans.finished()
        shard_spans = [
            s for s in spans
            if s.name == "shard" and s.attrs.get("mode") == "process"
        ]
        assert len(shard_spans) == 4
        span_ids = [s.span_id for s in spans]
        assert len(span_ids) == len(set(span_ids))  # adoption re-ids cleanly
        for shard_span in shard_spans:
            children = [s for s in spans if s.parent_id == shard_span.span_id]
            assert children, f"shard {shard_span.attrs['shard']} adopted no spans"
            for child in children:
                assert child.start_s >= shard_span.start_s

    def test_single_shard_falls_back_to_sequential(self, labeled_graph, starts):
        """One pending shard never pays for a worker pool."""
        engine = LightRW(labeled_graph, hardware_scale=64, seed=6)
        obs = Observer()
        result = engine.run(
            UniformWalk(), 4, starts=starts, shards=1, mode="process", observer=obs
        )
        assert result.total_steps > 0
        assert obs.metrics.get("run.process_workers", backend="fpga-model") is None


class TestProcessFaults:
    def test_transient_fault_retried_to_identical_walks(
        self, labeled_graph, starts
    ):
        engine = LightRW(labeled_graph, hardware_scale=64, seed=6)
        baseline = engine.run(UniformWalk(), 4, starts=starts, shards=4)
        obs = Observer()
        result = engine.run(
            UniformWalk(), 4, starts=starts, shards=4, mode="process",
            faults=[InjectedFault(shard=1, fail_attempts=1)],
            retry=RetryPolicy(max_attempts=3),
            observer=obs,
        )
        np.testing.assert_array_equal(result.paths, baseline.paths)
        np.testing.assert_array_equal(result.lengths, baseline.lengths)
        assert obs.metrics.total("run.retries") == 1

    def test_timeout_fails_shard(self, labeled_graph, starts):
        engine = LightRW(labeled_graph, hardware_scale=64, seed=6)
        outcome = engine.run(
            UniformWalk(), 4, starts=starts, shards=4, mode="process",
            faults=[InjectedFault(shard=3, fail_attempts=0, delay_s=5.0)],
            retry=RetryPolicy(max_attempts=1, shard_timeout_s=0.25),
            strict=False,
        )
        assert [f.shard for f in outcome.failures] == [3]
        assert outcome.total_steps > 0  # survivors still merged
