"""Fault tolerance: shard isolation, retry/timeout, degraded merges."""

from __future__ import annotations

import json
import logging
import threading

import numpy as np
import pytest

from repro import LightRW, Observer
from repro.cli import main as cli_main
from repro.core.queries import make_queries
from repro.errors import ConfigError, QueryError, ShardExecutionError
from repro.runtime import (
    EXECUTION_MODES,
    BatchScheduler,
    FaultInjectionBackend,
    InjectedFault,
    InjectedFaultError,
    RetryPolicy,
    create_backend,
    plan_run,
)
from repro.walks.uniform import UniformWalk


@pytest.fixture
def engine(labeled_graph):
    return LightRW(labeled_graph, hardware_scale=64, seed=3)


@pytest.fixture
def starts(labeled_graph):
    return make_queries(labeled_graph, n_queries=32, seed=4)


class TestRetryPolicy:
    def test_defaults_mean_one_attempt(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.retries == 0
        assert policy.shard_timeout_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": -2},
            {"max_attempts": 2.5},
            {"max_attempts": "2"},
            {"shard_timeout_s": float("nan")},
            {"shard_timeout_s": float("-inf")},
            {"shard_timeout_s": 0.0},
            {"shard_timeout_s": -1.0},
            {"shard_timeout_s": float("inf")},
            {"shard_timeout_s": 1e10},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


class TestInjectedFault:
    def test_transient_vs_permanent_schedule(self):
        transient = InjectedFault(shard=0, fail_attempts=1)
        assert transient.fails_attempt(1) and not transient.fails_attempt(2)
        permanent = InjectedFault(shard=0, fail_attempts=-1)
        assert permanent.permanent
        assert permanent.fails_attempt(1) and permanent.fails_attempt(99)
        healthy = InjectedFault(shard=0, fail_attempts=0, delay_s=0.01)
        assert not healthy.fails_attempt(1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard": -1},
            {"shard": 0, "fail_attempts": -2},
            {"shard": 0, "delay_s": -1},
            {"shard": 1.5},
            {"shard": 0, "fail_attempts": 1.5},
            {"shard": 0, "delay_s": float("inf")},
            {"shard": 0, "delay_s": float("nan")},
        ],
    )
    def test_invalid_fault_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            InjectedFault(**kwargs)

    def test_duplicate_shard_rejected(self, engine):
        inner = create_backend("fpga-model", engine.runtime_context())
        with pytest.raises(ConfigError, match="duplicate"):
            FaultInjectionBackend(
                inner, [InjectedFault(shard=1), InjectedFault(shard=1)]
            )


class TestSchedulerConfig:
    def test_modes_exported(self):
        assert EXECUTION_MODES == ("sequential", "thread")

    @pytest.mark.parametrize("mode", ["fibers", "process"])
    def test_invalid_mode_rejected(self, mode):
        with pytest.raises(ConfigError, match="'sequential', 'thread'"):
            BatchScheduler(mode=mode)

    def test_resolved_mode_defaults(self):
        assert BatchScheduler().mode == "sequential"
        assert BatchScheduler(mode="thread").mode == "thread"

    @pytest.mark.parametrize("workers", [0, -1, -8, 2.5, "2"])
    def test_invalid_max_workers_fails_at_construction(self, workers):
        with pytest.raises(ConfigError, match="max_workers"):
            BatchScheduler(mode="thread", max_workers=workers)

    def test_oversized_pool_is_clamped_to_shards(self, engine, starts):
        # max_workers far above the shard count must not crash or change walks.
        baseline = engine.run(UniformWalk(), 4, starts=starts, shards=2)
        plan = plan_run("fpga-model", UniformWalk(), 4, starts, shards=2, seed=3)
        backend = create_backend("fpga-model", engine.runtime_context())
        scheduler = BatchScheduler(mode="thread", max_workers=64)
        outcome = scheduler.execute(backend, plan)
        assert outcome.ok and outcome.retries == 0
        np.testing.assert_array_equal(outcome.report.paths, baseline.paths)

    def test_cli_process_mode_rejected(self, tmp_path):
        bundle = tmp_path / "g.npz"
        assert cli_main(["generate", "rmat", str(bundle), "--vertices-log2", "7"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "walk", str(bundle), "--algorithm", "uniform", "--length", "4",
                "--queries", "16", "--shards", "2", "--mode", "process",
            ])
        assert excinfo.value.code != 0


class TestStrictMode:
    def test_failure_raises_with_structured_failures(self, engine, starts):
        with pytest.raises(ShardExecutionError) as excinfo:
            engine.run(
                UniformWalk(), 4, starts=starts, shards=4,
                faults=[InjectedFault(shard=1, fail_attempts=-1)],
            )
        (failure,) = excinfo.value.failures
        assert failure.shard == 1
        assert failure.error_type == "InjectedFaultError"
        assert failure.attempts == 1
        assert not failure.timed_out

    def test_sibling_shards_still_run(self, engine, starts):
        """Error isolation: the failing shard never aborts its siblings."""
        backend = FaultInjectionBackend(
            create_backend("fpga-model", engine.runtime_context()),
            [InjectedFault(shard=0, fail_attempts=-1)],
        )
        plan = plan_run("fpga-model", UniformWalk(), 4, starts, shards=4, seed=3)
        with pytest.raises(ShardExecutionError):
            BatchScheduler().execute(backend, plan)
        # All four shards were attempted despite shard 0 failing first.
        assert backend.attempts(0) == 1

    def test_fault_on_out_of_range_shard_is_inert(self, engine, starts):
        result = engine.run(
            UniformWalk(), 4, starts=starts, shards=2,
            faults=[InjectedFault(shard=17, fail_attempts=-1)],
        )
        assert result.ok


class TestDegradedMode:
    def test_partial_merge_keeps_global_query_order(self, engine, starts):
        clean = engine.run(UniformWalk(), 5, starts=starts, shards=4)
        part = engine.run(
            UniformWalk(), 5, starts=starts, shards=4, strict=False,
            faults=[InjectedFault(shard=2, fail_attempts=-1)],
        )
        assert not part.ok and not part.strict
        (failure,) = part.failures
        assert failure.shard == 2
        lost = failure.query_ids()
        np.testing.assert_array_equal(lost, part.failed_query_ids())
        assert part.executed_queries == clean.executed_queries - lost.size
        # Surviving rows are exactly the fault-free rows minus the lost shard,
        # in global query-id order.
        surviving = np.setdiff1d(np.arange(clean.executed_queries), lost)
        np.testing.assert_array_equal(part.paths, clean.paths[surviving])
        # The survivors are costed once, extrapolated to their share only.
        assert part.breakdown.num_queries == part.executed_queries
        assert part.total_steps == int(part.lengths.sum())

    def test_parallel_degraded_matches_sequential(self, engine, starts):
        faults = [InjectedFault(shard=1, fail_attempts=-1)]
        seq = engine.run(
            UniformWalk(), 5, starts=starts, shards=4, strict=False, faults=faults,
        )
        par = engine.run(
            UniformWalk(), 5, starts=starts, shards=4, strict=False, faults=faults,
            mode="thread",
        )
        np.testing.assert_array_equal(seq.paths, par.paths)
        assert [f.shard for f in seq.failures] == [f.shard for f in par.failures]

    def test_all_shards_failing_still_raises(self, engine, starts):
        with pytest.raises(ShardExecutionError, match="every shard failed"):
            engine.run(
                UniformWalk(), 4, starts=starts, shards=2, strict=False,
                faults=[
                    InjectedFault(shard=0, fail_attempts=-1),
                    InjectedFault(shard=1, fail_attempts=-1),
                ],
            )

    def test_failures_land_in_manifest_and_metrics(self, engine, starts):
        observer = Observer()
        part = engine.run(
            UniformWalk(), 4, starts=starts, shards=4, strict=False,
            faults=[InjectedFault(shard=3, fail_attempts=-1)],
            observer=observer,
        )
        (entry,) = part.manifest.failures
        assert entry["shard"] == 3
        assert entry["error_type"] == "InjectedFaultError"
        assert observer.metrics.total("run.shard_failures") == 1
        assert observer.metrics.total("run.failed_queries") == part.failures[0].num_queries
        assert observer.metrics.total("run.injected_faults") == 1


class TestRetry:
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_transient_fault_retries_to_identical_walks(self, engine, starts, mode):
        """The tentpole determinism claim: per-query RNG keyed by global id
        means a retried shard reproduces byte-identical walks."""
        clean = engine.run(UniformWalk(), 6, starts=starts, shards=4)
        observer = Observer()
        retried = engine.run(
            UniformWalk(), 6, starts=starts, shards=4, mode=mode, workers=2,
            retry=RetryPolicy(max_attempts=2),
            faults=[InjectedFault(shard=2, fail_attempts=1)],
            observer=observer,
        )
        assert retried.ok and retried.failures == ()
        np.testing.assert_array_equal(retried.paths, clean.paths)
        np.testing.assert_array_equal(retried.lengths, clean.lengths)
        assert observer.metrics.total("run.retries") == 1
        assert observer.metrics.total("run.injected_faults") == 1
        assert observer.metrics.total("run.shard_failures") == 0
        assert retried.manifest.failures == ()

    def test_retry_budget_exhausted_becomes_failure(self, engine, starts):
        with pytest.raises(ShardExecutionError) as excinfo:
            engine.run(
                UniformWalk(), 4, starts=starts, shards=4,
                retry=RetryPolicy(max_attempts=3),
                faults=[InjectedFault(shard=0, fail_attempts=-1)],
            )
        (failure,) = excinfo.value.failures
        assert failure.attempts == 3

    def test_explicit_retry_policy_overrides_shorthand(self, engine, starts):
        policy = RetryPolicy(max_attempts=2)
        result = engine.run(
            UniformWalk(), 4, starts=starts, shards=4, retry=policy,
            faults=[InjectedFault(shard=1, fail_attempts=1)],
        )
        assert result.ok


class TestMalformedBatch:
    """Bad input is refused once, before any shard runs: never retried,
    and never a degraded run that drops the valid queries."""

    def test_out_of_range_start_raises_even_when_not_strict(self, engine, labeled_graph):
        starts = [0, 1, 2, labeled_graph.num_vertices]
        with pytest.raises(QueryError, match="out of range"):
            engine.run(UniformWalk(), 3, starts=starts, shards=2, strict=False)

    @pytest.mark.parametrize("n_steps", [-1, 2.5])
    def test_bad_step_count_runs_no_shard(self, engine, starts, n_steps):
        observer = Observer()
        with pytest.raises(QueryError, match="n_steps"):
            engine.run(
                UniformWalk(), n_steps, starts=starts, shards=4,
                retry=RetryPolicy(max_attempts=3), observer=observer,
            )
        assert observer.spans.find("shard") == []
        assert observer.metrics.total("run.retries") == 0


class TestTimeout:
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_slow_shard_times_out(self, engine, starts, mode):
        result = engine.run(
            UniformWalk(), 4, starts=starts, shards=4, strict=False,
            mode=mode, workers=2,
            retry=RetryPolicy(shard_timeout_s=0.05),
            faults=[InjectedFault(shard=0, fail_attempts=0, delay_s=1.0)],
        )
        (failure,) = result.failures
        assert failure.timed_out
        assert failure.error_type == "ShardTimeoutError"
        assert result.executed_queries < len(starts)

    def test_generous_timeout_is_harmless(self, engine, starts):
        clean = engine.run(UniformWalk(), 4, starts=starts, shards=2)
        timed = engine.run(
            UniformWalk(), 4, starts=starts, shards=2,
            retry=RetryPolicy(shard_timeout_s=60.0),
        )
        assert timed.ok
        np.testing.assert_array_equal(timed.paths, clean.paths)

    def test_longest_timeout_waits_out_a_slow_shard(self, engine, starts, caplog):
        """A group's budget (timeout x members) is capped at the longest wait
        the watchdog can make, so the largest legal timeout walks with no
        failed attempt.  A failed group falls back to per-shard walks with
        the same paths, so only its warning would show it."""
        clean = engine.run(UniformWalk(), 4, starts=starts, shards=4)
        caplog.set_level(logging.WARNING, logger="repro.runtime.scheduler")
        timed = engine.run(
            UniformWalk(), 4, starts=starts, shards=4,
            retry=RetryPolicy(shard_timeout_s=threading.TIMEOUT_MAX),
            faults=[InjectedFault(shard=3, fail_attempts=0, delay_s=0.2)],
        )
        assert timed.ok
        np.testing.assert_array_equal(timed.paths, clean.paths)
        np.testing.assert_array_equal(timed.lengths, clean.lengths)
        assert [r.getMessage() for r in caplog.records] == []


class TestCLI:
    def _make_graph(self, tmp_path):
        bundle = tmp_path / "g.npz"
        assert cli_main(
            ["generate", "rmat", str(bundle), "--vertices-log2", "7"]
        ) == 0
        return bundle

    def test_no_strict_partial_run_records_failure(self, tmp_path, capsys):
        bundle = self._make_graph(tmp_path)
        metrics = tmp_path / "metrics.jsonl"
        capsys.readouterr()
        assert cli_main([
            "walk", str(bundle), "--algorithm", "uniform", "--length", "4",
            "--queries", "32", "--shards", "4", "--no-strict",
            "--inject-fault", "2:-1", "--metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "shard 2 failed after 1 attempt(s)" in out
        record = json.loads(metrics.read_text().splitlines()[-1])
        assert record["summary"]["strict"] is False
        (failure,) = record["summary"]["failures"]
        assert failure["shard"] == 2
        assert record["summary"]["executed_queries"] < record["summary"]["num_queries"]
        assert record["manifest"]["failures"]

    def test_strict_fault_is_one_line_error(self, tmp_path, capsys):
        bundle = self._make_graph(tmp_path)
        capsys.readouterr()
        code = cli_main([
            "walk", str(bundle), "--algorithm", "uniform", "--length", "4",
            "--queries", "16", "--shards", "2", "--inject-fault", "0",
        ])
        assert code != 0

    def test_retry_flag_recovers_transient_fault(self, tmp_path, capsys):
        bundle = self._make_graph(tmp_path)
        capsys.readouterr()
        assert cli_main([
            "walk", str(bundle), "--algorithm", "uniform", "--length", "4",
            "--queries", "16", "--shards", "2", "--retries", "1",
            "--inject-fault", "1:1",
        ]) == 0
        assert "failed after" not in capsys.readouterr().out

    def test_bad_fault_spec_rejected(self, tmp_path):
        bundle = self._make_graph(tmp_path)
        with pytest.raises(SystemExit):
            cli_main([
                "walk", str(bundle), "--algorithm", "uniform", "--length", "4",
                "--queries", "8", "--inject-fault", "nope",
            ])


def test_injected_fault_error_is_not_a_repro_error():
    """Injected faults must exercise the generic isolation path."""
    from repro.errors import ReproError

    assert not issubclass(InjectedFaultError, ReproError)
