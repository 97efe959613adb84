"""Grouped walking: the scheduler walks runs of shards with one call each.

Sequential and thread runs walk each group of consecutive pending shards
with one ``backend.execute`` call and cut the session back into one report
per shard.  These tests pin what that must never change:

* cutting a session at any rows and re-merging it rebuilds every record,
  and each part is exactly what walking its rows alone records;
* a restored middle shard splits the pending shards into two runs and the
  resumed result is byte-identical to an uninterrupted run;
* a backend that refuses groups still yields identical walks through the
  per-shard fallback, with no retry counted and every shard checkpointed;
* a group's timeout budget scales with its member count;
* every shard keeps a ``shard`` span, and a thread run records one
  ``group`` span per worker;
* the default pool width counts the CPUs in the affinity mask.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LightRW, Observer
from repro.core.queries import make_queries
from repro.graph.builders import from_edge_list
from repro.obs import use_observer
from repro.runtime import BatchScheduler, InjectedFault, RetryPolicy, plan_run
from repro.runtime import scheduler as scheduler_module
from repro.runtime.backends import FPGAModelBackend, merge_sessions, slice_session
from repro.runtime.durability import RunCheckpoint
from repro.walks.node2vec import Node2VecWalk
from repro.walks.ppr import RestartWalk
from repro.walks.stepper import PWRSSampler, run_walks
from repro.walks.uniform import UniformWalk
from tests.helpers import assert_same, assert_same_result

ALGORITHMS = st.sampled_from([UniformWalk(), Node2VecWalk(2.0, 0.5), RestartWalk(0.3)])


def _sinky_graph():
    """A directed graph where some walks die early, so parts lose steps."""
    rng = np.random.default_rng(21)
    edges = rng.integers(0, 96, size=(400, 2))
    return from_edge_list(edges[edges[:, 0] % 7 != 0], num_vertices=96, name="sinky")


SINKY = _sinky_graph()


@given(
    algorithm=ALGORITHMS,
    n_queries=st.integers(1, 40),
    n_steps=st.integers(0, 12),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_slices_remerge_to_the_session(algorithm, n_queries, n_steps, seed, data):
    starts = make_queries(SINKY, n_queries=n_queries, seed=seed)
    session = run_walks(SINKY, starts, n_steps, algorithm, PWRSSampler(8, seed))
    cuts = data.draw(st.lists(st.integers(0, n_queries), max_size=6))
    bounds = [0, *sorted(cuts), n_queries]
    parts = [slice_session(session, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert_same(merge_sessions(parts, SINKY), session, "remerged")
    for lo, hi, part in zip(bounds, bounds[1:], parts):
        alone = run_walks(
            SINKY, starts[lo:hi], n_steps, algorithm, PWRSSampler(8, seed),
            query_ids=np.arange(lo, hi, dtype=np.int64),
        )
        assert_same(part, alone, f"rows {lo}:{hi}")


@pytest.fixture
def engine(labeled_graph):
    return LightRW(labeled_graph, hardware_scale=64, seed=3)


@pytest.fixture
def starts(labeled_graph):
    return make_queries(labeled_graph, n_queries=64, seed=4)


def _groups(observer):
    """(first, last) shard index of every ``group`` span."""
    return sorted(
        (s.attrs["first"], s.attrs["first"] + s.attrs["shards"] - 1)
        for s in observer.spans.find("group")
    )


def test_restored_middle_shard_splits_the_runs(engine, starts, tmp_path):
    common = dict(starts=starts, shards=8, mode="thread", workers=2)
    baseline = engine.run(Node2VecWalk(), 6, **common)
    directory = tmp_path / "ck"
    engine.run(Node2VecWalk(), 6, checkpoint_dir=directory, **common)
    for path in directory.glob("shard-*.ckpt"):
        if path.name != "shard-0003.ckpt":
            path.unlink()
    observer = Observer()
    resumed = engine.run(
        Node2VecWalk(), 6, checkpoint_dir=directory, resume=True,
        observer=observer, **common,
    )
    assert resumed.resumed_shards == 1
    assert_same_result(resumed, baseline, ignore=("resumed_shards",))
    # Runs [0, 2] and [4, 7], each cut into at most two groups.
    assert _groups(observer) == [(1, 2), (4, 5), (6, 7)]
    assert len(list(directory.glob("shard-*.ckpt"))) == 8


class RefusesGroups(FPGAModelBackend):
    """Raises whenever it is handed a shard spanning several plan shards."""

    refused = 0

    def execute(self, plan, shard):
        (planned,) = [s for s in plan.shards if s.index == shard.index]
        if shard.num_queries != planned.num_queries:
            type(self).refused += 1
            raise RuntimeError("handed a group")
        return super().execute(plan, shard)


class SlowGroups(FPGAModelBackend):
    """Sleeps ``delay_s`` whenever it is handed a group of shards."""

    delay_s = 0.0

    def execute(self, plan, shard):
        (planned,) = [s for s in plan.shards if s.index == shard.index]
        if shard.num_queries != planned.num_queries:
            time.sleep(self.delay_s)
        return super().execute(plan, shard)


def _execute(engine, starts, backend_cls, mode, checkpoint=None, **scheduler):
    plan = plan_run("fpga-model", Node2VecWalk(), 6, starts, shards=8, seed=3)
    observer = Observer()
    with use_observer(observer):
        outcome = BatchScheduler(mode=mode, max_workers=2, **scheduler).execute(
            backend_cls(engine.runtime_context()), plan, checkpoint
        )
    return outcome, observer


@pytest.mark.parametrize("mode", ["sequential", "thread"])
def test_refused_group_falls_back_per_shard(engine, starts, mode, tmp_path):
    baseline = engine.run(Node2VecWalk(), 6, starts=starts, shards=8)
    plan = plan_run("fpga-model", Node2VecWalk(), 6, starts, shards=8, seed=3)
    checkpoint = RunCheckpoint.open(tmp_path / "ck", plan, seed=3)
    RefusesGroups.refused = 0
    outcome, observer = _execute(engine, starts, RefusesGroups, mode, checkpoint)
    assert RefusesGroups.refused == (1 if mode == "sequential" else 2)
    assert outcome.ok and outcome.retries == 0
    assert observer.metrics.total("run.retries") == 0
    assert observer.metrics.total("run.checkpoints") == 8
    assert len(list((tmp_path / "ck").glob("shard-*.ckpt"))) == 8
    np.testing.assert_array_equal(outcome.report.paths, baseline.paths)
    np.testing.assert_array_equal(outcome.report.lengths, baseline.lengths)
    assert outcome.report.kernel_s == baseline.kernel_s


def test_group_timeout_scales_with_members(engine, starts):
    baseline = engine.run(Node2VecWalk(), 6, starts=starts, shards=8)
    retry = RetryPolicy(shard_timeout_s=0.5)  # a group of 4 gets 2 s
    SlowGroups.delay_s = 1.0
    outcome, observer = _execute(engine, starts, SlowGroups, "thread", retry=retry)
    assert outcome.ok and _groups(observer) == [(0, 3), (4, 7)]
    assert all(s.attrs["attempt"] == 1 for s in observer.spans.find("shard"))
    SlowGroups.delay_s = 3.0
    outcome, observer = _execute(engine, starts, SlowGroups, "thread", retry=retry)
    # Both groups timed out; every shard then walked alone, in budget.
    assert outcome.ok and outcome.retries == 0
    assert len(observer.spans.find("shard")) == 8
    np.testing.assert_array_equal(outcome.report.paths, baseline.paths)


@pytest.mark.parametrize("mode, groups", [("sequential", 1), ("thread", 2)])
def test_every_shard_keeps_its_span(engine, starts, mode, groups):
    observer = Observer()
    engine.run(
        UniformWalk(), 4, starts=starts, shards=16, mode=mode, workers=2,
        observer=observer,
    )
    shards = observer.spans.find("shard")
    assert sorted(s.attrs["shard"] for s in shards) == list(range(16))
    assert all(s.attrs["attempt"] == 1 for s in shards)
    assert len(observer.spans.find("group")) == groups
    assert len(observer.spans.find("walk")) == groups


def test_faulted_shards_walk_alone(engine, starts):
    observer = Observer()
    result = engine.run(
        UniformWalk(), 4, starts=starts, shards=8, observer=observer,
        faults=[InjectedFault(shard=2, fail_attempts=0), InjectedFault(shard=6)],
        retry=RetryPolicy(max_attempts=2),
    )
    assert result.ok
    assert _groups(observer) == [(0, 1), (3, 5)]
    assert observer.metrics.total("run.retries") == 1  # shard 6 only


@pytest.mark.parametrize("affinity, cpus, width", [({0, 1, 2}, 64, 3), (None, 5, 5)])
def test_default_pool_width_follows_affinity(
    engine, starts, monkeypatch, affinity, cpus, width
):
    if affinity is None:
        monkeypatch.delattr(scheduler_module.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(
            scheduler_module.os, "sched_getaffinity", lambda pid: affinity,
            raising=False,
        )
    monkeypatch.setattr(scheduler_module.os, "cpu_count", lambda: cpus)
    observer = Observer()
    engine.run(
        UniformWalk(), 4, starts=starts, shards=16, mode="thread", observer=observer
    )
    assert len(observer.spans.find("group")) == width
