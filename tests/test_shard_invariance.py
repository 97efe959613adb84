"""Modeled outputs do not depend on host execution settings.

Shards parallelize the walk; the cost model runs once on the merged walk.
So for any shard count and execution mode, a run returns the same paths,
the same modeled numbers (``kernel_s``, ``total_steps``, latencies, the
breakdown) and records the same modeled metrics as a sequential one-shard
run of the same plan — for weights in the paper's range and for weights
spread across the whole fixed-point domain.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LightRW, Observer
from repro.core.queries import make_queries, sample_queries
from repro.fpga.perfmodel import FPGAPerfModel
from repro.graph.builders import from_edge_list
from repro.graph.generators import chung_lu_graph
from repro.graph.labels import assign_random_weights
from repro.runtime import EXECUTION_MODES
from repro.walks.node2vec import Node2VecWalk
from repro.walks.ppr import RestartWalk
from repro.walks.static import StaticWalk
from repro.walks.stepper import PWRSSampler, run_walks
from tests.helpers import (
    HEAVIEST_WEIGHT,
    assert_same,
    assert_same_result,
    domain_weighted,
    modeled_metrics,
)

SHARDS = st.sampled_from([1, 2, 4, 16])


@lru_cache(maxsize=1)
def _graph():
    graph = chung_lu_graph(192, avg_degree=8.0, seed=11, directed=False, name="inv")
    return assign_random_weights(graph, seed=12)


def _observed(call):
    observer = Observer()
    return call(observer), observer


def _assert_invariant(got, got_obs, want, want_obs) -> None:
    assert_same(got.breakdown.components(), want.breakdown.components(), "components")
    # The manifest records the shard count itself; everything else matches.
    assert_same_result(got, want, ignore=("manifest",))
    assert modeled_metrics(got_obs) == modeled_metrics(want_obs)
    assert modeled_metrics(want_obs)


#: The paper-range graph, or the same graph weighted across the domain up
#: to what Node2Vec's ``1/q = 2`` keeps inside it.
GRAPHS = st.one_of(st.builds(_graph), domain_weighted(_graph(), HEAVIEST_WEIGHT / 2))


@pytest.mark.parametrize("mode", EXECUTION_MODES)
@pytest.mark.parametrize("backend", ["fpga-model", "cpu-baseline"])
@given(shards=SHARDS, seed=st.integers(0, 2**16), graph=GRAPHS)
@settings(max_examples=10, deadline=None)
def test_walk_runs_match_one_sequential_shard(backend, mode, shards, seed, graph):
    engine = LightRW(graph, backend=backend, hardware_scale=64, seed=seed)
    # More queries than are walked: the single cost stage extrapolates.
    starts = make_queries(engine.graph, n_queries=120, seed=seed)

    def run(observer, **kwargs):
        return engine.run(
            Node2VecWalk(), 6, starts=starts, max_sampled_queries=40,
            observer=observer, **kwargs,
        )

    want, want_obs = _observed(run)
    got, got_obs = _observed(
        lambda obs: run(obs, shards=shards, mode=mode, workers=2)
    )
    _assert_invariant(got, got_obs, want, want_obs)


@pytest.mark.parametrize("mode", EXECUTION_MODES)
@given(shards=SHARDS, seed=st.integers(0, 2**16), alpha=st.sampled_from([0.1, 0.4]))
@settings(max_examples=8, deadline=None)
def test_restart_runs_match_one_sequential_shard(mode, shards, seed, alpha):
    engine = LightRW(_graph(), hardware_scale=64, seed=seed)
    starts = make_queries(engine.graph, n_queries=48, seed=seed)

    def run(observer, **kwargs):
        return engine.run(
            RestartWalk(alpha), 8, starts=starts, observer=observer, **kwargs
        )

    want, want_obs = _observed(run)
    got, got_obs = _observed(
        lambda obs: run(obs, shards=shards, mode=mode, workers=2)
    )
    _assert_invariant(got, got_obs, want, want_obs)


@pytest.mark.parametrize("mode", EXECUTION_MODES)
@pytest.mark.parametrize("shards", [1, 4])
def test_restart_run_matches_direct_reference(mode, shards):
    """``run(RestartWalk(a))`` is ``run_walks`` plus one cost model."""
    alpha, n_steps, seed = 0.4, 8, 5
    engine = LightRW(_graph(), hardware_scale=64, seed=seed)
    starts = make_queries(engine.graph, n_queries=120, seed=seed)
    got = engine.run(
        RestartWalk(alpha), n_steps, starts=starts, max_sampled_queries=40,
        shards=shards, mode=mode, workers=2,
    )

    sampled, total = sample_queries(starts, 40, seed=seed)
    session = run_walks(
        engine.graph, sampled, n_steps, RestartWalk(alpha), PWRSSampler(engine.config.k, seed)
    )
    native = FPGAPerfModel(engine.config, RestartWalk(alpha)).evaluate(
        session, total_queries=total, record_latency=True
    )
    assert_same(got.paths, session.paths, "paths")
    assert_same(got.lengths, session.lengths, "lengths")
    assert got.total_steps == native.total_steps
    assert got.kernel_s == native.kernel_s
    assert_same(got.query_latency_s, native.query_latency_seconds(), "latency")


def test_heavy_segment_does_not_absorb_a_light_one():
    """Next to a heaviest-possible edge, tiny weights still count: the
    inverse-transform sampler walks the same paths in one shard or four."""
    graph = from_edge_list(
        np.array([[0, 2], [1, 0], [1, 2], [1, 3]]),
        num_vertices=4,
        weights=np.array([HEAVIEST_WEIGHT, 1e-9, 1e-9, 1e-9]),
    )
    engine = LightRW(graph, backend="cpu-baseline")
    starts = np.array([0, 1, 0, 1])
    one, four = (engine.run(StaticWalk(), 3, starts=starts, shards=n) for n in (1, 4))
    assert_same(four.paths, one.paths, "paths")
