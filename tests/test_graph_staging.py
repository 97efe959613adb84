"""The graph's hot-path arrays are staged once, read-only, and never pickled.

``CSRGraph`` builds its int64 ``col_index64``, float64 ``edge_weights64``
and sorted ``edge_keys()`` on first use and keeps them; its own arrays are
read-only so those copies cannot go stale.  A sharded run therefore stages
each array once per graph, not once per shard or per run.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import LightRW
from repro.core import make_queries
from repro.graph.csr import CSRGraph
from repro.graph.generators import chung_lu_graph
from repro.graph.labels import assign_random_weights
from repro.walks import Node2VecWalk


def _graph() -> CSRGraph:
    graph = chung_lu_graph(192, avg_degree=8.0, seed=21, directed=False, name="staging")
    return assign_random_weights(graph, seed=22)


def _count_builds(patch, name: str) -> list:
    """Record every call of the builder behind the cached ``CSRGraph.<name>``."""
    prop = vars(CSRGraph)[name]
    build = prop.func
    calls = []

    def counted(graph):
        calls.append(graph)
        return build(graph)

    patch.setattr(prop, "func", counted)
    return calls


def test_sharded_runs_stage_the_graph_once():
    graph = _graph()
    engine = LightRW(graph, hardware_scale=64, seed=3)
    starts = make_queries(graph, n_queries=64, seed=3)
    with pytest.MonkeyPatch.context() as patch:
        keys = _count_builds(patch, "_edge_keys")
        columns = _count_builds(patch, "col_index64")
        first = engine.run(Node2VecWalk(), 10, starts=starts, shards=16)
        assert (len(keys), len(columns)) == (1, 1)
        second = engine.run(Node2VecWalk(), 10, starts=starts, shards=16)
        assert (len(keys), len(columns)) == (1, 1)
    np.testing.assert_array_equal(first.paths, second.paths)


def test_graph_and_staged_arrays_are_read_only():
    graph = _graph()
    for array in (
        graph.row_index,
        graph.col_index,
        graph.edge_weights,
        graph.degrees,
        graph.col_index64,
        graph.edge_weights64,
        graph.edge_keys(),
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_building_a_graph_leaves_the_callers_arrays_writeable():
    row_index = np.array([0, 1, 2], dtype=np.int64)
    col_index = np.array([1, 0], dtype=np.uint32)
    graph = CSRGraph(row_index, col_index)
    assert not graph.col_index.flags.writeable
    assert row_index.flags.writeable and col_index.flags.writeable


def test_staged_arrays_are_not_pickled():
    graph = _graph()
    size = len(pickle.dumps(graph))
    graph.edge_keys()
    graph.edge_weights64
    assert len(pickle.dumps(graph)) == size
    restored = pickle.loads(pickle.dumps(graph))
    assert not restored.col_index.flags.writeable
    np.testing.assert_array_equal(restored.edge_keys(), graph.edge_keys())
