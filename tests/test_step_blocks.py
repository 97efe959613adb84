"""Property tests of the blocked walk kernel and Node2Vec's membership test.

Random multigraphs with repeated edges, a self-loop, a sink and one hub
whose degree exceeds the smaller edge budgets:

* the smaller-side membership test equals brute-force ``has_edge`` for
  every candidate edge, whichever side each query searches from;
* ``run_walks`` returns the same paths, lengths and step records whatever
  the step block budget;
* Node2Vec rows of ``run_walks`` equal the scalar ``walk_single_query``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_list
from repro.graph.labels import assign_random_weights, assign_vertex_labels
from repro.walks import stepper
from repro.walks.base import gather_step
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk, connected_to_previous
from repro.walks.stepper import (
    InverseTransformSampler,
    PWRSSampler,
    run_walks,
    walk_single_query,
)
from repro.walks.uniform import UniformWalk

#: Budgets compared: one query per block, blocks the hub overflows, one block.
BUDGETS = (1, 16, 1 << 40)


@st.composite
def multigraphs(draw):
    """Vertex 0 is the hub, vertex 1 has a self-loop and a repeated edge,
    vertex ``n - 1`` is a sink; edges repeat freely."""
    n = draw(st.integers(3, 14))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 2), st.integers(0, n - 1)), max_size=50)
    )
    hub = draw(st.lists(st.integers(0, n - 1), min_size=BUDGETS[1] + 1, max_size=40))
    edges = pairs + [(0, v) for v in hub] + [(1, 1), (1, 2), (1, 2)]
    graph = from_edge_list(np.asarray(edges, dtype=np.int64), num_vertices=n)
    seed = draw(st.integers(0, 2**16))
    graph = assign_vertex_labels(graph, n_labels=2, seed=seed)
    return assign_random_weights(graph, seed=seed)


@given(
    graph=multigraphs(),
    pairs=st.lists(st.tuples(st.integers(0, 13), st.integers(-1, 13)), min_size=1, max_size=12),
)
@settings(max_examples=120, deadline=None)
def test_smaller_side_membership_matches_has_edge(graph, pairs):
    n = graph.num_vertices
    pairs = [(u % n, v if v < 0 else v % n) for u, v in pairs]
    # Each pair also walked the other way round, so that a query whose
    # previous vertex has the smaller adjacency meets its mirror image.
    pairs += [(v, u) for u, v in pairs if v >= 0]
    curr = np.array([u for u, _ in pairs])
    prev = np.array([v for _, v in pairs])
    ctx = gather_step(
        graph, 1, curr, prev, graph.col_index, graph.edge_weights, graph.edge_keys()
    )
    owners = prev[ctx.edge_query]
    expected = [u >= 0 and graph.has_edge(u, v) for u, v in zip(owners, ctx.dst)]
    np.testing.assert_array_equal(connected_to_previous(ctx), expected)


def _walk(graph, starts, n_steps, algorithm, make_sampler, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepper, "STEP_BLOCK_EDGES", budget)
        return run_walks(graph, starts, n_steps, algorithm, make_sampler())


CASES = {
    "uniform": (UniformWalk, lambda k, seed: PWRSSampler(k=k, seed=seed)),
    "metapath": (lambda: MetaPathWalk([0, 1]), lambda k, seed: PWRSSampler(k=k, seed=seed)),
    "node2vec": (lambda: Node2VecWalk(2.0, 0.5), lambda k, seed: PWRSSampler(k=k, seed=seed)),
    "node2vec-inverse-transform": (
        lambda: Node2VecWalk(2.0, 0.5),
        lambda k, seed: InverseTransformSampler(seed=seed),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@given(
    graph=multigraphs(),
    starts=st.lists(st.integers(0, 13), min_size=1, max_size=12),
    n_steps=st.integers(1, 8),
    k=st.sampled_from([1, 4, 16]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_walks_do_not_depend_on_block_budget(case, graph, starts, n_steps, k, seed):
    make_algorithm, make_sampler = CASES[case]
    starts = np.array(starts) % graph.num_vertices
    sessions = [
        _walk(graph, starts, n_steps, make_algorithm(), lambda: make_sampler(k, seed), budget)
        for budget in BUDGETS
    ]
    reference = sessions[0]
    for session in sessions[1:]:
        np.testing.assert_array_equal(session.paths, reference.paths)
        np.testing.assert_array_equal(session.lengths, reference.lengths)
        assert len(session.records) == len(reference.records)
        for got, want in zip(session.records, reference.records):
            assert got.step == want.step
            for name in ("query_ids", "curr", "degrees", "prev", "prev_degrees", "next_vertex"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)


@given(
    graph=multigraphs(),
    starts=st.lists(st.integers(0, 13), min_size=1, max_size=8),
    n_steps=st.integers(1, 8),
    k=st.sampled_from([1, 4, 16]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_node2vec_rows_match_walk_single_query(graph, starts, n_steps, k, seed):
    starts = np.array(starts) % graph.num_vertices
    algorithm = Node2VecWalk(2.0, 0.5)
    session = _walk(
        graph, starts, n_steps, algorithm, lambda: PWRSSampler(k=k, seed=seed), BUDGETS[1]
    )
    for q, start in enumerate(starts):
        expected = walk_single_query(
            graph, int(start), n_steps, algorithm, k=k, seed=seed, query_id=q
        )
        np.testing.assert_array_equal(session.path(q), expected)
