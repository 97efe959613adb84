"""Property tests of the blocked walk kernel and Node2Vec's membership test.

Random multigraphs with repeated edges, a self-loop, a sink and one hub
whose degree exceeds the smaller edge budgets, weighted either in the
paper's ``[1, 4)`` range or across the whole fixed-point domain:

* the smaller-side membership test equals brute-force ``has_edge`` for
  every candidate edge, whichever side each query searches from;
* Node2Vec's weights equal a scalar per-edge evaluation of Equation 2,
  weighted or not, first steps mixed in;
* ``run_walks`` returns the same paths, lengths and step records whatever
  the step block budget, for both samplers, restart walks included;
* Node2Vec rows of ``run_walks`` equal the scalar ``walk_single_query``
  (PWRS) and a per-query loop over ``InverseTransformTable``;
* the constant-weight PWRS path (a stride-0 weight view, as
  :class:`UniformWalk` returns) equals the generic path fed an explicit
  array of the same value, for any ``k``, block budget and shard split;
* every lazily built :class:`StepContext` field equals its definition, and
  a step builds only the fields its algorithm reads.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_list
from repro.graph.labels import assign_random_weights, assign_vertex_labels
from repro.sampling import InverseTransformTable, ThundeRingRNG, derive_seed
from repro.walks import stepper
from repro.walks.base import StepContext, gather_step, quantize_weights
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk, connected_to_previous
from repro.walks.ppr import RestartWalk
from repro.walks.static import StaticWalk
from repro.walks.stepper import (
    InverseTransformSampler,
    PWRSSampler,
    run_walks,
    walk_single_query,
)
from repro.walks.uniform import UniformWalk
from tests.helpers import HEAVIEST_WEIGHT, domain_weighted

#: Budgets compared: one query per block, blocks the hub overflows, one block.
BUDGETS = (1, 16, 1 << 40)

#: Node2Vec(2, 0.5) scales a static weight by up to ``1/q = 2``.
N2V_HEAVIEST = HEAVIEST_WEIGHT / 2


@st.composite
def multigraphs(draw, heaviest=HEAVIEST_WEIGHT):
    """Vertex 0 is the hub, vertex 1 has a self-loop and a repeated edge,
    vertex ``n - 1`` is a sink; edges repeat freely.  Weights are either
    random in ``[1, 4)`` or spread over the domain up to ``heaviest``."""
    n = draw(st.integers(3, 14))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 2), st.integers(0, n - 1)), max_size=50)
    )
    hub = draw(st.lists(st.integers(0, n - 1), min_size=BUDGETS[1] + 1, max_size=40))
    edges = pairs + [(0, v) for v in hub] + [(1, 1), (1, 2), (1, 2)]
    graph = from_edge_list(np.asarray(edges, dtype=np.int64), num_vertices=n)
    seed = draw(st.integers(0, 2**16))
    graph = assign_vertex_labels(graph, n_labels=2, seed=seed)
    if draw(st.booleans()):
        return draw(domain_weighted(graph, heaviest))
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
    ctx = gather_step(graph, 1, curr, prev)
    owners = prev[np.repeat(np.arange(curr.size), ctx.degrees)]
    expected = [u >= 0 and graph.has_edge(u, v) for u, v in zip(owners, ctx.dst)]
    np.testing.assert_array_equal(_mask(ctx, connected_to_previous(ctx)), expected)


def _mask(ctx, indices):
    """Block indices as a per-candidate-edge bool mask."""
    mask = np.zeros(ctx.n_edges, dtype=bool)
    mask[indices] = True
    return mask


#: (p, q) pairs: the paper's, its mirror, the first-order walk, inexact reciprocals.
N2V_PARAMETERS = [(2.0, 0.5), (0.5, 2.0), (1.0, 1.0), (3.0, 0.7)]


@given(
    graph=multigraphs(heaviest=N2V_HEAVIEST),
    pairs=st.lists(st.tuples(st.integers(0, 13), st.integers(-1, 13)), min_size=1, max_size=12),
    weighted=st.booleans(),
    pq=st.sampled_from(N2V_PARAMETERS),
)
@settings(max_examples=120, deadline=None)
def test_node2vec_weights_match_scalar_reference(graph, pairs, weighted, pq):
    n = graph.num_vertices
    if not weighted:
        graph = dataclasses.replace(graph, edge_weights=None)
    pairs = [(u % n, v if v < 0 else v % n) for u, v in pairs]
    pairs += [(v, u) for u, v in pairs if v >= 0]
    # The hub 0 and vertex 1 (a self-loop, a repeated edge) met from both
    # sides of the smaller-side split, a first step and the sink.
    pairs += [(0, 1), (1, 0), (1, 1), (1, -1), (n - 1, 1)]
    curr = np.array([u for u, _ in pairs])
    prev = np.array([v for _, v in pairs])
    p, q = pq
    ctx = gather_step(graph, 1, curr, prev)
    expected = []
    for a, u in pairs:
        lo, hi = graph.neighbor_slice(a)
        for pos in range(lo, hi):
            b = int(graph.col_index[pos])
            w_star = 1.0 if graph.edge_weights is None else float(graph.edge_weights[pos])
            if u < 0:
                expected.append(w_star)
            elif b == u:
                expected.append(w_star * (1.0 / p))
            elif graph.has_edge(u, b):
                expected.append(w_star * 1.0)
            else:
                expected.append(w_star * (1.0 / q))
    np.testing.assert_array_equal(Node2VecWalk(p, q).dynamic_weights(ctx), expected)


def _walk(graph, starts, n_steps, algorithm, make_sampler, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepper, "STEP_BLOCK_EDGES", budget)
        return run_walks(graph, starts, n_steps, algorithm, make_sampler())


def _pwrs(k, seed):
    return PWRSSampler(k=k, seed=seed)


def _itx(k, seed):
    return InverseTransformSampler(seed=seed)


#: name -> (algorithm, sampler, heaviest static weight the algorithm admits)
CASES = {
    "uniform": (UniformWalk, _pwrs, HEAVIEST_WEIGHT),
    "static": (StaticWalk, _pwrs, HEAVIEST_WEIGHT),
    "static-inverse-transform": (StaticWalk, _itx, HEAVIEST_WEIGHT),
    "metapath": (lambda: MetaPathWalk([0, 1]), _pwrs, HEAVIEST_WEIGHT),
    "node2vec": (lambda: Node2VecWalk(2.0, 0.5), _pwrs, N2V_HEAVIEST),
    "node2vec-inverse-transform": (lambda: Node2VecWalk(2.0, 0.5), _itx, N2V_HEAVIEST),
    "restart": (lambda: RestartWalk(0.3), _pwrs, HEAVIEST_WEIGHT),
}


@pytest.mark.parametrize("case", sorted(CASES))
@given(
    data=st.data(),
    starts=st.lists(st.integers(0, 13), min_size=1, max_size=12),
    n_steps=st.integers(1, 8),
    k=st.sampled_from([1, 4, 16]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_walks_do_not_depend_on_block_budget(case, data, starts, n_steps, k, seed):
    make_algorithm, make_sampler, heaviest = CASES[case]
    graph = data.draw(multigraphs(heaviest), label="graph")
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
    graph=multigraphs(N2V_HEAVIEST),
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


def _table_walk(graph, start, n_steps, algorithm, seed, query_id):
    """One query walked by the scalar fixed-point table: one 32-bit draw of
    a one-lane ThundeRiNG per step."""
    rng = ThundeRingRNG(1, derive_seed(seed, query_id))
    path, curr, prev = [start], start, -1
    for step in range(n_steps):
        if graph.degree(curr) == 0:
            break
        ctx = gather_step(graph, step, np.array([curr]), np.array([prev]))
        table = InverseTransformTable(quantize_weights(algorithm.dynamic_weights(ctx)))
        chosen = table.sample(int(rng.next_uint32()[0]))
        if chosen < 0:
            break
        prev, curr = curr, int(ctx.dst[chosen])
        path.append(curr)
    return np.asarray(path, dtype=np.int64)


@given(
    graph=multigraphs(N2V_HEAVIEST),
    starts=st.lists(st.integers(0, 13), min_size=1, max_size=8),
    n_steps=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_inverse_transform_rows_match_table(graph, starts, n_steps, seed):
    starts = np.array(starts) % graph.num_vertices
    algorithm = Node2VecWalk(2.0, 0.5)
    session = _walk(
        graph, starts, n_steps, algorithm, lambda: InverseTransformSampler(seed), BUDGETS[1]
    )
    for q, start in enumerate(starts):
        expected = _table_walk(graph, int(start), n_steps, algorithm, seed, q)
        np.testing.assert_array_equal(session.path(q), expected)


class ConstantWalk(UniformWalk):
    """Every edge weighs ``value``: a stride-0 view, or an explicit array."""

    def __init__(self, value: float, explicit: bool) -> None:
        self.value = value
        self.explicit = explicit

    def dynamic_weights(self, ctx):
        if self.explicit:
            return np.full(ctx.n_edges, self.value)
        return np.broadcast_to(np.float64(self.value), (ctx.n_edges,))


def _assert_sessions_equal(got, want):
    np.testing.assert_array_equal(got.paths, want.paths)
    np.testing.assert_array_equal(got.lengths, want.lengths)
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert a.step == b.step
        for name in ("query_ids", "curr", "degrees", "prev", "prev_degrees", "next_vertex"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, name
            np.testing.assert_array_equal(x, y, err_msg=name)


@given(
    graph=multigraphs(),
    starts=st.lists(st.integers(0, 13), min_size=1, max_size=12),
    n_steps=st.integers(1, 8),
    k=st.sampled_from([1, 3, 10, 16, 32]),
    seed=st.integers(0, 2**16),
    value=st.sampled_from([1.0, 0.3, 7.0, 0.0]),
)
@settings(max_examples=40, deadline=None)
def test_constant_weight_path_matches_explicit_array(graph, starts, n_steps, k, seed, value):
    starts = np.array(starts) % graph.num_vertices
    query_ids = np.arange(starts.size)
    viewed = UniformWalk() if value == 1.0 else ConstantWalk(value, explicit=False)
    for shards in (1, 4):
        for ids in np.array_split(query_ids, shards):
            for budget in BUDGETS:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(stepper, "STEP_BLOCK_EDGES", budget)
                    constant, explicit = (
                        run_walks(
                            graph,
                            starts[ids],
                            n_steps,
                            algorithm,
                            PWRSSampler(k=k, seed=seed),
                            query_ids=ids,
                        )
                        for algorithm in (viewed, ConstantWalk(value, explicit=True))
                    )
                _assert_sessions_equal(constant, explicit)


@given(
    graph=multigraphs(),
    curr=st.lists(st.integers(0, 13), min_size=1, max_size=12),
    weighted=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_lazy_fields_equal_their_definitions(graph, curr, weighted):
    curr = np.array(curr) % graph.num_vertices
    if not weighted:
        graph = dataclasses.replace(graph, edge_weights=None)
    ctx = gather_step(graph, 0, curr, np.full(curr.size, -1))
    within, positions = [], []
    for v in curr.tolist():
        for i in range(graph.degree(v)):
            within.append(i)
            positions.append(int(graph.row_index[v]) + i)
    np.testing.assert_array_equal(ctx.within, within)
    np.testing.assert_array_equal(ctx.edge_positions, positions)
    np.testing.assert_array_equal(ctx.dst, graph.col_index[positions])
    assert ctx.dst.dtype == np.int64
    expected_weights = graph.edge_weights[positions] if weighted else np.ones(len(positions))
    np.testing.assert_array_equal(ctx.static_weights, expected_weights)
    assert ctx.static_weights.dtype == np.float64
    walkable = np.flatnonzero(ctx.degrees > 0)
    chosen = np.full(curr.size, -1)
    chosen[walkable] = (ctx.degrees[walkable] - 1) // 2
    expected_next = np.full(curr.size, -1)
    expected_next[walkable] = ctx.dst[ctx.seg_starts[walkable] + chosen[walkable]]
    np.testing.assert_array_equal(ctx.next_vertices(chosen), expected_next)


def _forbid(patch, *names):
    """Make reading the given lazy StepContext fields fail."""

    def refuse(name):
        def read(self):
            raise AssertionError(f"step built StepContext.{name}")

        return property(read)

    for name in names:
        patch.setattr(StepContext, name, refuse(name))


@pytest.mark.parametrize("sampler", ["pwrs", "inverse-transform"])
@given(graph=multigraphs())
@settings(max_examples=20, deadline=None)
def test_uniform_step_builds_no_per_edge_field(sampler, graph):
    starts = np.arange(graph.num_vertices)
    make = {"pwrs": lambda: PWRSSampler(k=3, seed=1), "inverse-transform": InverseTransformSampler}
    with pytest.MonkeyPatch.context() as patch:
        _forbid(patch, "within", "dst", "edge_positions", "static_weights")
        session = run_walks(graph, starts, 6, UniformWalk(), make[sampler]())
    assert session.total_steps > 0


@given(graph=multigraphs())
@settings(max_examples=20, deadline=None)
def test_unweighted_node2vec_step_builds_no_per_edge_field(graph):
    graph = dataclasses.replace(graph, edge_weights=None)
    starts = np.arange(graph.num_vertices)
    with pytest.MonkeyPatch.context() as patch:
        _forbid(patch, "dst", "edge_positions", "within")
        session = run_walks(graph, starts, 6, Node2VecWalk(2.0, 0.5), PWRSSampler(k=3, seed=1))
    assert session.total_steps > 0
