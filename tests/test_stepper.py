"""The vectorized multi-query stepper: equivalence, validity, termination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.graph.builders import from_edge_list
from repro.graph.generators import chung_lu_graph, path_graph, star_graph
from repro.graph.labels import assign_vertex_labels
from repro.sampling.inverse_transform import InverseTransformTable
from repro.sampling.parallel_wrs import ParallelWRS
from repro.sampling.rng import ThundeRingRNG, derive_seed
from repro.walks.base import gather_step, quantize_weights
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.ppr import RestartWalk
from repro.walks.stepper import (
    InverseTransformSampler,
    PWRSSampler,
    run_walks,
    walk_single_query,
)
from repro.walks.uniform import UniformWalk
from repro.walks.static import StaticWalk


class TestGoldenEquivalence:
    """run_walks + PWRSSampler must be bit-identical to the scalar model."""

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_uniform_walk(self, labeled_graph, k):
        starts = labeled_graph.nonzero_degree_vertices()[:30]
        session = run_walks(
            labeled_graph, starts, 12, UniformWalk(), PWRSSampler(k=k, seed=3)
        )
        for q in range(starts.size):
            expected = walk_single_query(
                labeled_graph, int(starts[q]), 12, UniformWalk(), k=k, seed=3, query_id=q
            )
            np.testing.assert_array_equal(session.path(q), expected)

    @pytest.mark.parametrize("algorithm", [
        Node2VecWalk(2.0, 0.5),
        MetaPathWalk([0, 1, 2]),
        StaticWalk(),
    ], ids=["node2vec", "metapath", "static"])
    def test_dynamic_walks(self, labeled_graph, algorithm):
        starts = labeled_graph.nonzero_degree_vertices()[:30]
        session = run_walks(
            labeled_graph, starts, 8, algorithm, PWRSSampler(k=8, seed=17)
        )
        for q in range(starts.size):
            expected = walk_single_query(
                labeled_graph, int(starts[q]), 8, algorithm, k=8, seed=17, query_id=q
            )
            np.testing.assert_array_equal(session.path(q), expected)

    def test_determinism_across_runs(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:50]
        a = run_walks(labeled_graph, starts, 10, Node2VecWalk(), PWRSSampler(16, 5))
        b = run_walks(labeled_graph, starts, 10, Node2VecWalk(), PWRSSampler(16, 5))
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_seed_changes_walks(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:50]
        a = run_walks(labeled_graph, starts, 10, UniformWalk(), PWRSSampler(16, 1))
        b = run_walks(labeled_graph, starts, 10, UniformWalk(), PWRSSampler(16, 2))
        assert not np.array_equal(a.paths, b.paths)


class TestPathValidity:
    @pytest.mark.parametrize("sampler_cls", [PWRSSampler, InverseTransformSampler])
    def test_every_transition_is_an_edge(self, labeled_graph, sampler_cls):
        starts = labeled_graph.nonzero_degree_vertices()[:60]
        sampler = sampler_cls(seed=11) if sampler_cls is InverseTransformSampler else sampler_cls(k=16, seed=11)
        session = run_walks(labeled_graph, starts, 15, Node2VecWalk(), sampler)
        for q in range(starts.size):
            path = session.path(q)
            for u, v in zip(path[:-1], path[1:]):
                assert labeled_graph.has_edge(int(u), int(v)), (q, u, v)

    def test_lengths_match_padding(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:40]
        session = run_walks(labeled_graph, starts, 9, UniformWalk(), PWRSSampler(8, 2))
        for q in range(starts.size):
            length = session.lengths[q]
            assert (session.paths[q, : length + 1] >= 0).all()
            assert (session.paths[q, length + 1 :] == -1).all()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_walks_stay_on_graph(self, seed):
        graph = chung_lu_graph(128, avg_degree=6.0, seed=seed % 7, directed=False)
        starts = graph.nonzero_degree_vertices()[:20]
        if starts.size == 0:
            return
        session = run_walks(graph, starts, 6, UniformWalk(), PWRSSampler(4, seed))
        assert session.paths.max() < graph.num_vertices
        for q in range(starts.size):
            path = session.path(q)
            for u, v in zip(path[:-1], path[1:]):
                assert graph.has_edge(int(u), int(v))


class TestTermination:
    def test_sink_terminates_walk(self):
        graph = path_graph(4)  # 3 is a sink
        session = run_walks(graph, np.array([0]), 10, UniformWalk(), PWRSSampler(4, 0))
        np.testing.assert_array_equal(session.path(0), [0, 1, 2, 3])
        assert session.lengths[0] == 3

    def test_start_on_sink(self):
        graph = path_graph(3)
        session = run_walks(graph, np.array([2]), 5, UniformWalk(), PWRSSampler(4, 0))
        assert session.lengths[0] == 0
        np.testing.assert_array_equal(session.path(0), [2])

    def test_metapath_dead_end(self):
        """A schema no neighbor satisfies terminates the query."""
        graph = star_graph(4)
        graph = assign_vertex_labels(graph, n_labels=1, seed=0)
        # Schema requires label 5, which no vertex has -> dead end at step 0.
        walk = MetaPathWalk([0, 5])
        # Bypass label-range validation by crafting the schema within range:
        graph.vertex_labels[:] = 0
        session = run_walks(graph, np.array([0]), 5, walk, PWRSSampler(4, 1))
        assert session.lengths[0] == 0

    def test_zero_steps(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:5]
        session = run_walks(labeled_graph, starts, 0, UniformWalk(), PWRSSampler(4, 0))
        assert session.total_steps == 0
        assert session.paths.shape == (5, 1)


class TestTraceRecords:
    def test_records_are_consistent(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:25]
        session = run_walks(
            labeled_graph, starts, 6, Node2VecWalk(), PWRSSampler(8, 4)
        )
        for record in session.records:
            np.testing.assert_array_equal(
                record.degrees, labeled_graph.degrees[record.curr]
            )
            has_prev = record.prev >= 0
            np.testing.assert_array_equal(
                record.prev_degrees[has_prev],
                labeled_graph.degrees[record.prev[has_prev]],
            )
            assert (record.prev_degrees[~has_prev] == 0).all()
            # next_vertex either -1 or an actual neighbor of curr.
            moved = record.next_vertex >= 0
            for u, v in zip(record.curr[moved], record.next_vertex[moved]):
                assert labeled_graph.has_edge(int(u), int(v))

    def test_prev_tracks_path(self, labeled_graph):
        starts = labeled_graph.nonzero_degree_vertices()[:10]
        session = run_walks(labeled_graph, starts, 5, Node2VecWalk(), PWRSSampler(8, 6))
        for record in session.records[1:]:
            for idx, qid in enumerate(record.query_ids):
                step = record.step
                assert record.prev[idx] == session.paths[qid, step - 1]
                assert record.curr[idx] == session.paths[qid, step]


class TestValidationErrors:
    def test_bad_starts(self, labeled_graph):
        with pytest.raises(QueryError):
            run_walks(labeled_graph, np.array([-1]), 3, UniformWalk(), PWRSSampler(4, 0))
        with pytest.raises(QueryError):
            run_walks(
                labeled_graph,
                np.array([labeled_graph.num_vertices]),
                3,
                UniformWalk(),
                PWRSSampler(4, 0),
            )

    def test_negative_steps(self, labeled_graph):
        with pytest.raises(QueryError):
            run_walks(labeled_graph, np.array([0]), -1, UniformWalk(), PWRSSampler(4, 0))

    def test_scalar_reference_checks_inputs(self, labeled_graph):
        for start in (-1, labeled_graph.num_vertices):
            with pytest.raises(QueryError, match="out of range"):
                walk_single_query(labeled_graph, start, 5, UniformWalk(), 16, 0)
        with pytest.raises(QueryError, match="n_steps"):
            walk_single_query(labeled_graph, 0, -2, UniformWalk(), 16, 0)

    def test_restart_walks_check_inputs(self, labeled_graph):
        walk = RestartWalk(0.2)
        with pytest.raises(QueryError, match="out of range"):
            run_walks(labeled_graph, np.array([-1, 3]), 5, walk, PWRSSampler(16, 0))
        with pytest.raises(QueryError, match="n_steps"):
            run_walks(labeled_graph, np.array([0, 3]), -2, walk, PWRSSampler(16, 0))
        # The scalar reference has no restart coin, so it refuses the walk.
        with pytest.raises(QueryError, match="restart"):
            walk_single_query(labeled_graph, 0, 5, walk, 16, 0)

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    @pytest.mark.parametrize("sampler", [PWRSSampler, InverseTransformSampler])
    def test_samplers_refuse_weights_outside_the_fixed_point(self, sampler, bad):
        """Both samplers read weights through ``quantize_weights``."""

        class BadWalk(UniformWalk):
            def dynamic_weights(self, ctx):
                weights = np.ones(ctx.n_edges)
                weights[-1] = bad
                return weights

        graph = star_graph(4)
        with pytest.raises(ValueError, match="non-negative, not NaN"):
            run_walks(graph, np.array([0]), 2, BadWalk(), sampler())

    def test_sampler_requires_attach(self, labeled_graph):
        from repro.errors import ConfigError

        sampler = PWRSSampler(4, 0)
        with pytest.raises(ConfigError):
            sampler.select(None, None, None)


class TestInverseTransformSampler:
    def test_distribution_on_star(self):
        """From the hub of a weighted star, picks follow the weights."""
        edges = np.array([[0, 1], [0, 2], [0, 3]])
        weights = np.array([1.0, 2.0, 7.0], dtype=np.float32)
        graph = from_edge_list(edges, num_vertices=4, weights=weights)
        counts = np.zeros(4)
        starts = np.zeros(6000, dtype=np.int64)
        session = run_walks(graph, starts, 1, StaticWalk(), InverseTransformSampler(3))
        picked = session.paths[:, 1]
        for vertex in (1, 2, 3):
            counts[vertex] = (picked == vertex).sum()
        fractions = counts[1:] / counts.sum()
        np.testing.assert_allclose(fractions, weights / weights.sum(), atol=0.03)

    def test_pwrs_matches_itx_distribution(self):
        """Both samplers draw from the same transition distribution."""
        edges = np.array([[0, 1], [0, 2]])
        weights = np.array([1.0, 3.0], dtype=np.float32)
        graph = from_edge_list(edges, num_vertices=3, weights=weights)
        starts = np.zeros(8000, dtype=np.int64)
        itx = run_walks(graph, starts, 1, StaticWalk(), InverseTransformSampler(1))
        pwrs = run_walks(graph, starts, 1, StaticWalk(), PWRSSampler(4, 1))
        f_itx = (itx.paths[:, 1] == 2).mean()
        f_pwrs = (pwrs.paths[:, 1] == 2).mean()
        assert abs(f_itx - 0.75) < 0.02
        assert abs(f_pwrs - 0.75) < 0.02


#: Largest segment in the random blocks below; ``k = 64`` exceeds it.
_MAX_SEGMENT = 40

_segments = st.lists(
    st.tuples(
        st.one_of(st.just(0), st.integers(1, _MAX_SEGMENT)),  # 0 is a sink
        st.sampled_from(["random", "zero", "constant"]),
    ),
    max_size=8,
)


class TestSamplersAcceptAnyBlock:
    """``select`` on any block equals its scalar reference, query by query.

    Blocks come straight from :func:`gather_step`, so they hold leading,
    middle and trailing sinks, zero-weight and constant-weight segments,
    and blocks with no edges at all.
    """

    @given(
        lead_sinks=st.integers(0, 2),
        segments=_segments,
        trail_sinks=st.integers(0, 2),
        k=st.sampled_from([1, 3, 16, 64]),
        stride0=st.booleans(),
        weight_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_select_matches_scalar_references(
        self, lead_sinks, segments, trail_sinks, k, stride0, weight_seed
    ):
        segments = [(0, "zero")] * lead_sinks + segments + [(0, "zero")] * trail_sinks
        degrees = [d for d, _ in segments]
        n = len(degrees)
        assume(n)
        # Vertex v has degrees[v] out-edges; vertex n is a sink all point to.
        edges = [(v, n) for v, d in enumerate(degrees) for _ in range(d)]
        graph = from_edge_list(np.array(edges, dtype=np.int64).reshape(-1, 2), num_vertices=n + 1)
        ctx = gather_step(graph, 0, np.arange(n), np.full(n, -1))

        rng = np.random.default_rng(weight_seed)
        if stride0 and ctx.n_edges:
            # One weight for the whole block: PWRS's threshold-table path.
            weights = np.broadcast_to(rng.choice([0.0, 1.0, 2.5]), (ctx.n_edges,))
        else:
            parts = []
            for d, kind in segments:
                if kind == "random":
                    w = rng.uniform(0.0, 50.0, d)
                    w[rng.random(d) < 0.3] = 0.0
                else:
                    w = np.full(d, 0.0 if kind == "zero" else rng.uniform(0.01, 50.0))
                parts.append(w)
            weights = np.concatenate(parts) if parts else np.empty(0)
        w_int = quantize_weights(weights)

        seed = 5
        query_ids = rng.permutation(4 * n)[:n]
        first = rng.integers(0, 2**40, n).astype(np.uint64)
        active_index = rng.permutation(n)  # block position j is attached row active_index[j]
        pwrs = PWRSSampler(k=k, seed=seed)
        itx = InverseTransformSampler(seed=seed)
        for sampler in (pwrs, itx):
            sampler.attach(n, query_ids)
            sampler._counters[:] = first
        pwrs_chosen = pwrs.select(ctx, weights, active_index)
        itx_chosen = itx.select(ctx, weights, active_index)

        for j, row in enumerate(active_index.tolist()):
            lane_seed = derive_seed(seed, int(query_ids[row]))
            seg = w_int[ctx.seg_starts[j]:ctx.seg_starts[j] + degrees[j]]
            lanes = ThundeRingRNG(k, lane_seed)
            lanes.counter = int(first[row])
            reference = ParallelWRS(k, lanes)
            for lo in range(0, degrees[j], k):
                reference.consume(np.arange(lo, min(lo + k, degrees[j])), seg[lo:lo + k])
            want = reference.result()
            assert pwrs_chosen[j] == (-1 if want is None else want)

            draw = ThundeRingRNG(1, lane_seed)
            draw.counter = int(first[row])
            assert itx_chosen[j] == InverseTransformTable(seg).sample(int(draw.next_uint32()[0]))

            if degrees[j] == 0:
                assert pwrs_chosen[j] == itx_chosen[j] == -1
