"""Golden digests of whole walk sessions.

SHA-256 over the ``paths``, ``lengths`` and every :class:`StepRecord` of
five seeded RMAT-10 batches — one per sampler path the walk kernel has:
uniform (unit weights), Node2Vec and MetaPath on PWRS, Node2Vec on the
inverse-transform sampler, and the restart walk on PWRS.  Any change to a
walk, a lane draw or a trace field moves a digest; a change that means to
do so must say so and re-pin the constant.

The restart digest leaves out ``prev`` and ``prev_degrees``: it was pinned
when restart walks had a stepper of their own, which recorded no previous
vertex, and the cost models read those fields only for second-order walks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import make_queries
from repro.graph.generators import rmat_graph
from repro.graph.labels import assign_random_weights, assign_vertex_labels
from repro.walks import (
    InverseTransformSampler,
    MetaPathWalk,
    Node2VecWalk,
    PWRSSampler,
    RestartWalk,
    UniformWalk,
    run_walks,
)

RECORD_FIELDS = ("query_ids", "curr", "degrees", "prev", "prev_degrees", "next_vertex")
FIRST_ORDER_FIELDS = ("query_ids", "curr", "degrees", "next_vertex")

SHAPES = {
    "uniform-pwrs": (UniformWalk, lambda: PWRSSampler(k=16, seed=11)),
    "node2vec-pwrs": (lambda: Node2VecWalk(2.0, 0.5), lambda: PWRSSampler(k=16, seed=11)),
    "metapath-pwrs": (lambda: MetaPathWalk([0, 1, 2, 3]), lambda: PWRSSampler(k=16, seed=11)),
    "node2vec-inverse-transform": (
        lambda: Node2VecWalk(2.0, 0.5),
        lambda: InverseTransformSampler(seed=11),
    ),
    "restart-pwrs": (lambda: RestartWalk(0.3), lambda: PWRSSampler(k=16, seed=11)),
}

DIGESTS = {
    "uniform-pwrs": "4b6eadc6c3fa58fb858afd404700c0446cd607b5c24712354841cddd49532bd4",
    "node2vec-pwrs": "e31130bdf5b6cdf8c5cbf2479db82872a267abd122068471d6e7c91797428da1",
    "metapath-pwrs": "adf0748a8c90ebf9068d961dd55a34c5ef86129ff16371a8dc312e77fb782c6b",
    "node2vec-inverse-transform": (
        "e2d07248ad3ee3de3d34082f5651b6bf0a372e9e6548ea0bd4e181ddd21d2111"
    ),
    "restart-pwrs": "a3c15b1cdde9e663b07abde54f64ed321701e5431d7abb8814203b03f0671d38",
}


def session_digest(session, fields=RECORD_FIELDS) -> str:
    """SHA-256 of a session's paths, lengths and step records."""
    h = hashlib.sha256()

    def feed(array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())

    feed(session.paths)
    feed(session.lengths)
    for record in session.records:
        h.update(f"step {record.step}".encode())
        for name in fields:
            feed(getattr(record, name))
    return h.hexdigest()


@pytest.fixture(scope="module")
def graph():
    graph = rmat_graph(10, edge_factor=8, seed=5)
    graph = assign_vertex_labels(graph, n_labels=4, seed=6)
    return assign_random_weights(graph, seed=7)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_session_digest_is_pinned(graph, shape):
    make_algorithm, make_sampler = SHAPES[shape]
    starts = make_queries(graph, n_queries=512, seed=3)
    session = run_walks(graph, starts, 20, make_algorithm(), make_sampler())
    fields = FIRST_ORDER_FIELDS if shape == "restart-pwrs" else RECORD_FIELDS
    assert session_digest(session, fields) == DIGESTS[shape]
