"""The step workspace: walk steps allocate no per-edge array.

``run_walks`` makes one :class:`~repro.walks.base.StepWorkspace` per call,
and the weight update and the samplers write their per-edge arrays into it
(see "Workspace" in :mod:`repro.walks.stepper`).  Here, with ``tracemalloc``
on:

* once a walk's first block has sized the workspace, a ``select`` call
  that does not grow it allocates less than ``8 * n_edges + 64 * rows``
  bytes at its peak.  That bound admits per-row and per-query arrays, not
  one ``int64`` array per candidate edge or per drawn lane;
* Node2Vec's weights are a view of the workspace;
* a hub larger than the block budget grows the workspace mid-run, and
  the walk is still the walk of the default budget.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.graph import rmat_graph
from repro.graph.labels import assign_random_weights, assign_vertex_labels
from repro.walks import stepper
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.stepper import InverseTransformSampler, PWRSSampler, run_walks
from repro.walks.uniform import UniformWalk

K = 16

CASES = {
    "node2vec-pwrs": (lambda: Node2VecWalk(2.0, 0.5), lambda: PWRSSampler(K, seed=5)),
    "metapath-pwrs": (lambda: MetaPathWalk([0, 1, 2]), lambda: PWRSSampler(K, seed=5)),
    "uniform-pwrs": (UniformWalk, lambda: PWRSSampler(K, seed=5)),
    "node2vec-inverse": (lambda: Node2VecWalk(2.0, 0.5), lambda: InverseTransformSampler(seed=5)),
}


@pytest.fixture(scope="module")
def rmat12():
    graph = rmat_graph(12, edge_factor=8, seed=4)
    graph = assign_random_weights(graph, seed=4)
    return assign_vertex_labels(graph, n_labels=3, seed=4)


def _slab_sizes(ctx) -> dict[str, int]:
    return {name: slab.size for name, slab in ctx.workspace._slabs.items()}


class SelectProbe:
    """Wraps ``sampler.select``: per call, the traced peak and the bound."""

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.inner = sampler.select
        self.calls: list[tuple[bool, int, int]] = []  # (grew, peak, bound)
        self.shared_weights: list[bool] = []
        sampler.select = self

    def __call__(self, ctx, weights, active_index):
        if isinstance(self.sampler, PWRSSampler):
            rows = int((-(-ctx.degrees // self.sampler.k)).sum())
        else:
            rows = ctx.n_queries
        if weights.strides != (0,) and "weights" in ctx.workspace._slabs:
            self.shared_weights.append(
                np.shares_memory(weights, ctx.workspace.array("weights", ctx.n_edges, np.float64))
            )
        before = _slab_sizes(ctx)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        chosen = self.inner(ctx, weights, active_index)
        peak = tracemalloc.get_traced_memory()[1] - base
        grew = _slab_sizes(ctx) != before
        self.calls.append((grew, peak, 8 * ctx.n_edges + 64 * rows))
        return chosen


@pytest.mark.parametrize("case", sorted(CASES))
def test_select_allocates_no_per_edge_array(rmat12, case):
    make_walk, make_sampler = CASES[case]
    sampler = make_sampler()
    probe = SelectProbe(sampler)
    starts = np.arange(0, rmat12.num_vertices, 8)
    tracemalloc.start()
    try:
        run_walks(rmat12, starts, 40, make_walk(), sampler)
    finally:
        tracemalloc.stop()
    measured = [(peak, bound) for grew, peak, bound in probe.calls[1:] if not grew]
    assert len(measured) >= len(probe.calls) // 2  # growth is rare
    over = [(peak, bound) for peak, bound in measured if peak >= bound]
    assert not over, f"{len(over)} of {len(measured)} calls over the bound, e.g. {over[:3]}"
    if case.startswith("node2vec"):
        assert probe.shared_weights and all(probe.shared_weights)


@pytest.mark.parametrize("case", sorted(CASES))
def test_hub_over_budget_grows_workspace_mid_run(rmat12, case, monkeypatch):
    make_walk, make_sampler = CASES[case]
    # Starts in increasing degree, ending on the largest hub: the first
    # step's blocks grow, and the hub's is a block of its own.
    degrees = rmat12.degrees
    by_degree = np.argsort(degrees, kind="stable")
    starts = np.append(by_degree[degrees[by_degree] > 0][::16], by_degree[-1])
    expected = run_walks(rmat12, starts, 12, make_walk(), make_sampler())

    monkeypatch.setattr(stepper, "STEP_BLOCK_EDGES", 64)
    assert degrees.max() > 64
    sampler = make_sampler()
    probe = SelectProbe(sampler)
    got = run_walks(rmat12, starts, 12, make_walk(), sampler)
    assert any(grew for grew, _, _ in probe.calls[1:])
    np.testing.assert_array_equal(got.paths, expected.paths)
    np.testing.assert_array_equal(got.lengths, expected.lengths)
