"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

They cover the correctness checks (a corrupted path must be caught), the
self-time arithmetic, the metric lists against ``BENCHMARK.json``, and a
tiny-graph smoke run of every workload shape in both modes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.obs import SpanRecord  # noqa: E402
from repro.walks import Node2VecWalk, UniformWalk  # noqa: E402

from perfbench import bench  # noqa: E402
from perfbench.checks import (  # noqa: E402
    check_golden,
    check_schema,
    check_structure,
    golden_rows,
    path_digest,
)
from perfbench.layers import covered, self_times, span_table  # noqa: E402
from perfbench.workloads import METAPATH_SCHEMA, WORKLOADS, set_up  # noqa: E402


# -- correctness checks --------------------------------------------------------


@pytest.fixture(scope="module")
def n2v_run():
    setup = set_up(WORKLOADS["n2v-rmat16"].tiny(), seed=5)
    w = setup.workload
    result = setup.engine.run(setup.algorithm, w.n_steps, **setup.run_kwargs())
    return setup, result


def _golden(setup, paths, lengths, rows):
    return check_golden(
        setup.graph,
        paths,
        lengths,
        setup.algorithm,
        setup.workload.n_steps,
        k=setup.engine.config.k,
        seed=setup.engine.seed,
        rows=rows,
    )


def _walked_row(lengths):
    return int(np.flatnonzero(lengths >= 3)[0])


def test_checks_pass_on_a_real_run(n2v_run):
    setup, result = n2v_run
    rows = golden_rows(result.paths.shape[0], 16, seed=1)
    assert check_structure(setup.graph, result.paths, result.lengths, result.paths[:, 0]) == []
    assert _golden(setup, result.paths, result.lengths, rows) == []


def test_golden_check_catches_a_corrupted_step(n2v_run):
    setup, result = n2v_run
    paths = result.paths.copy()
    row = _walked_row(result.lengths)
    # Replace step 2 with another neighbour of step 1: still a valid edge,
    # so only the golden comparison can tell.
    begin, end = setup.graph.neighbor_slice(int(paths[row, 1]))
    neighbours = setup.graph.col_index[begin:end]
    other = neighbours[neighbours != paths[row, 2]]
    if other.size == 0:
        pytest.skip("step 1 has a single neighbour")
    paths[row, 2] = other[0]
    assert _golden(setup, paths, result.lengths, np.array([row]))


def test_structure_check_catches_a_non_edge_and_bad_padding(n2v_run):
    setup, result = n2v_run
    graph = setup.graph
    row = _walked_row(result.lengths)
    starts = result.paths[:, 0]
    paths = result.paths.copy()
    begin, end = graph.neighbor_slice(int(paths[row, 1]))
    paths[row, 2] = np.setdiff1d(np.arange(graph.num_vertices), graph.col_index[begin:end])[0]
    assert any("no edge" in p for p in check_structure(graph, paths, result.lengths, starts))
    lengths = result.lengths.copy()
    lengths[row] -= 1
    assert any("padded" in p for p in check_structure(graph, result.paths, lengths, starts))
    assert check_structure(graph, result.paths, result.lengths, starts[::-1].copy())


def test_digest_changes_with_any_path_entry(n2v_run):
    _, result = n2v_run
    paths = result.paths.copy()
    base = path_digest(paths, result.lengths)
    paths[-1, 0] += 1
    assert path_digest(paths, result.lengths) != base
    assert path_digest(result.paths, result.lengths) == base


def test_schema_check():
    setup = set_up(WORKLOADS["metapath-lj-ckpt"].tiny(), seed=2)
    result = setup.engine.run(setup.algorithm, setup.workload.n_steps, **setup.run_kwargs())
    schema = np.asarray(METAPATH_SCHEMA)
    assert check_schema(setup.graph, result.paths, result.lengths, schema) == []
    assert check_schema(setup.graph, result.paths, result.lengths, schema[::-1].copy())


def test_golden_check_uses_the_algorithm():
    setup = set_up(WORKLOADS["n2v-rmat16"].tiny(), seed=3)
    result = setup.engine.run(UniformWalk(), 12, **setup.run_kwargs())
    setup.algorithm = Node2VecWalk(p=0.25, q=4.0)
    rows = golden_rows(result.paths.shape[0], 24, seed=0)
    assert _golden(setup, result.paths, result.lengths, rows)


# -- self-time arithmetic --------------------------------------------------------


def _span(span_id, parent, start, end, name="s"):
    return SpanRecord(
        span_id=span_id, name=name, start_s=start, duration_s=end - start,
        parent_id=parent, thread="main",
    )


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.5)
    assert covered([(-1.0, 0.25), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.35)
    assert covered([(0.5, 0.4)], 0.0, 1.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0.0, 10.0, "run"),
        _span(1, 0, 1.0, 4.0, "walk"),
        _span(2, 1, 1.5, 3.5, "weights"),
        _span(3, 0, 3.0, 6.0, "model"),  # overlaps the walk span
        _span(4, None, 2.0, 9.0, "worker"),  # another thread's root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(7.0)
    table = span_table(spans + [_span(5, 0, 7.0, 8.0, "model")])
    assert table["model"]["count"] == 2
    assert table["model"]["total_s"] == pytest.approx(4.0)
    assert table["run"]["self_s"] == pytest.approx(4.0)


# -- metric lists ------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


# -- tiny smoke runs ------------------------------------------------------------------


@pytest.fixture(scope="module")
def calibration():
    return bench.Calibration()


class _FixedCalibration(bench.Calibration):
    """Kernel times 0.05 s, 0.07 s, 0.09 s, ... instead of measured ones."""

    def __init__(self):
        self._last = None
        self.times = iter([0.05, 0.07, 0.09])

    def measure(self, repeats=3):
        self._last = next(self.times)
        return self._last


def test_calibration_scales_by_the_kernel_times_around_the_call():
    calibration = _FixedCalibration()
    result, wall, reference = calibration.time(lambda: 7)
    assert result == 7
    exponent = bench.CALIBRATION_EXPONENT
    assert reference == pytest.approx(wall * (bench.REFERENCE_CALIBRATION_S / 0.06) ** exponent)
    # The next call reuses the kernel time measured after this one.
    _, wall, reference = calibration.time(lambda: None)
    assert reference == pytest.approx(wall * (bench.REFERENCE_CALIBRATION_S / 0.08) ** exponent)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_end_to_end(name, tmp_path, calibration):
    runner, metrics, samples = bench.measure_end_to_end(
        WORKLOADS[name].tiny(), seed=4, seconds=0.05, workdir=tmp_path, calibration=calibration
    )
    assert runner.failed == 0 and runner.attempted >= 2
    assert set(metrics) == set(bench.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert len(samples["setup_s (wall)"]) == bench.SETUP_REPEATS
    assert len(samples["run_s (reference)"]) == runner.attempted - 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_layers(name, tmp_path, calibration):
    workload = WORKLOADS[name].tiny()
    runner, metrics, tables = bench.measure_layers(
        workload, seed=4, seconds=0.05, workdir=tmp_path, calibration=calibration
    )
    assert runner.failed == 0
    assert set(metrics) == set(bench.PER_LAYER)
    assert {"facade", "replay"} <= set(tables)
    assert tables["replay"]["walks.stepper"]["count"] == workload.shards
    assert metrics["model.total_steps"] >= metrics["walks.steps"]
    assert 0 < metrics["walks.completion_ratio"] <= 1
    for metric, unit in bench.PER_LAYER.items():
        if unit == "s":
            assert metrics[metric] > 0, metric
    _, again, _ = bench.measure_layers(
        workload, seed=4, seconds=0.0, workdir=tmp_path, calibration=calibration
    )
    for metric in ("walks.steps", "walks.edges_scanned", "model.kernel_s",
                   "model.total_steps", "model.dac_hit_ratio", "model.dyb_valid_ratio",
                   "model.shard_drift_rel", "runtime.durability.write_bytes"):
        assert again[metric] == metrics[metric], metric
