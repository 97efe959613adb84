"""Pipeline event tracing and its Chrome-trace export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fpga.accelerator import LightRWAcceleratorSim
from repro.fpga.config import LightRWConfig
from repro.fpga.sim.trace import PipelineTracer
from repro.obs import chrome_trace, write_chrome_trace
from repro.walks.uniform import UniformWalk


class TestPipelineTracer:
    def test_record_and_read(self):
        tracer = PipelineTracer()
        tracer.record(5, "m", "evt", qid=1)
        tracer.record(7, "m", "evt", qid=2)
        events = tracer.events()
        assert len(events) == 2
        assert events[0].cycle == 5
        assert events[1].info["qid"] == 2

    def test_ring_buffer_keeps_latest(self):
        tracer = PipelineTracer(max_events=3)
        for i in range(10):
            tracer.record(i, "m", "evt")
        assert len(tracer) == 3
        assert [e.cycle for e in tracer.events()] == [7, 8, 9]
        assert tracer.total_recorded == 10

    def test_filters(self):
        tracer = PipelineTracer()
        tracer.record(1, "a", "x", qid=1)
        tracer.record(2, "b", "x", qid=2)
        tracer.record(3, "a", "y", qid=1)
        assert len(tracer.filter(module="a")) == 2
        assert len(tracer.filter(event="x")) == 2
        assert len(tracer.filter(qid=1)) == 2
        assert len(tracer.filter(module="a", event="x", qid=1)) == 1

    def test_counts_and_text(self):
        tracer = PipelineTracer()
        tracer.record(1, "m", "x")
        tracer.record(2, "m", "x")
        tracer.record(3, "m", "y", foo=7)
        assert tracer.counts() == {"x": 2, "y": 1}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PipelineTracer(max_events=0)


class TestTracedSimulation:
    @pytest.fixture
    def traced_run(self, labeled_graph):
        config = LightRWConfig(n_instances=2, max_inflight=8).scaled(64)
        starts = labeled_graph.nonzero_degree_vertices()[:10]
        sim = LightRWAcceleratorSim(labeled_graph, config, UniformWalk(), seed=6)
        return sim.run(starts, 4, trace=True), starts

    def test_trace_present_only_when_requested(self, labeled_graph):
        config = LightRWConfig(n_instances=1, max_inflight=4).scaled(64)
        starts = labeled_graph.nonzero_degree_vertices()[:4]
        sim = LightRWAcceleratorSim(labeled_graph, config, UniformWalk(), seed=1)
        assert sim.run(starts, 2).tracer is None
        assert sim.run(starts, 2, trace=True).tracer is not None

    def test_admissions_and_finishes_complete(self, traced_run):
        result, starts = traced_run
        tracer = result.tracer
        counts = tracer.counts()
        assert counts["query-admitted"] == starts.size
        assert counts["query-finished"] == starts.size

    def test_cache_events_match_stats(self, traced_run):
        result, __ = traced_run
        counts = result.tracer.counts()
        hits = sum(s.cache_hits for s in result.instances)
        misses = sum(s.cache_misses for s in result.instances)
        assert counts.get("cache-hit", 0) == hits
        assert counts.get("cache-miss", 0) == misses

    def test_dram_grants_match_requests(self, traced_run):
        result, __ = traced_run
        grants = len(result.tracer.filter(event="dram-grant"))
        assert grants == sum(s.dram_requests for s in result.instances)

    def test_query_timeline_ordered_and_complete(self, traced_run):
        result, starts = traced_run
        timeline = result.tracer.filter(qid=0)
        assert timeline[0].event == "query-admitted"
        assert timeline[-1].event == "query-finished"
        cycles = [e.cycle for e in timeline]
        assert cycles == sorted(cycles)
        # One sample + one retire per executed step.
        samples = [e for e in timeline if e.event == "sample"]
        retires = [e for e in timeline if e.event == "step-retired"]
        assert len(samples) == len(retires)
        # At least one sample per step actually walked (dead-end attempts
        # add one more).
        assert len(samples) >= len(result.paths[0]) - 1

    def test_tracing_does_not_change_walks(self, labeled_graph):
        config = LightRWConfig(n_instances=1, max_inflight=4).scaled(64)
        starts = labeled_graph.nonzero_degree_vertices()[:6]
        sim = LightRWAcceleratorSim(labeled_graph, config, UniformWalk(), seed=9)
        plain = sim.run(starts, 4)
        traced = sim.run(starts, 4, trace=True)
        for q in range(6):
            np.testing.assert_array_equal(plain.path(q), traced.path(q))
        assert plain.cycles == traced.cycles

    def test_event_filter_composes_with_module_filter(self, traced_run):
        result, __ = traced_run
        tracer = result.tracer
        hits = tracer.filter(event="cache-hit")
        # Every hit comes from an info-loader; the composed filter must be
        # the intersection, not a union or an override.
        per_module = [
            tracer.filter(module=f"inst{i}.info-loader", event="cache-hit")
            for i in range(2)
        ]
        assert sum(len(events) for events in per_module) == len(hits)
        assert all(
            e.module == "inst0.info-loader" and e.event == "cache-hit"
            for e in per_module[0]
        )
        # A module that never emits the event yields nothing.
        assert tracer.filter(module="inst0.wrs-sampler", event="cache-hit") == []


class TestChromeTraceExport:
    @pytest.fixture
    def traced_run(self, labeled_graph):
        config = LightRWConfig(n_instances=2, max_inflight=8).scaled(64)
        starts = labeled_graph.nonzero_degree_vertices()[:10]
        sim = LightRWAcceleratorSim(labeled_graph, config, UniformWalk(), seed=6)
        return sim.run(starts, 4, trace=True)

    def test_round_trip_is_valid_json(self, traced_run, tmp_path):
        path = write_chrome_trace(
            tmp_path / "trace.json",
            tracer=traced_run.tracer,
            cycle_result=traced_run,
            frequency_hz=traced_run.config.frequency_hz,
        )
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        events = loaded["traceEvents"]
        assert events, "export produced no events"
        for event in events:
            assert {"name", "ph", "pid"} <= set(event)

    def test_timestamps_monotonic(self, traced_run):
        trace = chrome_trace(
            tracer=traced_run.tracer,
            cycle_result=traced_run,
            frequency_hz=traced_run.config.frequency_hz,
        )
        ts = [e["ts"] for e in trace["traceEvents"] if "ts" in e]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_every_pipeline_module_has_a_span(self, traced_run):
        trace = chrome_trace(
            cycle_result=traced_run, frequency_hz=traced_run.config.frequency_hz
        )
        spans = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        for module in (
            "controller",
            "info-loader",
            "burst-cmd-gen",
            "merge",
            "weight-updater",
            "wrs-sampler",
        ):
            assert any(module in name for name in spans), module

    def test_cycle_to_microsecond_conversion(self, traced_run):
        freq = traced_run.config.frequency_hz
        trace = chrome_trace(tracer=traced_run.tracer, frequency_hz=freq)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == len(traced_run.tracer)
        last = max(e.cycle for e in traced_run.tracer.events())
        expected_us = last / freq * 1e6
        assert max(e["ts"] for e in instants) == pytest.approx(expected_us)

    def test_overflowed_tracer_exports_latest_window(self):
        tracer = PipelineTracer(max_events=4)
        for i in range(20):
            tracer.record(i, "m", "evt")
        trace = chrome_trace(tracer=tracer, frequency_hz=1e6)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 4
        # Cycles 16..19 at 1 MHz are exactly 16..19 µs.
        assert [e["ts"] for e in instants] == [16.0, 17.0, 18.0, 19.0]

    def test_empty_sources_give_empty_but_valid_trace(self):
        trace = chrome_trace()
        assert json.loads(json.dumps(trace)) == trace
        # Only process-name metadata remains; no timed events.
        assert all(e["ph"] == "M" for e in trace["traceEvents"])
