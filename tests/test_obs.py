"""The unified telemetry layer: registry, spans, manifests, exporters."""

from __future__ import annotations

import json
import re
import resource
import threading

import pytest

from repro.cli import main
from repro.core.api import LightRW
from repro.errors import ShardExecutionError
from repro.fpga.cache import FIFOCache
from repro.obs import (
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
    RunManifest,
    append_jsonl,
    chrome_trace,
    config_fingerprint,
    current_observer,
    read_jsonl,
    run_record,
    series_key,
    span,
    summarize_records,
    use_observer,
)
from repro.obs.export import prometheus_from_snapshot
from repro.runtime import InjectedFault, RetryPolicy
from repro.walks.uniform import UniformWalk


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter("dac.hits", shard=0).inc(3)
        reg.counter("dac.hits", shard=0).inc(2)
        reg.counter("dac.hits", shard=1).inc(10)
        assert reg.get("dac.hits", shard=0) == 5
        assert reg.get("dac.hits", shard=1) == 10
        assert reg.total("dac.hits") == 15

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n").inc(-1)

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge("dac.hit_ratio", backend="fpga-model").set(0.2)
        reg.gauge("dac.hit_ratio", backend="fpga-model").set(0.8)
        assert reg.get("dac.hit_ratio", backend="fpga-model") == 0.8

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 10.0))
        hist.observe_many([0.5, 5.0, 50.0])
        snap = reg.snapshot()[series_key("lat")]
        assert snap["kind"] == "histogram"
        assert snap["counts"] == [1, 1, 1]
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(55.5)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_series_key_sorts_labels(self):
        assert series_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
        assert series_key("m") == "m"

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c", backend="fpga-model").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.01)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c{backend=fpga-model}"] == 1
        assert snap["g"] == 1.5
        assert len(reg) == 3


class TestSpans:
    def test_nesting_records_parents(self):
        obs = Observer()
        with obs.span("run", backend="fpga-model"):
            with obs.span("plan"):
                pass
            with obs.span("shard", shard=0):
                pass
        records = obs.spans.finished()
        assert [r.name for r in records] == ["plan", "shard", "run"]
        run = obs.spans.find("run")[0]
        assert run.parent_id is None
        assert {c.name for c in obs.spans.children(run)} == {"plan", "shard"}
        assert run.attrs == {"backend": "fpga-model"}
        assert all(r.duration_s >= 0 for r in records)
        assert run.end_s >= run.start_s

    def test_module_level_span_uses_ambient_observer(self):
        obs = Observer()
        with use_observer(obs):
            with span("work", k=1):
                pass
        assert current_observer() is NULL_OBSERVER
        assert obs.spans.find("work")[0].attrs == {"k": 1}

    def test_null_observer_span_is_noop(self):
        with span("ignored"):
            pass
        assert not NULL_OBSERVER.enabled
        assert len(NULL_OBSERVER.spans) == 0

    def test_threads_get_independent_stacks(self):
        obs = Observer()

        def worker(i: int) -> None:
            with use_observer(obs), obs.span("thread-root", i=i):
                with obs.span("inner", i=i):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        with obs.span("main-root"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        roots = obs.spans.find("thread-root")
        assert len(roots) == 4
        # Worker roots must not be parented under the main thread's span.
        assert all(r.parent_id is None for r in roots)
        for inner in obs.spans.find("inner"):
            parent = [r for r in roots if r.span_id == inner.parent_id]
            assert parent and parent[0].attrs == inner.attrs

    @pytest.mark.parametrize("timeout", [None, 600.0])
    def test_pool_thread_spans_descend_from_run(self, labeled_graph, timeout):
        # Shard 5 fails once, so it walks alone (with a retry) on a pool
        # thread; the other shards are walked as groups and sliced.
        obs = Observer()
        LightRW(labeled_graph, hardware_scale=64, seed=3).run(
            UniformWalk(), 4, max_sampled_queries=64, shards=8, mode="thread",
            workers=2, observer=obs,
            retry=RetryPolicy(max_attempts=2, shard_timeout_s=timeout),
            faults=[InjectedFault(shard=5, fail_attempts=1)],
        )
        by_id = {s.span_id: s for s in obs.spans.finished()}

        def ancestors(record):
            while record.parent_id is not None:
                record = by_id[record.parent_id]
                yield record.name

        pooled = obs.spans.find("group") + obs.spans.find("shard")
        assert obs.spans.find("group") and len(obs.spans.find("shard")) == 9
        assert any(s.thread != threading.main_thread().name for s in pooled)
        for record in pooled:
            assert "run" in ancestors(record), record


class TestManifest:
    def test_fingerprint_stable_and_sensitive(self):
        from repro.fpga.config import LightRWConfig

        base = LightRWConfig()
        assert config_fingerprint(base) == config_fingerprint(LightRWConfig())
        assert config_fingerprint(base) != config_fingerprint(
            LightRWConfig(n_instances=2)
        )
        assert len(config_fingerprint(base)) == 12

    def test_attached_to_every_result(self, labeled_graph):
        engine = LightRW(labeled_graph, hardware_scale=64, seed=3)
        result = engine.run(UniformWalk(), 4, max_sampled_queries=16)
        manifest = result.manifest
        assert isinstance(manifest, RunManifest)
        assert manifest.backend == "fpga-model"
        assert manifest.algorithm == "uniform"
        assert manifest.n_steps == 4
        assert manifest.seed == 3
        assert manifest.graph == "labeled"
        assert manifest.package_version
        assert manifest.config_hash
        payload = json.dumps(manifest.as_dict())
        assert "fpga-model" in payload


class TestBackendMetrics:
    """One public-API run per backend family yields the paper's counters."""

    def run_with_observer(self, graph, backend, **engine_kwargs):
        obs = Observer()
        engine = LightRW(
            graph, backend=backend, hardware_scale=64, seed=2, **engine_kwargs
        )
        result = engine.run(
            UniformWalk(), 4, max_sampled_queries=16, observer=obs
        )
        return result, obs.metrics

    def test_fpga_model_series(self, labeled_graph):
        __, metrics = self.run_with_observer(labeled_graph, "fpga-model")
        assert 0 <= metrics.get("dac.hit_ratio", backend="fpga-model") <= 1
        assert 0 < metrics.get("dyb.valid_ratio", backend="fpga-model") <= 1
        assert metrics.get("dram.bandwidth_gbps", backend="fpga-model") > 0
        assert metrics.total("dram.bytes_read") > 0
        assert metrics.total("run.total_steps") > 0
        assert metrics.get("run.kernel_seconds", backend="fpga-model") > 0

    def test_fpga_cycle_series(self, labeled_graph):
        __, metrics = self.run_with_observer(labeled_graph, "fpga-cycle")
        assert 0 <= metrics.get("dac.hit_ratio", backend="fpga-cycle") <= 1
        assert 0 < metrics.get("dyb.valid_ratio", backend="fpga-cycle") <= 1
        assert metrics.total("dac.accesses") == metrics.total(
            "dac.hits"
        ) + metrics.total("dac.misses")
        busy = [
            s
            for s in metrics.series()
            if s.name == "pipeline.busy_fraction" and "module" in s.labels
        ]
        assert {s.labels["module"] for s in busy} >= {
            "controller",
            "wrs-sampler",
        }

    def test_cpu_baseline_series(self, labeled_graph):
        __, metrics = self.run_with_observer(labeled_graph, "cpu-baseline")
        assert 0 <= metrics.get("cpu.llc_miss_ratio", backend="cpu-baseline") <= 1
        bound = metrics.get("cpu.memory_bound", backend="cpu-baseline")
        retiring = metrics.get("cpu.retiring", backend="cpu-baseline")
        assert bound is not None and retiring is not None
        assert metrics.total("time.component_seconds") > 0

    def test_sharded_runs_label_per_shard(self, labeled_graph):
        """Shard spans are per shard; modeled counters are per run."""
        obs = Observer()
        engine = LightRW(labeled_graph, hardware_scale=64, seed=2)
        engine.run(
            UniformWalk(), 4, max_sampled_queries=32, shards=2, observer=obs
        )
        modeled = [s for s in obs.metrics.series() if s.name == "dram.bytes_read"]
        assert len(modeled) == 1
        assert "shard" not in modeled[0].labels
        # Per-shard spans nest under the run span; the cost stage runs
        # once, under the merge span.
        run = obs.spans.find("run")[0]
        merge = obs.spans.find("merge")[0]
        shard_spans = obs.spans.find("shard")
        assert sorted(s.attrs["shard"] for s in shard_spans) == [0, 1]
        assert {s.parent_id for s in shard_spans} <= {run.span_id, merge.parent_id}
        (model,) = obs.spans.find("perf-model")
        assert model.parent_id == merge.span_id

    def test_host_resources_per_run(self, labeled_graph):
        __, metrics = self.run_with_observer(labeled_graph, "fpga-model")
        assert metrics.get("host.cpu_s", backend="fpga-model") > 0
        assert metrics.get("host.minflt", backend="fpga-model") >= 0
        peak = metrics.get("host.maxrss_mb", backend="fpga-model")
        assert peak == resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def test_unobserved_run_reads_no_host_resources(self, labeled_graph, monkeypatch):
        def refuse(who):
            raise AssertionError("getrusage called by an unobserved run")

        monkeypatch.setattr(resource, "getrusage", refuse)
        engine = LightRW(labeled_graph, hardware_scale=64, seed=2)
        assert engine.run(UniformWalk(), 4, max_sampled_queries=16).ok
        with pytest.raises(AssertionError, match="unobserved"):
            engine.run(UniformWalk(), 4, max_sampled_queries=16, observer=Observer())

    def test_off_by_default_records_nothing(self, labeled_graph, tmp_path):
        """An unobserved run through every gated write site — shard
        threads, an injected fault and its retry, checkpoint writes, a
        shard failure and a resume — leaves the null observer empty."""
        engine = LightRW(labeled_graph, hardware_scale=64, seed=2)
        common = dict(
            max_sampled_queries=16, shards=4, mode="thread",
            checkpoint_dir=tmp_path / "ck",
        )
        result = engine.run(
            UniformWalk(), 4,
            faults=[InjectedFault(shard=1, fail_attempts=1)],
            retry=RetryPolicy(max_attempts=2),
            **common,
        )
        assert result.ok  # attempt 2 of shard 1 succeeded
        with pytest.raises(ShardExecutionError):
            engine.run(
                UniformWalk(), 4,
                faults=[InjectedFault(shard=2, fail_attempts=-1)],
                **common,
            )
        resumed = engine.run(UniformWalk(), 4, resume=True, **common)
        assert resumed.resumed_shards == 3
        # No observer anywhere: ambient is the shared null sink.
        assert current_observer() is NULL_OBSERVER
        assert len(NULL_OBSERVER.metrics) == 0
        assert NULL_OBSERVER.spans.finished() == []
        assert result.manifest is not None  # provenance is unconditional


class TestCachePublish:
    def test_policies_share_accounting(self):
        fifo = FIFOCache(4, ways=2)
        for v in (1, 2, 1, 3):
            fifo.access(v)
        assert fifo.hits + fifo.misses == fifo.accesses == 4
        assert fifo.hit_ratio + fifo.miss_ratio == pytest.approx(1.0)


class TestExporters:
    @pytest.fixture
    def observed_run(self, labeled_graph):
        obs = Observer()
        engine = LightRW(labeled_graph, hardware_scale=64, seed=2)
        result = engine.run(
            UniformWalk(), 4, max_sampled_queries=16, observer=obs
        )
        return result, obs

    def test_jsonl_round_trip(self, observed_run, tmp_path):
        result, obs = observed_run
        record = run_record(result, obs)
        path = append_jsonl(tmp_path / "runs.jsonl", record)
        append_jsonl(path, record)
        records = read_jsonl(path)
        assert len(records) == 2
        loaded = records[0]
        assert loaded["manifest"]["backend"] == "fpga-model"
        assert "dac.hit_ratio{backend=fpga-model}" in loaded["metrics"]
        assert any(s["name"] == "run" for s in loaded["spans"])

    def test_summarize_is_readable(self, observed_run):
        result, obs = observed_run
        text = summarize_records([run_record(result, obs)])
        assert "fpga-model" in text
        assert "uniform" in text
        assert "hit_ratio" in text

    def test_prometheus_text(self, observed_run):
        """Every line is a well-formed sample and histogram buckets are
        cumulative, ending at the series' count."""
        __, obs = observed_run
        snapshot = obs.metrics.snapshot()
        text = prometheus_from_snapshot(snapshot)
        assert text.endswith("\n")
        sample = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$')
        lines = text.splitlines()
        assert lines and all(sample.match(line) for line in lines)
        assert not any("." in line.split("{")[0].split(" ")[0] for line in lines)
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("query_latency_seconds_bucket{")
        ]
        assert buckets == sorted(buckets)
        (count,) = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("query_latency_seconds_count")
        ]
        assert buckets[-1] == count > 0
        assert any(line.startswith("query_latency_seconds_sum") for line in lines)
        assert prometheus_from_snapshot({}) == ""

    def test_prometheus_from_snapshot_matches_names(self, observed_run):
        __, obs = observed_run
        text = prometheus_from_snapshot(obs.metrics.snapshot())
        assert 'dac_hit_ratio{backend="fpga-model"}' in text
        assert 'run_total_steps{backend="fpga-model"' in text
        assert any(
            line.startswith("query_latency_seconds_bucket{")
            and 'le="+Inf"' in line
            for line in text.splitlines()
        )

    def test_chrome_trace_from_spans(self, observed_run):
        __, obs = observed_run
        trace = chrome_trace(spans=obs.spans.finished())
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert "run" in names and "plan" in names
        ts = [e["ts"] for e in trace["traceEvents"] if "ts" in e]
        assert ts == sorted(ts)


class TestObservabilityCLI:
    @pytest.fixture
    def bundle(self, tmp_path):
        path = tmp_path / "g.npz"
        assert (
            main(["generate", "rmat", str(path), "--vertices-log2", "7"]) == 0
        )
        return path

    def test_walk_emits_metrics_and_trace(self, bundle, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        trace = tmp_path / "t.json"
        assert (
            main(
                [
                    "walk",
                    str(bundle),
                    "--algorithm",
                    "uniform",
                    "--length",
                    "4",
                    "--queries",
                    "16",
                    "--backend",
                    "fpga-cycle",
                    "--metrics",
                    str(metrics),
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        records = read_jsonl(metrics)
        assert len(records) == 1
        assert records[0]["manifest"]["backend"] == "fpga-cycle"
        assert any(k.startswith("dac.hit_ratio") for k in records[0]["metrics"])
        payload = json.loads(trace.read_text())
        assert any(e["ph"] == "i" for e in payload["traceEvents"])

        assert main(["obs", "summarize", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "fpga-cycle" in out
        assert (
            main(["obs", "summarize", str(metrics), "--prometheus"]) == 0
        )
        assert "dac_hit_ratio" in capsys.readouterr().out

    def test_summarize_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", "summarize", str(tmp_path / "absent.jsonl")])
