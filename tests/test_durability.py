"""Durability: checkpoint/resume, crash-safe artifact I/O, simulator watchdog."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import LightRW, Observer
from repro.artifacts import (
    ARTIFACT_VERSION,
    atomic_write_bytes,
    checked_record,
    load_npz_checked,
    quarantine,
    read_binary_artifact,
    read_json_artifact,
    record_checksum_ok,
    save_npz_checked,
    write_binary_artifact,
    write_json_artifact,
)
from repro.cli import main as cli_main
from repro.core.queries import make_queries
from repro.errors import (
    ArtifactCorruptionError,
    ConfigError,
    GraphFormatError,
    ShardExecutionError,
    SimulationError,
    SimulationStallError,
)
from repro.fpga.sim.clock import Simulator
from repro.fpga.sim.fifo import FIFO
from repro.fpga.sim.module import Module
from repro.graph.io import load_csr_npz, save_csr_npz
from repro.obs import append_jsonl, read_jsonl, use_observer
from repro.runtime import InjectedFault, RunCheckpoint
from repro.walks.uniform import UniformWalk
from tests.helpers import assert_same_result


@pytest.fixture
def engine(labeled_graph):
    return LightRW(labeled_graph, hardware_scale=64, seed=3)


@pytest.fixture
def starts(labeled_graph):
    return make_queries(labeled_graph, n_queries=32, seed=4)


# -- artifact layer -----------------------------------------------------------


class TestJsonArtifacts:
    def test_round_trip_strips_envelope(self, tmp_path):
        path = tmp_path / "a.json"
        write_json_artifact(path, {"rows": [1, 2], "name": "x"}, kind="test")
        assert read_json_artifact(path, kind="test") == {"rows": [1, 2], "name": "x"}

    def test_reserved_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="reserved"):
            write_json_artifact(tmp_path / "a.json", {"checksum": "x"}, kind="t")

    def test_tampering_quarantines(self, tmp_path):
        path = tmp_path / "a.json"
        write_json_artifact(path, {"value": 1}, kind="test")
        envelope = json.loads(path.read_text())
        envelope["value"] = 2  # flip the payload, keep the old checksum
        path.write_text(json.dumps(envelope))
        with pytest.raises(ArtifactCorruptionError, match="checksum") as excinfo:
            read_json_artifact(path, kind="test")
        assert not path.exists(), "corrupt file must not survive under its name"
        assert excinfo.value.quarantine_path is not None
        assert excinfo.value.quarantine_path.exists()

    def test_truncated_write_quarantines(self, tmp_path):
        path = tmp_path / "a.json"
        write_json_artifact(path, {"value": 1}, kind="test")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ArtifactCorruptionError):
            read_json_artifact(path)

    def test_wrong_kind_quarantines(self, tmp_path):
        path = tmp_path / "a.json"
        write_json_artifact(path, {"value": 1}, kind="bench-result")
        with pytest.raises(ArtifactCorruptionError, match="kind"):
            read_json_artifact(path, kind="run-checkpoint")

    def test_newer_version_is_config_error_not_quarantine(self, tmp_path):
        path = tmp_path / "a.json"
        write_json_artifact(path, {"value": 1}, kind="test")
        envelope = json.loads(path.read_text())
        envelope["format_version"] = ARTIFACT_VERSION + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(ConfigError, match="newer"):
            read_json_artifact(path, kind="test")
        assert path.exists(), "a future-version file is intact, never destroyed"


class TestBinaryArtifacts:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.bin"
        write_binary_artifact(path, b"\x00payload\xff", kind="blob")
        assert read_binary_artifact(path, kind="blob") == b"\x00payload\xff"

    @pytest.mark.parametrize("keep", [0, 5, 30])
    def test_truncation_detected(self, tmp_path, keep):
        path = tmp_path / "a.bin"
        write_binary_artifact(path, b"x" * 64, kind="blob")
        atomic_write_bytes(path, path.read_bytes()[:keep])
        with pytest.raises(ArtifactCorruptionError):
            read_binary_artifact(path, kind="blob")

    def test_bad_magic_detected(self, tmp_path):
        path = tmp_path / "a.bin"
        atomic_write_bytes(path, b"not an artifact at all, but long enough")
        with pytest.raises(ArtifactCorruptionError, match="magic"):
            read_binary_artifact(path)

    def test_payload_bitflip_detected(self, tmp_path):
        path = tmp_path / "a.bin"
        write_binary_artifact(path, b"x" * 64, kind="blob")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        atomic_write_bytes(path, bytes(blob))
        with pytest.raises(ArtifactCorruptionError, match="checksum"):
            read_binary_artifact(path, kind="blob")


class TestNpzArtifacts:
    def test_round_trip(self, tmp_path):
        path = save_npz_checked(tmp_path / "a", {"x": np.arange(5)})
        assert path.suffix == ".npz"
        arrays = load_npz_checked(path, require_checksum=True)
        np.testing.assert_array_equal(arrays["x"], np.arange(5))
        assert "checksum" not in arrays

    def test_zero_byte_file_quarantined(self, tmp_path):
        path = tmp_path / "a.npz"
        path.touch()
        with pytest.raises(ArtifactCorruptionError, match="zero-byte"):
            load_npz_checked(path)
        assert not path.exists()

    def test_truncated_npz_quarantined(self, tmp_path):
        path = save_npz_checked(tmp_path / "a.npz", {"x": np.arange(100)})
        atomic_write_bytes(path, path.read_bytes()[:40])
        with pytest.raises(ArtifactCorruptionError):
            load_npz_checked(path)

    def test_legacy_bundle_needs_no_checksum_unless_required(self, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, x=np.arange(3))
        np.testing.assert_array_equal(load_npz_checked(path)["x"], np.arange(3))
        with pytest.raises(ArtifactCorruptionError, match="missing checksum"):
            load_npz_checked(path, require_checksum=True)

    def test_quarantine_numbers_collisions(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_text("junk")
        first = quarantine(path)
        path.write_text("junk again")
        second = quarantine(path)
        assert first != second and first.exists() and second.exists()


class TestJsonlIntegrity:
    def test_round_trip_strips_checksum(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_jsonl(path, {"a": 1})
        append_jsonl(path, {"b": 2})
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_torn_final_line_skipped(self, tmp_path, caplog):
        path = tmp_path / "runs.jsonl"
        append_jsonl(path, {"a": 1})
        with path.open("a") as handle:
            handle.write('{"b": 2, "chec')  # crash mid-append
        with caplog.at_level("WARNING"):
            assert read_jsonl(path) == [{"a": 1}]
        assert "torn final record" in caplog.text
        assert path.exists(), "a torn tail is expected damage, not corruption"

    def test_midfile_damage_quarantined(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_jsonl(path, {"a": 1})
        with path.open("a") as handle:
            handle.write("garbage\n")
        append_jsonl(path, {"b": 2})
        with pytest.raises(ArtifactCorruptionError, match="mid-file"):
            read_jsonl(path)
        assert not path.exists()

    def test_tampered_record_detected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_jsonl(path, {"a": 1})
        record = json.loads(path.read_text())
        record["a"] = 999
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ArtifactCorruptionError, match="checksum"):
            read_jsonl(path)

    def test_record_checksum_helpers(self):
        record = checked_record({"x": 1})
        assert record_checksum_ok(record) is True
        record["x"] = 2
        assert record_checksum_ok(record) is False
        assert record_checksum_ok({"x": 1}) is None  # legacy, nothing to verify


class TestGraphBundleIntegrity:
    def test_round_trip_verified(self, tmp_path, labeled_graph):
        path = tmp_path / "g.npz"
        save_csr_npz(labeled_graph, path)
        loaded = load_csr_npz(path)
        np.testing.assert_array_equal(loaded.row_index, labeled_graph.row_index)
        np.testing.assert_array_equal(loaded.col_index, labeled_graph.col_index)
        np.testing.assert_array_equal(
            loaded.vertex_labels, labeled_graph.vertex_labels
        )

    def test_bitflip_quarantined(self, tmp_path, tiny_graph):
        path = tmp_path / "g.npz"
        save_csr_npz(tiny_graph, path)
        blob = bytearray(path.read_bytes())
        third = len(blob) // 3
        for offset in range(third, 2 * third):  # scramble the middle third
            blob[offset] ^= 0xFF
        atomic_write_bytes(path, bytes(blob))
        with pytest.raises(ArtifactCorruptionError):
            load_csr_npz(path)
        assert not path.exists()

    def test_zero_byte_bundle_rejected(self, tmp_path):
        path = tmp_path / "g.npz"
        path.touch()
        with pytest.raises(ArtifactCorruptionError, match="zero-byte"):
            load_csr_npz(path)

    def test_newer_format_version_rejected_clearly(self, tmp_path, tiny_graph):
        path = tmp_path / "g.npz"
        save_npz_checked(
            path,
            {
                "format_version": np.int64(99),
                "row_index": tiny_graph.row_index,
                "col_index": tiny_graph.col_index,
                "directed": np.bool_(True),
                "name": np.str_("future"),
            },
        )
        with pytest.raises(GraphFormatError, match="newer.*upgrade"):
            load_csr_npz(path)

    def test_non_bundle_npz_rejected(self, tmp_path):
        path = save_npz_checked(tmp_path / "g.npz", {"x": np.arange(3)})
        with pytest.raises(GraphFormatError, match="not a CSR bundle"):
            load_csr_npz(path)

    def test_legacy_v1_bundle_still_loads(self, tmp_path, tiny_graph):
        path = tmp_path / "g.npz"
        np.savez_compressed(  # exactly what version 1 of the library wrote
            path,
            format_version=np.int64(1),
            row_index=tiny_graph.row_index,
            col_index=tiny_graph.col_index,
            directed=np.bool_(tiny_graph.directed),
            name=np.str_(tiny_graph.name),
        )
        loaded = load_csr_npz(path)
        np.testing.assert_array_equal(loaded.col_index, tiny_graph.col_index)


# -- run checkpoint / resume --------------------------------------------------


class TestRunCheckpointResume:
    def _interrupt(self, engine, starts, directory, shard=2):
        """Simulate a crash: shard ``shard`` fails, the others checkpoint."""
        with pytest.raises(ShardExecutionError):
            engine.run(
                UniformWalk(), 5, starts=starts, shards=4,
                checkpoint_dir=directory,
                faults=[InjectedFault(shard=shard, fail_attempts=-1)],
            )

    def test_resume_is_byte_identical(self, engine, starts, tmp_path):
        """The tentpole claim: restored + re-executed shards merge to the
        same result an uninterrupted run produces, session included."""
        baseline = engine.run(UniformWalk(), 5, starts=starts, shards=4)
        directory = tmp_path / "ck"
        self._interrupt(engine, starts, directory)
        assert sorted(p.name for p in directory.glob("shard-*.ckpt")) == [
            "shard-0000.ckpt", "shard-0001.ckpt", "shard-0003.ckpt",
        ]
        observer = Observer()
        resumed = engine.run(
            UniformWalk(), 5, starts=starts, shards=4,
            checkpoint_dir=directory, resume=True, observer=observer,
        )
        assert resumed.resumed_shards == 3
        assert_same_result(resumed, baseline, ignore=("resumed_shards",))
        assert observer.metrics.total("run.resumed_shards") == 3
        assert observer.metrics.total("run.checkpoints") == 1  # only shard 2

    def test_resume_replays_restored_shard_metrics(self, engine, starts, tmp_path):
        """Modeled counters come from the run's single cost stage, so a
        resumed run's metric snapshot matches an uninterrupted run's."""
        families = ("dac.", "dyb.", "dram.", "pipeline.", "cpu.", "time.", "query.")

        def picked(observer):
            return {
                key: value
                for key, value in observer.metrics.snapshot().items()
                if key.startswith(families)
            }

        base_obs = Observer()
        engine.run(UniformWalk(), 5, starts=starts, shards=4, observer=base_obs)
        directory = tmp_path / "ck"
        self._interrupt(engine, starts, directory)
        resumed_obs = Observer()
        engine.run(
            UniformWalk(), 5, starts=starts, shards=4,
            checkpoint_dir=directory, resume=True, observer=resumed_obs,
        )
        assert picked(base_obs) == picked(resumed_obs)
        assert len(picked(base_obs)) > 0
        assert resumed_obs.metrics.total("run.resumed_shards") == 3

    def test_resumed_manifest_equivalent_modulo_timing(self, engine, starts, tmp_path):
        baseline = engine.run(UniformWalk(), 5, starts=starts, shards=4)
        directory = tmp_path / "ck"
        self._interrupt(engine, starts, directory)
        resumed = engine.run(
            UniformWalk(), 5, starts=starts, shards=4,
            checkpoint_dir=directory, resume=True,
        )
        skip = {"created_unix", "host"}
        base = {
            k: v for k, v in baseline.manifest.as_dict().items() if k not in skip
        }
        res = {
            k: v for k, v in resumed.manifest.as_dict().items() if k not in skip
        }
        assert base == res

    def test_corrupt_shard_checkpoint_is_reexecuted(self, engine, starts, tmp_path):
        baseline = engine.run(UniformWalk(), 5, starts=starts, shards=4)
        directory = tmp_path / "ck"
        self._interrupt(engine, starts, directory)
        victim = directory / "shard-0001.ckpt"
        blob = bytearray(victim.read_bytes())
        blob[-3] ^= 0xFF
        atomic_write_bytes(victim, bytes(blob))
        resumed = engine.run(
            UniformWalk(), 5, starts=starts, shards=4,
            checkpoint_dir=directory, resume=True,
        )
        # Damaged checkpoint costs time (one extra shard re-executed),
        # never correctness — and the evidence is quarantined.
        assert resumed.resumed_shards == 2
        np.testing.assert_array_equal(resumed.paths, baseline.paths)
        assert list(directory.glob("shard-0001.ckpt.corrupt"))

    def test_completed_run_resumes_to_identical_result(self, engine, starts, tmp_path):
        directory = tmp_path / "ck"
        first = engine.run(
            UniformWalk(), 5, starts=starts, shards=4, checkpoint_dir=directory,
        )
        again = engine.run(
            UniformWalk(), 5, starts=starts, shards=4,
            checkpoint_dir=directory, resume=True,
        )
        assert again.resumed_shards == 4
        np.testing.assert_array_equal(again.paths, first.paths)

    def test_parallel_resume_matches_sequential(self, engine, starts, tmp_path):
        baseline = engine.run(UniformWalk(), 5, starts=starts, shards=4)
        directory = tmp_path / "ck"
        self._interrupt(engine, starts, directory)
        resumed = engine.run(
            UniformWalk(), 5, starts=starts, shards=4,
            checkpoint_dir=directory, resume=True, mode="thread",
        )
        np.testing.assert_array_equal(resumed.paths, baseline.paths)

    def test_resume_without_checkpoint_dir_rejected(self, engine, starts):
        with pytest.raises(ConfigError, match="checkpoint_dir"):
            engine.run(UniformWalk(), 5, starts=starts, resume=True)

    def test_resume_missing_directory_rejected(self, engine, starts, tmp_path):
        with pytest.raises(ConfigError, match="cannot resume"):
            engine.run(
                UniformWalk(), 5, starts=starts, shards=4,
                checkpoint_dir=tmp_path / "nope", resume=True,
            )

    def test_resume_different_config_rejected(self, labeled_graph, starts, tmp_path):
        directory = tmp_path / "ck"
        engine = LightRW(labeled_graph, hardware_scale=64, seed=3)
        self._interrupt(engine, starts, directory)
        other = LightRW(labeled_graph, hardware_scale=64, seed=99)
        with pytest.raises(ConfigError, match="different run configuration"):
            other.run(
                UniformWalk(), 5, starts=starts, shards=4,
                checkpoint_dir=directory, resume=True,
            )

    def test_fresh_run_discards_incompatible_shards(self, engine, starts, tmp_path):
        directory = tmp_path / "ck"
        self._interrupt(engine, starts, directory)
        assert list(directory.glob("shard-*.ckpt"))
        # A *different* plan reusing the directory must not inherit them.
        engine.run(
            UniformWalk(), 7, starts=starts, shards=2, checkpoint_dir=directory,
        )
        checkpoint = RunCheckpoint(
            directory,
            read_json_artifact(directory / "run.json", kind="run-checkpoint")[
                "fingerprint"
            ],
        )
        assert sorted(checkpoint.load_completed()) == [0, 1]

    def test_fresh_run_of_same_plan_starts_clean(self, engine, starts, tmp_path):
        """Without ``resume``, even shards the same plan wrote are discarded."""
        directory = tmp_path / "ck"
        self._interrupt(engine, starts, directory)
        assert len(list(directory.glob("shard-*.ckpt"))) == 3
        fresh = engine.run(
            UniformWalk(), 5, starts=starts, shards=4, checkpoint_dir=directory,
        )
        assert fresh.resumed_shards == 0

    def test_shard_kind_binds_fingerprint(self, engine, starts, tmp_path):
        """A shard file from another run fails verification, never merges."""
        a, b = tmp_path / "a", tmp_path / "b"
        self._interrupt(engine, starts, a, shard=0)
        engine.run(UniformWalk(), 9, starts=starts, shards=4, checkpoint_dir=b)
        foreign = b / "shard-0001.ckpt"
        (a / "shard-0001.ckpt").write_bytes(foreign.read_bytes())
        checkpoint = RunCheckpoint(
            a,
            read_json_artifact(a / "run.json", kind="run-checkpoint")[
                "fingerprint"
            ],
        )
        restored = checkpoint.load_completed()
        assert 1 not in restored  # quarantined as wrong-kind, will re-execute
        assert list(a.glob("shard-0001.ckpt.corrupt"))


class TestCLIResume:
    def _generate(self, tmp_path):
        bundle = tmp_path / "g.npz"
        assert cli_main(
            ["generate", "rmat", str(bundle), "--vertices-log2", "7"]
        ) == 0
        return bundle

    def test_kill_and_resume_byte_identical_output(self, tmp_path, capsys):
        bundle = self._generate(tmp_path)
        base = [
            "walk", str(bundle), "--algorithm", "uniform", "--length", "4",
            "--queries", "32", "--shards", "4",
        ]
        capsys.readouterr()  # drop the graph generation output
        assert cli_main(base + ["--output", str(tmp_path / "clean")]) == 0
        clean_summary = capsys.readouterr().out.splitlines()[0]
        directory = tmp_path / "ck"
        assert cli_main(
            base + ["--checkpoint-dir", str(directory), "--inject-fault", "3"]
        ) == 2  # the "crash"
        capsys.readouterr()
        assert cli_main(
            base + [
                "--checkpoint-dir", str(directory), "--resume",
                "--output", str(tmp_path / "resumed"),
            ]
        ) == 0
        resumed_out = capsys.readouterr().out
        assert "3 shard(s) restored from checkpoint" in resumed_out
        # The modeled summary line (steps, kernel time) matches too.
        assert resumed_out.splitlines()[0] == clean_summary
        clean = load_npz_checked(tmp_path / "clean.npz", require_checksum=True)
        resumed = load_npz_checked(
            tmp_path / "resumed.npz", require_checksum=True
        )
        np.testing.assert_array_equal(resumed["paths"], clean["paths"])
        np.testing.assert_array_equal(resumed["lengths"], clean["lengths"])

    def test_resume_without_dir_is_config_error(self, tmp_path, capsys):
        bundle = self._generate(tmp_path)
        assert cli_main(["walk", str(bundle), "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_resume_missing_dir_is_config_error(self, tmp_path, capsys):
        bundle = self._generate(tmp_path)
        code = cli_main([
            "walk", str(bundle), "--resume",
            "--checkpoint-dir", str(tmp_path / "nothing-here"),
        ])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


# -- simulator watchdog -------------------------------------------------------


class _IdleModule(Module):
    """A stage that never does anything — a wedged pipeline."""

    def tick(self, cycle: int) -> None:
        pass


class _BusyModule(Module):
    """A stage that is always making (pointless) progress."""

    def tick(self, cycle: int) -> None:
        self.busy_cycles += 1


class TestWatchdog:
    def test_stalled_pipeline_aborts_with_diagnostics(self):
        fifo = FIFO("stuck", depth=2)
        fifo.push(1)
        fifo.push(2)
        fifo.commit()
        sim = Simulator([_IdleModule("wedged")], [fifo])
        with pytest.raises(SimulationStallError) as excinfo:
            sim.run_until(lambda: False, max_cycles=10**9, watchdog_cycles=200)
        message = str(excinfo.value)
        assert "no pipeline progress for 200 cycles" in message
        assert "stuck[occ 2/2" in message  # per-FIFO occupancy dump
        assert "wedged[idle" in message  # per-module state dump
        assert sim.cycle < 1000, "watchdog must fire long before max_cycles"

    def test_progress_defers_the_watchdog(self):
        sim = Simulator([_BusyModule("spin")], [])
        with pytest.raises(SimulationError, match="exceeded 5000 cycles"):
            sim.run_until(lambda: False, max_cycles=5000, watchdog_cycles=100)

    def test_watchdog_none_disables(self):
        sim = Simulator([_IdleModule("wedged")], [])
        with pytest.raises(SimulationError, match="exceeded"):
            sim.run_until(lambda: False, max_cycles=3000, watchdog_cycles=None)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_rejected(self, budget):
        sim = Simulator([_IdleModule("m")], [])
        with pytest.raises(SimulationError, match="positive"):
            sim.run_until(lambda: True, watchdog_cycles=budget)

    def test_healthy_run_unaffected(self):
        ticks = {"n": 0}

        class _Counter(Module):
            def tick(self, cycle: int) -> None:
                ticks["n"] += 1
                self.busy_cycles += 1

        sim = Simulator([_Counter("c")], [])
        cycles = sim.run_until(lambda: ticks["n"] >= 50, watchdog_cycles=10)
        assert cycles == 50

    def test_abort_records_metrics(self):
        observer = Observer()
        sim = Simulator([_IdleModule("wedged")], [])
        with use_observer(observer):
            with pytest.raises(SimulationStallError):
                sim.run_until(lambda: False, max_cycles=10**9, watchdog_cycles=64)
        assert observer.metrics.total("sim.watchdog_aborts") == 1
        (series,) = [
            value
            for key, value in observer.metrics.snapshot().items()
            if key.startswith("sim.watchdog_abort_cycle")
        ]
        assert series >= 64


class TestFifoBackpressure:
    def test_full_fifo_with_no_pop_counts_a_stall(self):
        fifo = FIFO("f", depth=2)
        fifo.push("a")
        fifo.push("b")
        fifo.commit()  # the filling cycle's pushes succeeded: not a stall
        assert fifo.stalled_cycles == 0
        fifo.commit()  # full all cycle, nothing popped: backpressure
        fifo.commit()
        assert fifo.stalled_cycles == 2

    def test_pop_breaks_the_stall(self):
        fifo = FIFO("f", depth=1)
        fifo.push("a")
        fifo.commit()
        assert fifo.pop() == "a"
        fifo.commit()
        assert fifo.stalled_cycles == 0
        assert fifo.total_popped == 1

    def test_cycle_backend_reports_stall_metrics(self, labeled_graph, starts):
        engine = LightRW(
            labeled_graph, backend="fpga-cycle", hardware_scale=64, seed=3
        )
        observer = Observer()
        result = engine.run(
            UniformWalk(), 3, starts=starts[:8], observer=observer,
        )
        assert result.ok
        keys = observer.metrics.snapshot().keys()
        assert any(k.startswith("pipeline.fifo_stall_cycles") for k in keys)
        # Every FIFO of the pipeline surfaces a labelled series.
        assert any("fifo=results" in k for k in keys)

    def test_instance_stats_carry_fifo_stalls(self, tiny_graph):
        from repro.fpga.accelerator import LightRWAcceleratorSim
        from repro.fpga.config import LightRWConfig

        sim = LightRWAcceleratorSim(
            tiny_graph, LightRWConfig(n_instances=1), UniformWalk(), seed=1
        )
        result = sim.run(np.array([0, 1, 2]), n_steps=4)
        stats = result.instances[0]
        assert set(stats.fifo_stalls) == {
            "tasks", "info", "manifests", "edges", "weighted", "results",
        }
        assert all(v >= 0 for v in stats.fifo_stalls.values())


def test_checkpoint_shard_reports_survive_strip(engine, starts, tmp_path):
    """The persisted report drops only the graph; the walk's records stay."""
    from repro.runtime import create_backend, plan_run
    from repro.runtime.backends import strip_report

    plan = plan_run("fpga-model", UniformWalk(), 4, starts, shards=1, seed=3)
    backend = create_backend("fpga-model", engine.runtime_context())
    report = backend.execute(plan, plan.shards[0])
    stripped = strip_report(report)
    assert stripped.session.graph is None
    assert report.session.graph is engine.graph  # the original is untouched
    assert len(stripped.session.records) == len(report.session.records)
    np.testing.assert_array_equal(stripped.paths, report.paths)
    fields = {f.name for f in dataclasses.fields(report)}
    assert {"paths", "lengths", "session"} <= fields
    # The merge re-attaches the graph and costs the walk.
    merged = backend.merge(plan, [stripped])
    assert merged.session.graph is engine.graph
    assert merged.kernel_s > 0
