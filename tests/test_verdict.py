"""Automated reproduction verdicts."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.artifacts import write_json_artifact
from repro.bench import REGISTRY
from repro.bench.common import load_result_json
from repro.bench.runner import main
from repro.bench.verdict import CHECKS, Verdict, score_reproduction, summary


def _write(tmp_path, name, rows):
    payload = {"name": name, "title": name, "paper_expectation": "", "rows": rows}
    write_json_artifact(tmp_path / f"{name}.json", payload, kind="bench-result")


class TestChecks:
    def test_fig6_passes_on_good_shape(self, tmp_path):
        _write(tmp_path, "fig6", [
            {"burst_length": 1, "bandwidth_gbps": 3.2, "valid_data_ratio": 0.9},
            {"burst_length": 64, "bandwidth_gbps": 17.57, "valid_data_ratio": 0.1},
        ])
        verdict = next(v for v in score_reproduction(tmp_path) if v.experiment == "fig6")
        assert verdict.passed

    def test_fig6_fails_on_wrong_shape(self, tmp_path):
        _write(tmp_path, "fig6", [
            {"burst_length": 1, "bandwidth_gbps": 17.57, "valid_data_ratio": 0.1},
            {"burst_length": 64, "bandwidth_gbps": 3.0, "valid_data_ratio": 0.9},
        ])
        verdict = next(v for v in score_reproduction(tmp_path) if v.experiment == "fig6")
        assert not verdict.passed

    def test_fig14_requires_youtube_smallest(self, tmp_path):
        _write(tmp_path, "fig14", [
            {"graph": graph, "app": app, "speedup": speedup, "thunderrw_w_pwrs": 1.0}
            for app, youtube in (("MetaPath", 9.0), ("Node2Vec", 2.0))
            for graph, speedup in (("youtube", youtube), ("uk2002", 3.0))
        ])
        (verdict,) = score_reproduction(tmp_path)
        assert not verdict.passed

    def test_scores_only_saved_experiments(self, tmp_path):
        _write(tmp_path, "fig6", [
            {"burst_length": 1, "bandwidth_gbps": 3.2, "valid_data_ratio": 0.9},
            {"burst_length": 64, "bandwidth_gbps": 17.57, "valid_data_ratio": 0.1},
        ])
        verdicts = score_reproduction(tmp_path)
        assert [(v.experiment, v.passed) for v in verdicts] == [("fig6", True)]

    def test_missing_file_fails_gracefully(self, tmp_path):
        """Absent experiments are not scored; none at all is one failure."""
        (tmp_path / "unrelated.json").write_text("{}")
        (verdict,) = score_reproduction(tmp_path)
        assert not verdict.passed
        assert "no checkable results" in verdict.detail

    def test_empty_rows_fail(self, tmp_path):
        _write(tmp_path, "ablation-sampler", [])
        (verdict,) = score_reproduction(tmp_path)
        assert not verdict.passed

    def test_corrupt_result_fails_its_verdict_only(self, tmp_path, capsys):
        """A truncated result is quarantined and fails; the rest are scored."""
        (tmp_path / "fig6.json").write_text('{"format_version": 1, "kind": "bench-res')
        assert main(["table5", "--save-dir", str(tmp_path), "--verdict"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] table5" in out
        assert "[FAIL] fig6" in out and "fig6.json.corrupt" in out
        assert not (tmp_path / "fig6.json").exists()

    def test_result_without_envelope_fails(self, tmp_path):
        (tmp_path / "table5.json").write_text('{"name": "table5", "rows": []}')
        (verdict,) = score_reproduction(tmp_path)
        assert not verdict.passed
        assert "corrupt result" in verdict.detail

    def test_malformed_rows_fail_gracefully(self, tmp_path):
        _write(tmp_path, "table5", [{"oops": 1}])
        verdict = next(v for v in score_reproduction(tmp_path) if v.experiment == "table5")
        assert not verdict.passed
        assert "malformed" in verdict.detail


#: (experiment, row, field, value): one committed row field moved across
#: a bound its check holds, so that the check must fail.
PERTURBATIONS = [
    ("table1", 0, "memory_bound", "80.0%"),
    ("table1", 0, "retiring", "47.0%"),
    ("table2", 0, "standin_D", 7.0),
    ("fig6", 0, "bandwidth_gbps", 4.5),
    ("fig6", -1, "bandwidth_gbps", 17.8),
    ("fig10a", 1, "measured_items_per_s", "6.1e+08"),
    ("fig10a", 2, "measured_items_per_s", "1.5e+09"),
    ("fig10a", -1, "measured_items_per_s", "4.46e+09"),
    ("fig10b", 0, "fraction_of_peak", 0.45),
    ("fig11", 3, "dac_miss_ratio", 0.2),
    ("fig11", -1, "dac_miss_ratio", 0.9),
    ("fig12", 0, "b1+b32", 1.35),
    ("fig12", 0, "b1+b4", 0.8),
    ("fig13", 0, "w/o WRS", 0.15),
    ("fig13", 0, "w/o DYB", 1.5),
    ("fig14", 8, "speedup", 21.0),
    ("fig14", 0, "thunderrw_w_pwrs", 2.5),
    ("fig15", 0, "q3_us", 30.0),
    ("fig16", 0, "lightrw_steps_per_s", "5.5e+07"),
    ("fig16", 0, "lightrw_steps_per_s", "2.1e+07"),
    ("fig16", -1, "speedup", 8.0),
    ("fig17", 0, "lightrw_steps_per_s", "5e+07"),
    ("fig17", 0, "speedup", 3.7),
    ("fig18", 0, "total", "0.3"),
    ("fig18", 1, "transfer", "0.004"),
    ("table3", 0, "efficiency_improvement", "2.5x~22.32x"),
    ("table3", 0, "efficiency_improvement", "9.38x~11x"),
    ("table3", 0, "efficiency_improvement", "9.38x~65x"),
    ("table4", 0, "youtube", "2.5%"),
    ("table4", 1, "livejournal", "6.0%"),
    ("table5", 1, "LUTs", "34.00% (paper 34.00%)"),
    ("ablation-sampler", 0, "fpga_wrs_over_table", 1.4),
    ("ablation-sampler", 0, "cpu_itx_over_pwrs", 1.6),
    ("ablation-sampler", 0, "cpu_alias_over_itx", 0.95),
    ("ablation-cache", 0, "hit_ratio", 0.14),
    ("ablation-cache", -1, "preprocessing_s", 0.0),
    ("ablation-k", 0, "bottleneck", "memory"),
    ("ablation-k", -1, "speedup_vs_k1", 3.9),
    ("ablation-cache-size", 2, "hit_ratio", 0.03),
    ("ablation-cache-size", 2, "kernel_cycles", 37400),
    ("ablation-dse", 0, "fits", False),
    ("ablation-dse", -1, "config", "k=32 b1+b0 cache=2^14 x4"),
    ("future-distributed", 4, "speedup", 13.0),
    ("future-distributed", -1, "migration_fraction", 0.9),
    ("future-hbm", 0, "U280 (16x HBM)", "2e+07"),
    ("energy", 0, "energy_improvement", 2.5),
    ("energy", 0, "edp_improvement", 10.0),
    ("future-capacity", -1, "boards", 20),
    ("realtime", 4, "mean_response_us", 200.0),
    ("realtime", -1, "arrival_qps", "3e+06"),
    ("roofline", 0, "bound", "compute"),
    ("roofline", 0, "efficiency", "4%"),
]


class TestOnRealResults:
    @pytest.fixture(scope="class")
    def results_dir(self):
        return Path(__file__).resolve().parent.parent / "results"

    def test_all_claims_reproduced(self, results_dir):
        verdicts = score_reproduction(results_dir)
        failed = [v for v in verdicts if not v.passed]
        assert not failed, summary(verdicts)
        assert len(verdicts) == len(CHECKS)

    def test_every_check_has_a_claim(self):
        for name, (claim, check) in CHECKS.items():
            assert claim
            assert callable(check)

    def test_one_check_per_registered_experiment(self):
        assert set(CHECKS) == set(REGISTRY)

    def test_every_check_has_a_perturbation(self):
        assert {name for name, *_ in PERTURBATIONS} == set(CHECKS)

    @pytest.mark.parametrize("name, row, field, value", PERTURBATIONS)
    def test_perturbed_row_fails(self, results_dir, name, row, field, value):
        rows = load_result_json(results_dir / f"{name}.json")["rows"]
        claim, check = CHECKS[name]
        assert check(rows)[0]
        rows[row][field] = value
        assert not check(rows)[0], (claim, rows[row])


class TestSummary:
    def test_scoreboard_format(self):
        verdicts = [
            Verdict("fig6", "claim", True, "good"),
            Verdict("fig14", "claim", False, "bad"),
        ]
        text = summary(verdicts)
        assert "[PASS] fig6" in text
        assert "[FAIL] fig14" in text
        assert "reproduced 1/2" in text
