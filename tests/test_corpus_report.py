"""The aggregate report generator."""

from __future__ import annotations

import json

import pytest

from repro.bench.common import ExperimentResult
from repro.bench.report import (
    render_experiment,
    render_report,
    text_bar_chart,
    write_report,
)


class TestTextBarChart:
    def test_proportional_bars(self):
        chart = text_bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_empty(self):
        assert text_bar_chart([], []) == "(no data)"

    def test_mismatched(self):
        with pytest.raises(ValueError):
            text_bar_chart(["a"], [1.0, 2.0])


class TestReport:
    def _save(self, tmp_path, name, rows, chartable=False):
        result = ExperimentResult(
            name=name,
            title=f"title of {name}",
            rows=rows,
            paper_expectation="expectation text",
            params={"x": 1},
            notes=["a note"],
        )
        result.save_json(tmp_path)

    def test_render_single_experiment(self, tmp_path):
        self._save(tmp_path, "table2", [{"name": "lj", "paper_V": 5}])
        payload = json.loads((tmp_path / "table2.json").read_text())
        section = render_experiment(payload)
        assert "## table2" in section
        assert "| name | paper_V |" in section
        assert "> a note" in section

    def test_chart_included_for_known_figures(self, tmp_path):
        self._save(
            tmp_path, "fig14",
            [{"graph": "yt", "speedup": 2.0}, {"graph": "lj", "speedup": 4.0}],
        )
        payload = json.loads((tmp_path / "fig14.json").read_text())
        section = render_experiment(payload)
        assert "```" in section
        assert "#" in section

    def test_full_report_ordering(self, tmp_path):
        self._save(tmp_path, "fig14", [{"graph": "yt", "speedup": 2.0}])
        self._save(tmp_path, "table1", [{"app": "mp"}])
        self._save(tmp_path, "custom-extra", [{"k": 1}])
        report = render_report(tmp_path)
        assert report.index("## table1") < report.index("## fig14")
        assert report.index("## fig14") < report.index("## custom-extra")

    def test_write_report(self, tmp_path):
        self._save(tmp_path, "table5", [{"app": "metapath"}])
        destination = write_report(tmp_path, tmp_path / "report.md")
        assert destination.read_text().startswith("# LightRW reproduction")

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            render_report(tmp_path)
