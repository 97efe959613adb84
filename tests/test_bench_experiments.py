"""Experiment harness: the registry and an experiment result's formats.

Every experiment's rows are held to the committed ``results/`` by
``tests/test_results_oracle.py`` and its claim by ``repro.bench.verdict``.
"""

from __future__ import annotations

from repro.bench import REGISTRY
from repro.bench.table2_datasets import run as table2
from repro.bench.table5_resources import run as table5


def test_registry_covers_every_table_and_figure():
    expected = {
        "table1", "table2", "table3", "table4", "table5",
        "fig6", "fig10a", "fig10b", "fig11", "fig12", "fig13",
        "fig14", "fig15", "fig16", "fig17", "fig18",
    }
    assert expected <= set(REGISTRY)


def test_result_formatting():
    result = table5()
    text = result.report()
    assert "table5" in text
    assert "metapath" in text


def test_result_save_json(tmp_path):
    result = table2(scale_divisor=2048)
    path = result.save_json(tmp_path)
    assert path.exists()
    assert "livejournal" in path.read_text()
