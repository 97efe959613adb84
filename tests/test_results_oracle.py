"""The committed ``results/`` files as the oracle for modeled output.

Every registered experiment is re-run through
``lightrw-bench all --save-dir --verdict`` and its saved params and rows
must equal the committed file's.  Only modeled numbers appear in these
rows (no host wall-clock field), so they are compared exactly, with no
tolerance.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import REGISTRY
from repro.bench.common import load_result_json
from repro.bench.runner import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    directory = tmp_path_factory.mktemp("results")
    argv = ["all", "--save-dir", str(directory), "--no-metrics", "--strict", "--verdict"]
    assert main(argv) == 0
    return directory


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_rows_equal_committed_results(saved, name):
    committed = load_result_json(RESULTS / f"{name}.json")
    produced = load_result_json(saved / f"{name}.json")
    assert produced["params"] == committed["params"]
    assert produced["rows"] == committed["rows"]
