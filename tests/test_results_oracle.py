"""The committed ``results/`` files as the oracle for modeled output.

Each experiment listed here is deterministic and fast enough for every
test run: it is re-run through ``lightrw-bench --save-dir`` and its saved
params and rows must equal the committed file's.  Only modeled numbers
appear in these rows (no host wall-clock field), so they are compared
exactly, with no tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.common import load_result_json
from repro.bench.runner import main

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: The degree-aware cache's figures (its miss ratios against the
#: direct-mapped baseline in Figure 11, its share of the Figure 13
#: breakdown, the policy ablation), then the other experiments that run
#: in a few seconds: the dataset table (Table 2), PCIe transfers (Table 4),
#: FPGA resources (Table 5), burst bandwidth and strategies (Figures 6 and
#: 12), WRS sampler throughput (Figure 10) and the k, cache-size and
#: design-space ablations.
ORACLE_EXPERIMENTS = (
    "fig11",
    "fig13",
    "ablation-cache",
    "table2",
    "table4",
    "fig12",
    "fig6",
    "table5",
    "ablation-k",
    "ablation-dse",
    "ablation-cache-size",
    "fig10a",
    "fig10b",
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    directory = tmp_path_factory.mktemp("results")
    argv = [*ORACLE_EXPERIMENTS, "--save-dir", str(directory), "--no-metrics", "--strict"]
    assert main(argv) == 0
    return directory


@pytest.mark.parametrize("name", ORACLE_EXPERIMENTS)
def test_rows_equal_committed_results(saved, name):
    committed = json.loads((RESULTS / f"{name}.json").read_text())
    produced = load_result_json(saved / f"{name}.json")
    assert produced["params"] == committed["params"]
    assert produced["rows"] == committed["rows"]
