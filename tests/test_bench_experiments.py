"""Experiment harness: every regenerator runs and shows the paper's shape.

These use deliberately small parameters — the full-size runs are scored
by ``repro.bench.verdict``; here we assert the *qualitative* claims cheaply.
"""

from __future__ import annotations

import pytest

from repro.bench import REGISTRY
from repro.bench.ablation_sampler import run as ablation_sampler
from repro.bench.fig06_burst_bandwidth import run as fig6
from repro.bench.fig10_wrs_throughput import run_parallelism, run_stream_lengths
from repro.bench.fig11_cache_miss import run as fig11
from repro.bench.fig12_burst_strategies import run as fig12
from repro.bench.fig13_breakdown import run as fig13
from repro.bench.fig14_speedup import run as fig14
from repro.bench.fig16_query_count import run as fig16
from repro.bench.fig17_query_length import run as fig17
from repro.bench.table1_cpu_profile import run as table1
from repro.bench.table2_datasets import run as table2
from repro.bench.table4_pcie import run as table4
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


@pytest.fixture(scope="module")
def table1_512():
    return table1(scale_divisor=512, node2vec_length=10)


class TestShapes:
    def test_fig6_monotone(self):
        result = fig6(scale_divisor=2048, burst_lengths=(1, 4, 16, 64))
        bandwidths = [row["bandwidth_gbps"] for row in result.rows]
        ratios = [row["valid_data_ratio"] for row in result.rows]
        assert bandwidths == sorted(bandwidths)
        assert ratios == sorted(ratios, reverse=True)
        assert bandwidths[-1] == pytest.approx(17.57, rel=0.01)

    def test_fig10a_saturates(self):
        result = run_parallelism(k_values=(1, 4, 16, 32))
        rates = [float(row["measured_items_per_s"]) for row in result.rows]
        assert rates[1] == pytest.approx(4 * rates[0], rel=0.01)
        assert rates[3] == pytest.approx(rates[2], rel=0.01)  # saturated

    def test_fig10b_short_streams_slower(self):
        result = run_stream_lengths(exponents=(6, 12))
        fractions = [row["fraction_of_peak"] for row in result.rows]
        assert fractions[0] < fractions[1]
        assert fractions[1] == pytest.approx(1.0, abs=0.05)

    def test_fig11_dac_beats_dmc_beyond_capacity(self):
        result = fig11(scales=(8, 14), max_queries=1 << 12, walk_length=15)
        small, large = result.rows
        assert small["dac_miss_ratio"] < 0.2  # fits
        assert large["dac_miss_ratio"] < large["dmc_miss_ratio"]

    def test_fig12_dynamic_beats_baseline_b2_worst(self):
        result = fig12(scale_divisor=512, rmat_scales=(14,), long_lengths=(0, 2, 32))
        for row in result.rows:
            assert row["b1+b32"] > 1.2
            assert row["b1+b2"] < 1.0

    def test_fig13_wrs_contributes_most(self):
        result = fig13(scale_divisor=512, graphs=("livejournal",), node2vec_length=10)
        for row in result.rows:
            assert row["w/o WRS"] < 0.7  # big loss
            assert row["w/o DAC"] > 0.9  # small loss
            assert row["w/o WRS"] < row["w/o DAC"]

    def test_fig14_lightrw_wins(self):
        result = fig14(
            scale_divisor=512, graphs=("livejournal",), node2vec_length=10,
            max_sampled_queries=256,
        )
        for row in result.rows:
            assert row["speedup"] > 1.5

    def test_fig16_small_batches_amplify_speedup(self):
        result = fig16(
            scale_divisor=512, query_exponents=(10, 18), max_sampled_queries=256,
            node2vec_length=10,
        )
        metapath = [r for r in result.rows if r["app"] == "MetaPath"]
        assert metapath[0]["speedup"] > metapath[1]["speedup"]
        # LightRW throughput stays roughly flat.
        light = [float(r["lightrw_steps_per_s"]) for r in metapath]
        assert light[1] == pytest.approx(light[0], rel=0.5)

    def test_fig17_speedup_stable_across_lengths(self):
        result = fig17(scale_divisor=512, lengths=(10, 40), max_sampled_queries=256)
        for app in ("MetaPath", "Node2Vec"):
            rows = [r for r in result.rows if r["app"] == app]
            speedups = [r["speedup"] for r in rows]
            assert max(speedups) / min(speedups) < 1.8

    def test_table1_memory_dominates(self, table1_512):
        for row in table1_512.rows:
            miss = float(row["llc_miss"].rstrip("%"))
            retiring = float(row["retiring"].rstrip("%"))
            assert miss > 30.0
            assert retiring < 50.0

    def test_table4_metapath_pays_more_pcie(self):
        result = table4(
            scale_divisor=1024, node2vec_length=40, max_sampled_queries=256
        )
        metapath, node2vec = result.rows
        lj_mp = float(metapath["livejournal"].split("%")[0])
        lj_n2v = float(node2vec["livejournal"].split("%")[0])
        assert lj_mp > 5 * lj_n2v

    def test_table5_matches_paper(self):
        result = table5()
        for row in result.rows:
            for column in ("LUTs", "REGs", "BRAMs", "DSPs"):
                ours = float(row[column].split("%")[0])
                paper = float(row[column].split("paper ")[1].rstrip(")%"))
                assert ours == pytest.approx(paper, abs=1.0)


class TestThunderRWPinned:
    """Every ThunderRW figure is ``cpu_time_for_session`` over a
    ``run_walks`` session; these pin the CPU numbers the experiments
    report, so a change to that path that moves one fails here."""

    def test_table1_profile(self, table1_512):
        got = [
            (r["app"], r["graph"], r["llc_miss"], r["memory_bound"], r["retiring"])
            for r in table1_512.rows
        ]
        assert got == [
            ("MetaPath", "livejournal", "62.1%", "53.5%", "26.0%"),
            ("MetaPath", "uk2002", "65.0%", "64.0%", "16.4%"),
            ("Node2Vec", "livejournal", "62.4%", "55.8%", "24.0%"),
            ("Node2Vec", "uk2002", "65.3%", "60.7%", "19.5%"),
        ]

    def test_ablation_sampler(self):
        result = ablation_sampler(scale_divisor=512)
        assert result.rows == [
            {
                "graph": "livejournal",
                "fpga_wrs_over_table": 2.59,
                "cpu_itx_over_pwrs": 0.93,
                "cpu_alias_over_itx": 1.11,
            },
            {
                "graph": "orkut",
                "fpga_wrs_over_table": 2.71,
                "cpu_itx_over_pwrs": 0.94,
                "cpu_alias_over_itx": 1.13,
            },
        ]

    def test_fig14_speedups(self):
        result = fig14(
            scale_divisor=512, graphs=("youtube", "orkut"), node2vec_length=10,
            max_sampled_queries=256,
        )
        got = [
            (r["graph"], r["app"], r["speedup"], r["thunderrw_w_pwrs"])
            for r in result.rows
        ]
        assert got == [
            ("youtube", "MetaPath", 3.44, 1.06),
            ("youtube", "Node2Vec", 2.69, 1.02),
            ("orkut", "MetaPath", 4.91, 1.06),
            ("orkut", "Node2Vec", 5.0, 1.11),
        ]
