"""Host-side models: PCIe transfer, power efficiency, FPGA resources."""

from __future__ import annotations

import pytest

from repro.fpga.config import LightRWConfig
from repro.fpga.pcie import PCIeModel, QUERY_BYTES
from repro.fpga.power import PowerModel
from repro.fpga.resources import ResourceModel, U250


class TestPCIe:
    def test_transfer_time_linear_plus_setup(self):
        model = PCIeModel()
        t1 = model.transfer_s(12e9)  # one second of payload
        assert t1 == pytest.approx(1.0 + model.setup_latency_s)
        assert model.transfer_s(0) == 0.0

    def test_negative_bytes(self):
        with pytest.raises(ValueError):
            PCIeModel().transfer_s(-1)

    def test_graph_replicated_per_instance(self, tiny_graph):
        one = PCIeModel(graph_copies=1).host_to_board_s(tiny_graph, 0)
        four = PCIeModel(graph_copies=4).host_to_board_s(tiny_graph, 0)
        setup = PCIeModel().setup_latency_s
        assert (four - setup) == pytest.approx(4 * (one - setup))

    def test_queries_add_bytes(self, tiny_graph):
        model = PCIeModel()
        base = model.host_to_board_s(tiny_graph, 0)
        with_queries = model.host_to_board_s(tiny_graph, 1000)
        expected = 1000 * QUERY_BYTES / model.bandwidth_bytes_per_s
        assert with_queries - base == pytest.approx(expected)

    def test_overhead_fraction(self, tiny_graph):
        # PCIe share of end-to-end time (the Table 4 percentages).
        pcie_s = PCIeModel().round_trip_s(tiny_graph, 100, 1000)
        assert 0 < pcie_s / (pcie_s + 1.0) < 0.01  # tiny transfer vs 1 s kernel
        assert pcie_s / (pcie_s + 1e-9) > 0.99


class TestPower:
    def test_ranges_match_paper_envelopes(self):
        metapath = PowerModel("metapath")
        assert 41 <= metapath.fpga_watts(0.0) <= metapath.fpga_watts(1.0) <= 45
        assert 103 <= metapath.cpu_watts(0.0) <= metapath.cpu_watts(1.0) <= 124

    def test_unknown_application(self):
        with pytest.raises(ValueError):
            PowerModel("pagerank")

    def test_efficiency_formula(self):
        model = PowerModel("node2vec")
        # 8x faster at ~1/3 the power -> ~24x efficiency.
        improvement = model.efficiency_improvement(1.0, 8.0)
        expected = 8.0 * model.cpu_watts(0.8) / model.fpga_watts(0.8)
        assert improvement == pytest.approx(expected)

    def test_invalid_times(self):
        with pytest.raises(ValueError):
            PowerModel("metapath").efficiency_improvement(0.0, 1.0)


class TestResources:
    def test_default_builds_match_table5(self):
        model = ResourceModel()
        config = LightRWConfig()
        paper = {
            "metapath": {"LUTs": 0.3352, "REGs": 0.2976, "BRAMs": 0.1724, "DSPs": 0.0516},
            "node2vec": {"LUTs": 0.2084, "REGs": 0.1820, "BRAMs": 0.3612, "DSPs": 0.0262},
        }
        for app, expected in paper.items():
            utilization = model.estimate(config, app).utilization()
            for resource, value in expected.items():
                assert utilization[resource] == pytest.approx(value, abs=0.01), (
                    app, resource
                )

    def test_everything_fits_the_device(self):
        model = ResourceModel()
        for app in ("metapath", "node2vec", "uniform", "static"):
            utilization = model.estimate(LightRWConfig(), app).utilization()
            assert all(v < 0.8 for v in utilization.values())

    def test_scales_with_k(self):
        model = ResourceModel()
        small = model.estimate(LightRWConfig(k=4), "metapath")
        large = model.estimate(LightRWConfig(k=64), "metapath")
        assert large.luts > small.luts
        assert large.dsps > small.dsps

    def test_scales_with_cache(self):
        model = ResourceModel()
        small = model.estimate(LightRWConfig(cache_entries=1 << 10), "metapath")
        large = model.estimate(LightRWConfig(cache_entries=1 << 14), "metapath")
        assert large.brams > small.brams

    def test_scales_with_instances(self):
        model = ResourceModel()
        one = model.estimate(LightRWConfig(n_instances=1), "metapath")
        four = model.estimate(LightRWConfig(n_instances=4), "metapath")
        assert four.luts > 2 * one.luts

    def test_unknown_app_uses_generic_costs(self):
        estimate = ResourceModel().estimate(LightRWConfig(), "pagerank")
        assert estimate.luts > 0

    def test_device_constants(self):
        assert U250.luts == 1_341_000
        assert U250.brams == 2_000
        assert U250.dsps == 11_508
