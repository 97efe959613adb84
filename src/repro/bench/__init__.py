"""Experiment harness: one regenerator per paper table and figure.

Each experiment module exposes ``run(**params) -> ExperimentResult``; the
CLI (``python -m repro.bench <experiment>`` or the ``lightrw-bench``
entry point) runs them and prints the paper-style tables;
:mod:`repro.bench.verdict` checks each saved result against its claim.
"""

from repro.bench.common import ExperimentResult, REGISTRY, register

# Importing the experiment modules populates the registry.
from repro.bench import (  # noqa: F401  (imported for registration side effect)
    ablation_cache,
    ablation_dse,
    ablation_parallelism,
    ablation_sampler,
    energy_capacity,
    fig06_burst_bandwidth,
    fig10_wrs_throughput,
    fig11_cache_miss,
    fig12_burst_strategies,
    fig13_breakdown,
    fig14_speedup,
    fig15_latency,
    fig16_query_count,
    fig17_query_length,
    fig18_link_prediction,
    future_work,
    realtime,
    roofline_bench,
    table1_cpu_profile,
    table2_datasets,
    table3_power,
    table4_pcie,
    table5_resources,
)

__all__ = ["ExperimentResult", "REGISTRY", "register"]
