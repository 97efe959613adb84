#!/usr/bin/env python
"""Peek inside the accelerator with the cycle-accurate backend.

Runs a small MetaPath batch on both FPGA backends, verifies the walks are
bit-identical, and prints the per-instance hardware counters the clocked
simulator collects (DRAM occupancy, cache hits, burst efficiency).

Usage:  python examples/cycle_accurate_inspection.py
"""

import numpy as np

from repro import LightRW, LightRWConfig, MetaPathWalk, load_dataset, make_queries

SCALE = 1024


def main() -> None:
    graph = load_dataset("youtube", scale_divisor=SCALE)
    print(f"graph: {graph}")

    config = LightRWConfig(n_instances=2, max_inflight=16)
    walk = MetaPathWalk([0, 1, 2, 3])
    starts = make_queries(graph, n_queries=64, seed=9)

    cycle = LightRW(graph, config=config, backend="fpga-cycle",
                    hardware_scale=SCALE, seed=9)
    model = LightRW(graph, config=config, backend="fpga-model",
                    hardware_scale=SCALE, seed=9)

    print("\nsimulating cycle by cycle ...")
    r_cycle = cycle.run(walk, n_steps=5, starts=starts)
    r_model = model.run(walk, n_steps=5, starts=starts)

    identical = all(
        np.array_equal(
            r_cycle.paths[q, : r_cycle.lengths[q] + 1],
            r_model.paths[q, : r_model.lengths[q] + 1],
        )
        for q in range(starts.size)
    )
    print(f"walks bit-identical across backends: {identical}")
    print(f"cycle-accurate kernel: {r_cycle.breakdown.detail.cycles} cycles "
          f"({r_cycle.kernel_s * 1e6:.1f} us at 300 MHz)")
    print(f"analytic model kernel: {r_model.breakdown.detail.kernel_cycles:.0f} cycles "
          f"({r_model.kernel_s * 1e6:.1f} us)")

    print("\nper-instance hardware counters (cycle backend):")
    for index, stats in enumerate(r_cycle.breakdown.detail.instances):
        if stats.cycles == 0:
            continue
        print(f"  instance {index}: {stats.cycles} cycles, "
              f"DRAM busy {stats.dram_busy_cycles} "
              f"({stats.dram_busy_cycles / stats.cycles:.0%}), "
              f"{stats.dram_requests} requests, "
              f"cache hit {stats.cache_hit_ratio:.1%}, "
              f"burst valid-data {stats.valid_ratio:.1%}")

    print("\npipeline utilization (busy fraction per module):")
    for name, value in sorted(
        r_cycle.breakdown.detail.utilization_report().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:<16}{value:6.1%}")

    stats = r_cycle.query_latency_s
    print(f"\nper-query latency: median {np.median(stats) * 1e6:.1f} us, "
          f"max {stats.max() * 1e6:.1f} us")


if __name__ == "__main__":
    main()
