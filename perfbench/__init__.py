"""Host wall-clock benchmark of the LightRW facade on paper-shaped batches.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>``;
see ``perfbench/README.md`` for the workloads, the metrics and the traced
(per-layer) run.
"""
