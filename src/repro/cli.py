"""Command-line interface: ``python -m repro <command>``.

Five commands for working with the library from a shell:

* ``info <graph>``     — load a graph and print its statistics;
* ``generate <kind>``  — synthesize a graph and save it as a CSR bundle;
* ``walk <graph>``     — run GDRW queries and write the paths;
* ``rngtest``          — run the randomness battery on the lane generator;
* ``obs summarize``    — digest telemetry JSONL written by ``walk --metrics``.

Graphs are referenced either by dataset name (``livejournal``, ``yt``, ...)
or by file path (``.npz`` CSR bundles or ``src dst [weight]`` text).

``walk`` exposes the observability layer: ``--metrics out.jsonl`` appends
one run record (manifest + metric series + spans), ``--trace-out
trace.json`` writes a ``chrome://tracing`` / Perfetto file, and the
global ``--log-level`` flag wires structured :mod:`logging`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from repro.artifacts import save_npz_checked
from repro.core.api import LightRW
from repro.core.queries import make_queries
from repro.errors import ConfigError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.generators import chung_lu_graph, erdos_renyi_graph, rmat_graph
from repro.graph.io import load_csr_npz, load_edge_list_text, save_csr_npz
from repro.graph.labels import assign_random_weights, assign_vertex_labels
from repro.graph.stats import degree_histogram, degree_stats
from repro.obs import (
    LOG_LEVELS,
    Observer,
    append_jsonl,
    configure_logging,
    read_jsonl,
    run_record,
    summarize_records,
    write_chrome_trace,
)
from repro.runtime import (
    EXECUTION_MODES,
    InjectedFault,
    RetryPolicy,
    backend_names,
    describe_backends,
)
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.static import StaticWalk
from repro.walks.uniform import UniformWalk

logger = logging.getLogger(__name__)


def _load_graph(spec: str, scale: int, seed: int) -> CSRGraph:
    if scale < 1:
        raise SystemExit(f"error: --scale must be a positive divisor, got {scale}")
    lowered = spec.lower()
    abbreviations = {s.abbreviation.lower() for s in DATASETS.values()}
    if lowered in DATASETS or lowered in abbreviations:
        return load_dataset(spec, scale_divisor=scale, seed=seed)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(f"error: {spec!r} is neither a dataset name nor a file")
    if path.suffix == ".npz":
        return load_csr_npz(path)
    return load_edge_list_text(path)


def _make_algorithm(args: argparse.Namespace):
    if args.algorithm == "node2vec":
        return Node2VecWalk(p=args.p, q=args.q)
    if args.algorithm == "metapath":
        schema = [int(x) for x in args.schema.split(",")]
        return MetaPathWalk(schema)
    if args.algorithm == "static":
        return StaticWalk()
    return UniformWalk()


def cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.scale, args.seed)
    print(graph)
    stats = degree_stats(graph)
    for key, value in stats.as_row().items():
        print(f"  {key}: {value}")
    if args.histogram:
        print("  degree histogram:")
        for bucket, count in degree_histogram(graph):
            if count:
                print(f"    {bucket:>16}: {count}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "rmat":
        graph = rmat_graph(args.vertices_log2, edge_factor=args.edge_factor, seed=args.seed)
    elif args.kind == "chung-lu":
        graph = chung_lu_graph(
            1 << args.vertices_log2, avg_degree=float(args.edge_factor), seed=args.seed
        )
    else:
        graph = erdos_renyi_graph(
            1 << args.vertices_log2, avg_degree=float(args.edge_factor), seed=args.seed
        )
    if args.labels:
        graph = assign_vertex_labels(graph, n_labels=args.labels, seed=args.seed + 1)
    if args.weights:
        graph = assign_random_weights(graph, seed=args.seed + 2)
    save_csr_npz(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    return 0


def _parse_faults(specs: list[str] | None) -> list[InjectedFault]:
    """Parse ``--inject-fault SHARD[:ATTEMPTS[:DELAY]]`` specs."""
    faults: list[InjectedFault] = []
    for spec in specs or []:
        parts = spec.split(":")
        try:
            shard = int(parts[0])
            attempts = int(parts[1]) if len(parts) > 1 and parts[1] else -1
            delay = float(parts[2]) if len(parts) > 2 and parts[2] else 0.0
        except (ValueError, IndexError):
            raise SystemExit(
                f"error: bad --inject-fault spec {spec!r} "
                f"(want SHARD[:ATTEMPTS[:DELAY]], e.g. '2:-1' or '0:1:0.5')"
            ) from None
        faults.append(
            InjectedFault(shard=shard, fail_attempts=attempts, delay_s=delay)
        )
    return faults


def cmd_walk(args: argparse.Namespace) -> int:
    if args.backend not in backend_names():
        raise SystemExit(
            f"error: unknown backend {args.backend!r} "
            f"(registered: {', '.join(backend_names())})"
        )
    if args.resume and not args.checkpoint_dir:
        raise ConfigError("--resume requires --checkpoint-dir")
    if args.resume and not Path(args.checkpoint_dir).is_dir():
        raise ConfigError(
            f"--resume: checkpoint directory {args.checkpoint_dir!r} does "
            f"not exist (start a run with --checkpoint-dir first)"
        )
    graph = _load_graph(args.graph, args.scale, args.seed)
    algorithm = _make_algorithm(args)
    faults = _parse_faults(args.inject_fault)
    observe = bool(args.metrics or args.trace_out)
    observer = Observer() if observe else None
    engine = LightRW(
        graph, backend=args.backend, hardware_scale=args.scale, seed=args.seed,
        observer=observer,
    )
    starts = make_queries(graph, n_queries=args.queries, seed=args.seed)
    result = engine.run(
        algorithm, args.length, starts=starts, max_sampled_queries=args.max_sampled,
        shards=args.shards, mode=args.mode, workers=args.workers,
        trace=bool(args.trace_out),
        strict=not args.no_strict,
        retry=RetryPolicy(
            max_attempts=args.retries + 1, shard_timeout_s=args.shard_timeout
        ),
        faults=faults or None,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    print(
        f"{result.num_queries} queries x {args.length} steps on {args.backend}: "
        f"{result.total_steps} steps, kernel {result.kernel_s * 1e3:.3f} ms, "
        f"{result.steps_per_second:.3g} steps/s"
    )
    if result.resumed_shards:
        print(
            f"resumed from {args.checkpoint_dir}: {result.resumed_shards} "
            f"shard(s) restored from checkpoint"
        )
    for failure in result.failures:
        last = failure.offset + failure.num_queries - 1
        print(
            f"shard {failure.shard} failed after {failure.attempts} attempt(s) "
            f"({failure.error_type}: {failure.message}); "
            f"queries {failure.offset}..{last} missing from the partial result"
        )
    if args.metrics:
        path = append_jsonl(args.metrics, run_record(result, observer))
        print(f"appended metrics record to {path}")
    if args.trace_out:
        path = write_chrome_trace(
            args.trace_out,
            spans=observer.spans.finished() if observer else None,
            tracer=result.tracer,
            cycle_result=(
                result.breakdown.detail
                if hasattr(result.breakdown.detail, "instances")
                else None
            ),
            frequency_hz=engine.config.frequency_hz,
        )
        print(f"wrote Chrome trace to {path}")
    if args.output:
        path = save_npz_checked(
            args.output, {"paths": result.paths, "lengths": result.lengths}
        )
        print(f"wrote paths to {path}")
    else:
        for q in range(min(args.show, result.paths.shape[0])):
            path = result.paths[q, : result.lengths[q] + 1]
            print(f"  {q}: {' '.join(map(str, path.tolist()))}")
    return 0


def cmd_obs_summarize(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.exists():
        raise SystemExit(f"error: no such telemetry file: {args.file!r}")
    records = read_jsonl(path)
    print(summarize_records(records))
    if args.prometheus and records:
        from repro.obs.export import prometheus_from_snapshot

        print()
        print(prometheus_from_snapshot(records[-1].get("metrics") or {}), end="")
    return 0


def cmd_rngtest(args: argparse.Namespace) -> int:
    from repro.sampling.rng import ThundeRingRNG
    from repro.sampling.stattests import run_battery

    result = run_battery(
        ThundeRingRNG(args.lanes, seed=args.seed), n_samples=args.samples
    )
    print(result.summary())
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LightRW reproduction command line"
    )
    parser.add_argument(
        "--log-level", default=None, choices=LOG_LEVELS,
        help="enable structured logging at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print graph statistics")
    info.add_argument("graph", help="dataset name or graph file")
    info.add_argument("--scale", type=int, default=512)
    info.add_argument("--seed", type=int, default=7)
    info.add_argument("--histogram", action="store_true")
    info.set_defaults(fn=cmd_info)

    gen = sub.add_parser("generate", help="synthesize a graph to a .npz bundle")
    gen.add_argument("kind", choices=["rmat", "chung-lu", "erdos-renyi"])
    gen.add_argument("output")
    gen.add_argument("--vertices-log2", type=int, default=12)
    gen.add_argument("--edge-factor", type=int, default=8)
    gen.add_argument("--labels", type=int, default=0)
    gen.add_argument("--weights", action="store_true")
    gen.add_argument("--seed", type=int, default=7)
    gen.set_defaults(fn=cmd_generate)

    backend_name_lines = "\n".join(
        f"  {name:<14} {description}" for name, description in describe_backends()
    )
    walk = sub.add_parser(
        "walk",
        help="run GDRW queries",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=f"registered backends:\n{backend_name_lines}",
    )
    walk.add_argument("graph")
    walk.add_argument("--algorithm", choices=["node2vec", "metapath", "uniform", "static"],
                      default="node2vec")
    walk.add_argument("--length", type=int, default=80)
    walk.add_argument("--queries", type=int, default=None)
    walk.add_argument("--p", type=float, default=2.0)
    walk.add_argument("--q", type=float, default=0.5)
    walk.add_argument("--schema", default="0,1,2,3")
    walk.add_argument(
        "--backend",
        default="fpga-model",
        metavar="NAME",
        help="execution backend from the runtime registry (see below)",
    )
    walk.add_argument("--scale", type=int, default=512)
    walk.add_argument("--seed", type=int, default=7)
    walk.add_argument("--max-sampled", type=int, default=2048)
    walk.add_argument(
        "--shards", type=int, default=1,
        help="split the batch's walk across N scheduler shards "
             "(same walks and modeled numbers)",
    )
    walk.add_argument(
        "--mode", choices=list(EXECUTION_MODES), default="sequential",
        help="execution mode: 'thread' runs shards on a thread pool; "
             "results are identical in both modes",
    )
    walk.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker-pool width of thread mode "
             "(default: the CPUs this process may run on, clamped to the "
             "shard count)",
    )
    walk.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry each failed shard up to N extra times (default 0)",
    )
    walk.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard attempt budget; expiry counts as a shard failure",
    )
    walk.add_argument(
        "--no-strict", action="store_true",
        help="return partial results when shards fail instead of erroring; "
             "failures are printed and recorded in the run manifest/metrics",
    )
    walk.add_argument(
        "--inject-fault", action="append", default=None,
        metavar="SHARD[:ATTEMPTS[:DELAY]]",
        help="deterministically fail shard SHARD for its first ATTEMPTS "
             "attempts (-1 = always, the default) after DELAY seconds; "
             "repeatable testing aid for the fault-tolerance paths",
    )
    walk.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist each completed shard to DIR (atomic, checksummed) so "
             "a killed run can be resumed with --resume",
    )
    walk.add_argument(
        "--resume", action="store_true",
        help="restore completed shards from --checkpoint-dir and execute "
             "only the missing ones (walks are byte-identical to an "
             "uninterrupted run)",
    )
    walk.add_argument("--output", default=None, help="write paths to .npz")
    walk.add_argument("--show", type=int, default=5, help="paths to print")
    walk.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="append a telemetry record (manifest + metrics + spans) as JSONL",
    )
    walk.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a chrome://tracing / Perfetto trace of the run "
             "(includes pipeline events on the fpga-cycle backend)",
    )
    walk.set_defaults(fn=cmd_walk)

    rng = sub.add_parser("rngtest", help="run the randomness battery")
    rng.add_argument("--lanes", type=int, default=16)
    rng.add_argument("--samples", type=int, default=50_000)
    rng.add_argument("--seed", type=int, default=7)
    rng.set_defaults(fn=cmd_rngtest)

    obs = sub.add_parser("obs", help="inspect telemetry written by walk --metrics")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="digest a telemetry JSONL file"
    )
    summarize.add_argument("file", help="JSONL file written by walk --metrics")
    summarize.add_argument(
        "--prometheus", action="store_true",
        help="also dump the last record's metrics in Prometheus text format",
    )
    summarize.set_defaults(fn=cmd_obs_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    try:
        return args.fn(args)
    except ReproError as exc:
        # Library errors (bad config, invalid query, malformed graph) are
        # user input problems at the CLI boundary: one line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
