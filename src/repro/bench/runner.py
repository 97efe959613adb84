"""Experiment CLI: ``lightrw-bench <experiment ...>`` or ``python -m repro.bench``.

``lightrw-bench --list`` shows every registered table/figure regenerator;
``lightrw-bench all`` runs the complete evaluation and writes JSON results
next to the printed tables; ``--verdict`` then scores each saved
experiment against its claim (:mod:`repro.bench.verdict`).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import REGISTRY
from repro.bench.common import describe_backends
from repro.obs import Observer, configure_logging, use_observer


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="lightrw-bench",
        description="Regenerate the LightRW paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (e.g. fig14 table1), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--backends",
        action="store_true",
        help="list the registered execution backends and exit",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=None,
        help="dataset scale divisor override (default per experiment, 512)",
    )
    parser.add_argument(
        "--save-dir",
        default=None,
        help="directory to write per-experiment JSON results",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="after running, aggregate --save-dir results into one markdown report",
    )
    parser.add_argument(
        "--verdict",
        action="store_true",
        help="after running, score the experiments saved in --save-dir against "
             "the paper's claims",
    )
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="skip attaching telemetry snapshots to the saved JSON results",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first failing experiment instead of running the "
             "rest and reporting the failures at the end",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="enable structured logging at this level (debug/info/...)",
    )
    args = parser.parse_args(argv)
    configure_logging(args.log_level)

    if args.backends:
        for name, description in describe_backends():
            print(f"{name:<14} {description}")
        return 0

    if args.list or not args.experiments:
        for name in sorted(REGISTRY):
            print(name)
        return 0

    names = sorted(REGISTRY) if args.experiments == ["all"] else args.experiments
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(REGISTRY))}", file=sys.stderr)
        return 2

    failed: list[tuple[str, Exception]] = []
    for name in names:
        run = REGISTRY[name]
        kwargs = {}
        if args.scale is not None and "scale_divisor" in run.__code__.co_varnames:
            kwargs["scale_divisor"] = args.scale
        started = time.perf_counter()
        # Runs inside every experiment execute through the LightRW facade,
        # which picks up the ambient observer — so each saved report
        # carries the metric series its own runs produced.
        observer = None if args.no_metrics else Observer()
        try:
            with use_observer(observer):
                result = run(**kwargs)
        except Exception as exc:  # noqa: BLE001 - experiment isolation
            # One broken experiment must not discard the rest of an
            # `all` sweep; mirror the scheduler's degraded-mode contract.
            if args.strict:
                raise
            failed.append((name, exc))
            print(
                f"experiment {name} failed: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            print()
            continue
        if observer is not None and len(observer.metrics):
            result.metrics = observer.metrics.snapshot()
        elapsed = time.perf_counter() - started
        print(result.report())
        print(f"({elapsed:.1f}s)")
        print()
        if args.save_dir:
            path = result.save_json(args.save_dir)
            print(f"saved {path}")
    if args.report:
        if not args.save_dir:
            print("--report requires --save-dir", file=sys.stderr)
            return 2
        from repro.bench.report import write_report

        destination = write_report(args.save_dir, args.report)
        print(f"wrote report to {destination}")
    if args.verdict:
        if not args.save_dir:
            print("--verdict requires --save-dir", file=sys.stderr)
            return 2
        from repro.bench.verdict import score_reproduction, summary

        verdicts = score_reproduction(args.save_dir)
        print(summary(verdicts))
        if not all(v.passed for v in verdicts):
            return 1
    if failed:
        print(
            f"{len(failed)} of {len(names)} experiment(s) failed: "
            + ", ".join(name for name, _ in failed),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
