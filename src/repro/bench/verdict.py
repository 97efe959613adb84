"""Automated reproduction verdicts: the one check of the paper's claims.

EXPERIMENTS.md's summary table, as code: every registered experiment
(``lightrw-bench --list``) has a *verdict check* — a predicate over its
saved result rows encoding the paper's qualitative claim, or for the
ablations and future-work studies the claim the experiment exists to
show.  ``lightrw-bench`` results can then be scored mechanically:

    from repro.bench.verdict import score_reproduction
    verdicts = score_reproduction("results/")

or ``lightrw-bench <experiments> --save-dir D --verdict``.  Only the
experiments saved in the directory are scored, so a partial run checks
what it ran; a directory holding none of them fails.

Checks express the *shape* requirements (orderings, bands, monotonicity)
rather than exact values, so they run against any saved results
directory, including ones produced with different scales or seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Callable

from repro.bench.common import load_result_json
from repro.errors import ArtifactCorruptionError
from repro.graph.datasets import DATASET_ORDER

#: The two applications of every paper figure that compares them.
APPS = ("MetaPath", "Node2Vec")

#: Figure 11's degree-aware cache holds 2^12 vertices (scaled platform).
CACHE_BITS = 12


@dataclass(frozen=True)
class Verdict:
    """Outcome of one experiment's check."""

    experiment: str
    claim: str
    passed: bool
    detail: str

    def format(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        return f"[{marker}] {self.experiment}: {self.claim} — {self.detail}"


def _percent(cell) -> float:
    return float(str(cell).split("%")[0])


def _within(value: float, expected: float, rel: float) -> bool:
    """``value`` within ``rel`` of ``expected``, relative to ``expected``."""
    return abs(value - expected) <= rel * abs(expected)


def _flat(values, ratio: float) -> bool:
    return max(values) / min(values) < ratio


def _band(values) -> str:
    values = list(values)
    return f"{min(values):.3g}-{max(values):.3g}"


def _per_app(rows) -> dict[str, tuple[list[float], list[float]]]:
    """app -> (LightRW steps/s, speedups) in row order, for each of APPS."""
    series = {}
    for app in APPS:
        app_rows = [r for r in rows if r["app"] == app]
        light = [float(r["lightrw_steps_per_s"]) for r in app_rows]
        series[app] = light, [r["speedup"] for r in app_rows]
    return series


def _check_table1(rows) -> tuple[bool, str]:
    misses = [_percent(r["llc_miss"]) for r in rows]
    bound = [_percent(r["memory_bound"]) for r in rows]
    retiring = [_percent(r["retiring"]) for r in rows]
    ok = (all(40 <= m <= 95 for m in misses) and all(25 <= b <= 75 for b in bound)
          and all(5 <= r <= 45 for r in retiring))
    return ok, (f"LLC miss {_band(misses)}%, memory bound {_band(bound)}%, "
                f"retiring {_band(retiring)}%")


def _check_table2(rows) -> tuple[bool, str]:
    errors = [abs(r["standin_D"] - r["paper_D"]) / r["paper_D"] for r in rows]
    ok = len(rows) == len(DATASET_ORDER) and max(errors) < 0.35
    return ok, f"{len(rows)} stand-ins, average degree within {max(errors):.0%} of the paper's"


def _check_fig6(rows) -> tuple[bool, str]:
    bw = [r["bandwidth_gbps"] for r in rows]
    valid = [r["valid_data_ratio"] for r in rows]
    ok = (bw == sorted(bw) and valid == sorted(valid, reverse=True)
          and _within(bw[-1], 17.57, 0.01) and bw[0] < 0.25 * bw[-1])
    return ok, f"bandwidth {bw[0]} -> {bw[-1]} GB/s, valid {valid[0]} -> {valid[-1]}"


def _check_fig10a(rows) -> tuple[bool, str]:
    points = [(r["k"], float(r["measured_items_per_s"])) for r in rows]
    rates = [rate for _, rate in points]
    k1, rate1 = points[0]
    # Linear within 1% while far from the memory roof, within 15% up to it.
    exact = all(_within(rate, rate1 * k / k1, 0.01) for k, rate in points if k <= 4)
    linear = all(
        _within(rate, prev_rate * k / prev_k, 0.15)
        for (prev_k, prev_rate), (k, rate) in zip(points, points[1:])
        if k <= 16
    )
    saturated = [rate for k, rate in points if k >= 16]
    ok = (rates == sorted(rates) and exact and linear
          and _within(max(saturated), min(saturated), 0.01))
    return ok, f"linear up to k = 16, saturates at {max(rates):.3g} items/s"


def _check_fig10b(rows) -> tuple[bool, str]:
    fractions = [r["fraction_of_peak"] for r in rows]
    ok = (fractions == sorted(fractions) and 0.5 < fractions[0] < fractions[-1]
          and abs(fractions[-1] - 1) <= 0.02)
    return ok, (
        f"{fractions[0]:.0%} of peak at the shortest stream, {fractions[-1]:.0%} at the longest"
    )


def _check_fig11(rows) -> tuple[bool, str]:
    ok = True
    for r in rows:
        dac, dmc = r["dac_miss_ratio"], r["dmc_miss_ratio"]
        fits = int(str(r["vertices"]).split("^")[1]) <= CACHE_BITS
        # Within capacity only cold misses remain; beyond it DAC wins.
        ok = ok and dac <= dmc and (dac < 0.15 if fits else dac < dmc)
    last = rows[-1]
    ok = ok and last["dmc_miss_ratio"] > 0.9
    ok = ok and last["dac_miss_ratio"] < last["dmc_miss_ratio"] - 0.05
    return ok, (
        f"at {last['vertices']}: DAC {last['dac_miss_ratio']} vs "
        f"DMC {last['dmc_miss_ratio']}"
    )


def _check_fig12(rows) -> tuple[bool, str]:
    strategies = [{k: v for k, v in r.items() if k != "graph"} for r in rows]
    ok = all(
        s["b1+b32"] > 1.4 and s["b1+b2"] < 1.0 and s["b1+b2"] == min(s.values())
        for s in strategies
    )
    best = max(s["b1+b32"] for s in strategies)
    return ok, f"b1+b32 up to {best}x, b1+b2 the worst strategy and always < 1x"


def _check_fig13(rows) -> tuple[bool, str]:
    ok = all(
        0.2 < r["w/o WRS"] < 0.7 and r["w/o DAC"] > 0.9 and r["w/o WRS"] < r["w/o DAC"]
        for r in rows
    )
    dyb = {app: fmean(r["w/o DYB"] for r in rows if r["app"] == app) for app in APPS}
    ok = ok and dyb["MetaPath"] < dyb["Node2Vec"]
    return ok, (
        f"w/o WRS {_band(r['w/o WRS'] for r in rows)}, w/o DAC > 0.9; mean w/o DYB "
        f"MetaPath {dyb['MetaPath']:.2f} < Node2Vec {dyb['Node2Vec']:.2f}"
    )


def _check_fig14(rows) -> tuple[bool, str]:
    speedups = {(r["graph"], r["app"]): r["speedup"] for r in rows}
    pwrs = [r["thunderrw_w_pwrs"] for r in rows]
    ok = all(1.5 < v < 20.0 for v in speedups.values()) and all(0.4 < v < 2.2 for v in pwrs)
    for app in APPS:
        per_app = {g: v for (g, a), v in speedups.items() if a == app}
        ok = ok and min(per_app, key=per_app.get) == "youtube"
    return ok, (
        f"speedups {_band(speedups.values())}x, youtube smallest (paper: 5.2-9.6x); "
        f"ThunderRW w/ PWRS {_band(pwrs)}x"
    )


def _relative_iqr(row) -> float:
    return (row["q3_us"] - row["q1_us"]) / max(row["median_us"], 1e-9)


def _check_fig15(rows) -> tuple[bool, str]:
    by_key = {(r["graph"], r["app"], r["system"]): r for r in rows}
    ok = True
    for (graph, app, system), light in by_key.items():
        if system == "LightRW":
            thunder = by_key[(graph, app, "ThunderRW")]
            ok = ok and light["median_us"] < thunder["median_us"]
            ok = ok and _relative_iqr(light) <= 1.5 * _relative_iqr(thunder)
    return ok, "LightRW median latency lower and spread tighter on every workload"


def _check_fig16(rows) -> tuple[bool, str]:
    ok = True
    details = []
    for app, (light, speedups) in _per_app(rows).items():
        ok = ok and _flat(light, 1.5)
        ok = ok and speedups[0] == max(speedups) and speedups[0] > 3 * speedups[-1]
        details.append(f"{app} {speedups[0]}x -> {speedups[-1]}x")
    return ok, "; ".join(details)


def _check_fig17(rows) -> tuple[bool, str]:
    ok = True
    details = []
    for app, (light, speedups) in _per_app(rows).items():
        ok = ok and _flat(speedups, 1.7) and _flat(light, 1.7) and min(speedups) > 1.5
        details.append(f"{app} {_band(speedups)}x")
    return ok, "; ".join(details)


def _check_fig18(rows) -> tuple[bool, str]:
    snap, accel = ({k: float(v) for k, v in r.items() if k != "deployment"} for r in rows)
    speedup = snap["total"] / accel["total"]
    ok = snap["walk"] >= max(snap["learning"], snap["scoring"]) and 1.3 < speedup < 4.0
    ok = ok and accel["transfer"] < 0.05 * accel["total"]
    return ok, (
        f"walk dominates SNAP; end-to-end {speedup:.2f}x (paper: ~2x); "
        f"transfer {accel['transfer'] / accel['total']:.1%} of the total"
    )


def _check_table3(rows) -> tuple[bool, str]:
    bands = [
        [float(part.rstrip("x")) for part in r["efficiency_improvement"].split("~")]
        for r in rows
    ]
    ok = all(low > 3 and 12 < high < 60 for low, high in bands)
    highs = [high for _, high in bands]
    return ok, f"efficiency up to {max(highs)}x (paper: up to 26x)"


def _check_table4(rows) -> tuple[bool, str]:
    metapath, node2vec = rows
    mp = [_percent(metapath[g]) for g in DATASET_ORDER]
    n2v = [_percent(node2vec[g]) for g in DATASET_ORDER]
    ok = all(3 < m < 60 and n < 12 and 5 * n < m for m, n in zip(mp, n2v))
    return ok, f"PCIe share: MetaPath {_band(mp)}%, Node2Vec {_band(n2v)}%"


def _check_table5(rows) -> tuple[bool, str]:
    metapath, node2vec = rows
    worst = max(
        abs(_percent(row[column]) - float(row[column].split("paper ")[1].rstrip(")%")))
        for row in rows
        for column in ("LUTs", "REGs", "BRAMs", "DSPs")
    )
    # The paper's contrast: MetaPath's build is logic-heavy, Node2Vec's
    # BRAM-heavy (the previous-stream membership buffer).
    ok = worst <= 1.0 and _percent(metapath["LUTs"]) > _percent(node2vec["LUTs"])
    ok = ok and _percent(node2vec["BRAMs"]) > _percent(metapath["BRAMs"])
    return ok, f"max deviation from paper {worst:.2f} pt, MetaPath LUT- and Node2Vec BRAM-heavy"


def _check_ablation_sampler(rows) -> tuple[bool, str]:
    ok = all(
        r["fpga_wrs_over_table"] > 1.5 and r["cpu_itx_over_pwrs"] < 1.5
        and r["cpu_alias_over_itx"] > 1
        for r in rows
    )
    return ok, (
        f"FPGA WRS over table {_band(r['fpga_wrs_over_table'] for r in rows)}x; "
        f"CPU inverse transform over PWRS {_band(r['cpu_itx_over_pwrs'] for r in rows)}x"
    )


def _check_ablation_cache(rows) -> tuple[bool, str]:
    by_policy = {r["policy"]: r for r in rows}
    dac = by_policy["degree-aware"]["hit_ratio"]
    reorder = by_policy["degree-reorder+pin"]
    ok = all(dac > by_policy[p]["hit_ratio"] for p in ("direct-mapped", "lru", "fifo"))
    # Reordering is the offline upper bound, paid for in preprocessing.
    ok = ok and reorder["preprocessing_s"] > 0 and reorder["hit_ratio"] >= dac
    return ok, f"DAC hit ratio {dac} above every recency policy; reorder+pin {reorder['hit_ratio']}"


def _check_ablation_k(rows) -> tuple[bool, str]:
    speedups = [r["speedup_vs_k1"] for r in rows]
    ok = rows[0]["bottleneck"] == "sampler" and rows[-1]["bottleneck"] == "memory"
    ok = ok and max(speedups) > 2.0 and speedups[-1] < 1.2 * speedups[-2]
    return ok, (
        f"sampler-bound at k = {rows[0]['k']}, memory-bound at k = {rows[-1]['k']}, "
        f"up to {max(speedups)}x over k = 1"
    )


def _check_ablation_cache_size(rows) -> tuple[bool, str]:
    hits = [r["hit_ratio"] for r in rows]
    cycles = [r["kernel_cycles"] for r in rows]
    ok = all(a <= b + 1e-9 for a, b in zip(hits, hits[1:]))
    ok = ok and all(a >= b for a, b in zip(cycles, cycles[1:]))
    return ok, f"hit ratio {hits[0]} -> {hits[-1]}, kernel cycles {cycles[0]} -> {cycles[-1]}"


def _check_ablation_dse(rows) -> tuple[bool, str]:
    fastest = max(rows, key=lambda r: float(r["steps_per_s"]))
    ok = all(r["fits"] for r in rows)
    ok = ok and "x4" in fastest["config"] and "b1+b0" not in fastest["config"]
    return ok, f"{len(rows)} frontier points, fastest {fastest['config']}"


def _check_future_distributed(rows) -> tuple[bool, str]:
    hashed = [r for r in rows if r["partitioner"] == "hash"]
    speedups = [r["speedup"] for r in hashed]
    fractions = [r["migration_fraction"] for r in hashed]
    widest = hashed[-1]
    greedy = next(r for r in rows if r["partitioner"].startswith("greedy"))
    # Sub-linear scaling: walker migration loads the network.
    ok = speedups == sorted(speedups) and fractions == sorted(fractions)
    ok = ok and 1.5 < speedups[-1] < 0.8 * widest["boards"]
    ok = ok and greedy["migration_fraction"] < widest["migration_fraction"]
    ok = ok and greedy["speedup"] >= 0.95 * widest["speedup"]
    return ok, (
        f"hash {speedups[-1]}x on {widest['boards']} boards; greedy {greedy['speedup']}x "
        f"migrating {greedy['migration_fraction']} of steps"
    )


def _check_future_hbm(rows) -> tuple[bool, str]:
    ok = all(
        float(r["U250 (4x DDR4)"]) < float(r["U280 (16x HBM)"]) < float(r["U280 (32x HBM)"])
        for r in rows
    )
    return ok, "throughput rises from 4x DDR4 to 16x and 32x HBM for every app"


def _check_energy(rows) -> tuple[bool, str]:
    ok = all(
        r["lightrw_nj_per_step"] < r["thunderrw_nj_per_step"]
        and 3.0 < r["energy_improvement"] < r["edp_improvement"]
        for r in rows
    )
    return ok, (
        f"energy {_band(r['energy_improvement'] for r in rows)}x, "
        f"EDP {_band(r['edp_improvement'] for r in rows)}x better"
    )


def _check_future_capacity(rows) -> tuple[bool, str]:
    by_graph = {r["graph"]: r for r in rows}
    terabyte = by_graph["terabyte-scale"]
    ok = by_graph["livejournal (paper scale)"]["replication"] == "per-channel"
    ok = ok and by_graph["uk2002 (paper scale)"]["boards"] == 1
    ok = ok and terabyte["replication"] == "partitioned" and terabyte["boards"] >= 30
    return ok, f"the paper's graphs fit one board; terabyte scale needs {terabyte['boards']}"


def _check_realtime(rows) -> tuple[bool, str]:
    light = [r for r in rows if r["system"] == "LightRW"]
    thunder = [r for r in rows if r["system"] == "ThunderRW"]

    def growth(series) -> float:
        return series[-1]["mean_response_us"] / series[0]["mean_response_us"]

    # At the highest load, as a multiple of ThunderRW's arrival rate.
    sustained = float(light[-1]["arrival_qps"]) / float(thunder[-1]["arrival_qps"])
    ok = all(
        fast["mean_response_us"] < slow["mean_response_us"]
        and fast["p99_response_us"] < slow["p99_response_us"]
        for fast, slow in zip(light, thunder)
    )
    ok = ok and sustained > 3 and growth(light) <= 1.25 * growth(thunder)
    return ok, f"LightRW responds faster at every load and sustains {sustained:.1f}x the arrivals"


def _check_roofline(rows) -> tuple[bool, str]:
    efficiency = [_percent(r["efficiency"]) for r in rows]
    ok = all(r["bound"] == "memory" for r in rows) and all(5 < e <= 105 for e in efficiency)
    return ok, f"every workload memory-bound at {_band(efficiency)}% of its roof"


#: experiment id -> (claim, check over rows); one entry per registered experiment.
CHECKS: dict[str, tuple[str, Callable]] = {
    "table1": ("CPU GDRW is memory-bound", _check_table1),
    "table2": ("stand-ins keep the datasets' average degree", _check_table2),
    "fig6": ("bandwidth up, valid ratio down with burst length", _check_fig6),
    "fig10a": ("PWRS scales linearly then saturates", _check_fig10a),
    "fig10b": ("PWRS near peak at every stream length", _check_fig10b),
    "fig11": ("DAC beats DMC beyond cache capacity", _check_fig11),
    "fig12": ("b1+b32 strong, b1+b2 worst", _check_fig12),
    "fig13": ("WRS >> DYB > DAC contribution", _check_fig13),
    "fig14": ("LightRW wins everywhere, youtube least", _check_fig14),
    "fig15": ("LightRW latency lower and tighter", _check_fig15),
    "fig16": ("small batches amplify the speedup", _check_fig16),
    "fig17": ("stable speedup across walk lengths", _check_fig17),
    "table3": ("order-of-magnitude power efficiency", _check_table3),
    "table4": ("long walks amortize PCIe", _check_table4),
    "table5": ("resource model matches the paper", _check_table5),
    "fig18": ("accelerated walks halve link prediction", _check_fig18),
    "ablation-sampler": ("streaming WRS wins on the FPGA only", _check_ablation_sampler),
    "ablation-cache": ("DAC beats every recency policy", _check_ablation_cache),
    "ablation-k": ("sampler binds at small k, memory beyond", _check_ablation_k),
    "ablation-cache-size": ("larger caches hit more and run faster", _check_ablation_cache_size),
    "ablation-dse": ("the fastest design uses 4 channels and dynamic bursts",
                     _check_ablation_dse),
    "future-distributed": ("boards scale sub-linearly; locality helps",
                           _check_future_distributed),
    "future-hbm": ("more HBM channels, more throughput", _check_future_hbm),
    "energy": ("LightRW saves energy and more EDP", _check_energy),
    "future-capacity": ("terabyte graphs need partitioning", _check_future_capacity),
    "realtime": ("LightRW serves faster at every load", _check_realtime),
    "roofline": ("every GDRW workload is memory-bound", _check_roofline),
}


def score_reproduction(results_dir: str | Path) -> list[Verdict]:
    """Evaluate every checkable experiment saved in a results directory.

    An experiment without a ``<name>.json`` is not scored; a directory
    with none of them yields one failing verdict.  A saved result that
    fails its integrity check is quarantined and fails its own verdict;
    the rest are still scored.
    """
    directory = Path(results_dir)
    verdicts = []
    for name, (claim, check) in CHECKS.items():
        path = directory / f"{name}.json"
        if not path.exists():
            continue
        try:
            rows = load_result_json(path)["rows"]
        except ArtifactCorruptionError as error:
            verdicts.append(Verdict(name, claim, False, f"corrupt result: {error}"))
            continue
        try:
            passed, detail = check(rows) if rows else (False, "no rows saved")
        except (LookupError, ArithmeticError, ValueError, TypeError, AttributeError,
                StopIteration) as error:
            passed, detail = False, f"malformed result: {error!r}"
        verdicts.append(Verdict(name, claim, passed, detail))
    if not verdicts:
        verdicts.append(Verdict(
            str(directory), "saved experiment results", False, "no checkable results"
        ))
    return verdicts


def summary(verdicts: list[Verdict]) -> str:
    """Human-readable scoreboard."""
    lines = [v.format() for v in verdicts]
    passed = sum(v.passed for v in verdicts)
    lines.append(f"reproduced {passed}/{len(verdicts)} checked claims")
    return "\n".join(lines)
