"""Analytic time model of the ThunderRW CPU baseline.

The model consumes the *measured functional trace* of a walk session (which
vertices were visited, with what degrees — see
:class:`repro.walks.stepper.StepRecord`) and charges each step the costs the
ThunderRW execution flow (paper Algorithm 2.1) incurs on a Xeon-class
server:

* **sequential traffic** — streaming the adjacency, writing the updated
  weights, building and re-reading the sampling table (the ``2 |N(v)|``
  intermediate accesses of Inefficiency 1);
* **random accesses** — the ``row_index`` lookup and the jump to the head
  of the adjacency list (Inefficiency 2), charged with an LLC hit model;
* **instructions** — weight updates, table construction, binary search and
  (for Node2Vec) per-candidate membership tests.

Every constant is a documented field of :class:`CPUSpec`; the defaults are
calibrated so that the modeled engine reproduces the paper's own
measurements of ThunderRW — the Table 1 top-down profile and the absolute
step throughputs implied by Figures 14/16 — on the scaled stand-in graphs.
The **scaled-platform rule** applies: ``hardware_scale`` shrinks all cache
capacities by the dataset's scale divisor so capacity/footprint ratios
match the paper's setup.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cpu.memory_model import CPU_LINE_BYTES, XEON_6246R_LLC_BYTES, llc_hit_ratio
from repro.errors import ConfigError
from repro.walks.base import WalkAlgorithm
from repro.walks.stepper import WalkSession

#: Bytes of one adjacency record as the CPU engine streams it (vertex id +
#: static weight).
CPU_EDGE_BYTES = 8
#: Bytes per intermediate element (updated weight / CDF entry).
CPU_INTERMEDIATE_BYTES = 4
#: Bytes of one row_index (neighbor info) entry.
CPU_ROW_BYTES = 8
#: Fraction of capacity misses on streamed lines that remain *demand*
#: misses: hardware prefetchers convert the rest into hits by the time the
#: core touches the line (calibrates the Table 1 miss ratios).
SEQ_DEMAND_MISS_FRACTION = 0.65
#: PWRS lanes of "ThunderRW w/ PWRS" (Figure 14): on a CPU the lanes are
#: SIMD lanes, and 4 matches 128-bit vectors of 32-bit weights.
CPU_PWRS_LANES = 4

#: CPUSpec fields by what they may hold: counts are integers >= 1, rates
#: and clocks (divisors of the model) are finite and > 0, and latencies and
#: instruction costs are finite and >= 0.
_COUNT_FIELDS = ("n_threads", "llc_bytes", "l2_bytes", "interleave_width", "hardware_scale")
_RATE_FIELDS = ("frequency_hz", "random_mlp", "dram_stream_bw", "cache_stream_bw", "instr_rate")
_COST_FIELDS = (
    "dram_latency_s",
    "llc_latency_s",
    "instr_per_edge",
    "membership_instr_per_edge",
    "rng_instr_per_item",
    "step_overhead_instr",
    "per_query_exec_s",
    "engine_init_s",
    "per_query_setup_s",
)


@dataclass(frozen=True)
class CPUSpec:
    """Hardware and software constants of the modeled CPU platform."""

    #: Core clock of the Xeon Gold 6246R (Hz).
    frequency_hz: float = 3.4e9
    #: Physical cores used by ThunderRW.
    n_threads: int = 16
    #: Total cache capacity (LLC + L2 slices), paper Section 6.5 (bytes).
    llc_bytes: int = XEON_6246R_LLC_BYTES
    #: Per-core L2 capacity — bounds how much interleaved per-query
    #: intermediate state stays cheap (bytes).
    l2_bytes: int = 1 << 20
    #: Queries interleaved per thread by ThunderRW's step-centric model.
    interleave_width: int = 16
    #: Effective DRAM latency for a dependent random access (s).
    dram_latency_s: float = 90e-9
    #: Latency of an LLC hit (s).
    llc_latency_s: float = 14e-9
    #: Memory-level parallelism ThunderRW's interleaving extracts on random
    #: accesses (outstanding misses effectively overlapped).
    random_mlp: float = 4.0
    #: Per-thread effective bandwidth for DRAM-resident adjacency and
    #: intermediate streams.  Adjacency lists are short (tens to hundreds
    #: of bytes), so the hardware prefetchers barely engage and the
    #: effective rate is far below the peak streaming bandwidth — the CPU
    #: manifestation of the same short-transfer physics the FPGA's burst
    #: engine fights (Figure 6).
    dram_stream_bw: float = 0.75e9
    #: Per-thread effective bandwidth when the stream hits in cache.
    cache_stream_bw: float = 6.0e9
    #: Retired-instruction rate per core (Hz x IPC).
    instr_rate: float = 8.0e9
    #: Instructions per neighbor for weight update + table insert — the
    #: scalar C++ path: indirect weight-function call, float divide,
    #: comparison and CDF store per candidate.
    instr_per_edge: float = 35.0
    #: Extra instructions per neighbor for Node2Vec's membership test
    #: (binary search over the previous adjacency).
    membership_instr_per_edge: float = 28.0
    #: Instructions per item for on-CPU WRS random number draw + accept test
    #: (the cost that makes CPU-side WRS a poor fit: one Mersenne-Twister
    #: draw, one multiply-compare and a data-dependent branch per item).
    rng_instr_per_item: float = 70.0
    #: Fixed instructions per step: stage dispatch (three stages), query
    #: queue management, RNG draw, bounds checks — the software cost of
    #: the staged step-centric engine.
    step_overhead_instr: float = 2500.0
    #: Per-query execution cost inside the walk loop (result buffer
    #: handling, query state churn) — amortized over a query's steps (s).
    per_query_exec_s: float = 1.5e-6
    #: One-off engine start-up: thread-pool spawn, per-query result buffer
    #: allocation, sampler construction (s).  This constant cost is what
    #: craters ThunderRW's throughput on small batches (paper Figure 16).
    engine_init_s: float = 40e-3
    #: Per-query setup cost outside the walk loop (s).
    per_query_setup_s: float = 0.2e-6
    #: Dataset scale divisor; cache capacities shrink by this factor so the
    #: capacity/footprint ratio matches the unscaled platform.
    hardware_scale: int = 1

    def __post_init__(self) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        for name in _RATE_FIELDS + _COST_FIELDS:
            value = getattr(self, name)
            rate = name in _RATE_FIELDS
            if not (
                isinstance(value, numbers.Real)
                and math.isfinite(value)
                and (value > 0 or (value == 0 and not rate))
            ):
                least = "> 0" if rate else ">= 0"
                raise ConfigError(f"{name} must be finite and {least}, got {value!r}")

    @property
    def scaled_llc_bytes(self) -> float:
        return self.llc_bytes / self.hardware_scale

    @property
    def scaled_l2_bytes(self) -> float:
        """L2 capacity for per-query intermediate state.

        Intermediate footprints are degree-proportional, and degrees do not
        shrink linearly with the dataset: under a power-law with exponent
        alpha ~ 2.4 the degree scale shrinks as ``V^(1/(alpha-1)) ~ V^0.71``,
        so the capacity that bounds them is scaled the same way (the same
        rule as the accelerator's previous-stream buffer).
        """
        return self.l2_bytes / self.hardware_scale ** 0.714


    def scaled(self, hardware_scale: int) -> "CPUSpec":
        """Copy of this spec bound to a dataset scale divisor."""
        return replace(self, hardware_scale=hardware_scale)


@dataclass
class CPUTimeBreakdown:
    """Modeled execution time of one walk session on the CPU baseline."""

    spec: CPUSpec
    sampler: str
    total_steps: int
    num_queries: int
    #: Aggregate per-component busy time across all threads (s).
    seq_time_s: float
    rand_time_s: float
    instr_time_s: float
    init_time_s: float
    #: Modeled wall-clock (s): threaded execution + initialization.
    wall_s: float = field(init=False)
    exec_s: float = field(init=False)
    #: Per-query execution latency (s), aligned with session query ids.
    query_latency_s: np.ndarray | None = None
    #: Fraction of line accesses that missed the LLC.
    llc_miss_ratio: float = 0.0

    def __post_init__(self) -> None:
        busy = self.seq_time_s + self.rand_time_s + self.instr_time_s
        self.exec_s = busy / self.spec.n_threads
        self.wall_s = self.exec_s + self.init_time_s

    @property
    def steps_per_second(self) -> float:
        return self.total_steps / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def memory_time_s(self) -> float:
        return self.seq_time_s + self.rand_time_s


def _hit_ratios(session: WalkSession, spec: CPUSpec) -> tuple[float, float]:
    """(row hit, adjacency hit) ratios under the scaled LLC."""
    graph = session.graph
    row_fp = graph.num_vertices * CPU_ROW_BYTES
    col_fp = graph.num_edges * CPU_EDGE_BYTES
    total_fp = max(row_fp + col_fp, 1)
    capacity = spec.scaled_llc_bytes
    c_row = capacity * row_fp / total_fp
    c_col = capacity * col_fp / total_fp
    hit_row = llc_hit_ratio(graph.degrees, CPU_ROW_BYTES, max(c_row, 1.0))
    # Adjacency bytes per vertex scale with its degree, so the hot-prefix
    # value density is uniform and the hit ratio degenerates to the
    # capacity/footprint ratio.
    hit_col = min(1.0, c_col / col_fp) if col_fp else 1.0
    return hit_row, hit_col


def _intermediate_stream_bw(degrees: np.ndarray, spec: CPUSpec) -> np.ndarray:
    """Streaming bandwidth for per-query intermediate buffers.

    ThunderRW interleaves ``interleave_width`` queries per thread; their
    weight/CDF buffers compete for the (scaled) L2.  Small-degree buffers
    stay resident and stream at cache bandwidth; large ones spill to DRAM.
    """
    footprint = (
        degrees.astype(np.float64)
        * 2.0
        * CPU_INTERMEDIATE_BYTES
        * spec.interleave_width
    )
    spill = np.clip(footprint / spec.scaled_l2_bytes, 0.0, 1.0)
    # Spilled intermediates still stream better than cold adjacency reads:
    # the write-allocate + immediate-read pattern keeps lines in flight.
    spilled_bw = 2.0 * spec.dram_stream_bw
    return 1.0 / (spill / spilled_bw + (1.0 - spill) / spec.cache_stream_bw)


def cpu_time_for_session(
    session: WalkSession,
    algorithm: WalkAlgorithm,
    spec: CPUSpec,
    sampler: str = "inverse-transform",
    total_queries: int | None = None,
) -> CPUTimeBreakdown:
    """Charge the ThunderRW cost model over a recorded walk session.

    Parameters
    ----------
    session:
        A functional walk session with trace records.
    algorithm:
        The walk algorithm that produced it (drives Node2Vec's extra
        traffic and instruction terms).
    spec:
        Platform constants (use ``spec.scaled(scale_divisor)`` when the
        session's graph is a scaled stand-in).
    sampler:
        ``"inverse-transform"`` for stock ThunderRW, ``"alias"`` for its
        other table method (same walk, costlier table build), ``"pwrs"``
        for the ThunderRW w/ PWRS variant of Figure 14 (no intermediate
        table, but one random number per candidate item; walk the session
        with ``PWRSSampler(CPU_PWRS_LANES, seed)``).
    total_queries:
        When the session walked a uniform sample of a larger batch, the
        full batch size — busy times extrapolate linearly.
    """
    if not session.records:
        raise ValueError("session has no trace records: it walked no step to cost")
    if sampler not in ("inverse-transform", "alias", "pwrs"):
        raise ValueError(f"unknown sampler {sampler!r}")
    scale = 1.0
    if total_queries is not None:
        if total_queries < session.num_queries:
            raise ValueError("total_queries cannot be below the sampled count")
        scale = total_queries / session.num_queries
    hit_row, hit_col = _hit_ratios(session, spec)
    second_order = algorithm.fetches_previous_neighbors

    seq_time = 0.0
    rand_time = 0.0
    instr_time = 0.0
    line_accesses = 0.0
    line_misses = 0.0
    query_latency = np.zeros(session.num_queries, dtype=np.float64)

    t_rand_miss = spec.dram_latency_s / spec.random_mlp
    t_rand_hit = spec.llc_latency_s
    adjacency_bw = 1.0 / (
        (1.0 - hit_col) / spec.dram_stream_bw + hit_col / spec.cache_stream_bw
    )

    for record in session.records:
        d = record.degrees.astype(np.float64)
        d_prev = record.prev_degrees.astype(np.float64)
        has_prev = record.prev >= 0

        adjacency_bytes = d * CPU_EDGE_BYTES
        if second_order:
            adjacency_bytes = adjacency_bytes + np.where(has_prev, d_prev * 4.0, 0.0)
        if sampler == "inverse-transform":
            # write weights, read weights, write the 8-byte CDF entries —
            # the 2|N| intermediate traffic of Inefficiency 1 plus the
            # table store.
            intermediate_bytes = d * (2.0 * CPU_INTERMEDIATE_BYTES + 8.0)
        elif sampler == "alias":
            # Vose construction touches the scaled weights twice and
            # writes (prob, alias) pairs.
            intermediate_bytes = d * (3.0 * CPU_INTERMEDIATE_BYTES + 8.0)
        else:
            intermediate_bytes = np.zeros_like(d)

        t_seq = adjacency_bytes / adjacency_bw + intermediate_bytes / _intermediate_stream_bw(
            record.degrees, spec
        )

        # Row lookup + adjacency head jump, plus the generation phase's
        # random probe into the just-built table for the table methods.
        n_rand = np.full(d.shape, 2.0 if sampler == "pwrs" else 3.0)
        if second_order:
            n_rand = n_rand + np.where(has_prev, 2.0, 0.0)
        # Split random accesses: half hit like row_index (degree-skewed),
        # half like adjacency heads (capacity-bound).
        miss_rand = 0.5 * (1.0 - hit_row) + 0.5 * (1.0 - hit_col)
        t_rand = n_rand * (miss_rand * t_rand_miss + (1.0 - miss_rand) * t_rand_hit)

        instr = d * spec.instr_per_edge + spec.step_overhead_instr
        if sampler == "inverse-transform":
            instr = instr + np.log2(np.maximum(d, 1.0)) * 8.0  # binary search
        elif sampler == "alias":
            # Vose's worklist construction costs more per item; generation
            # is O(1).
            instr = instr + d * 9.0
        if second_order:
            instr = instr + np.where(has_prev, d * spec.membership_instr_per_edge, 0.0)
        if sampler == "pwrs":
            instr = instr + d * spec.rng_instr_per_item
        t_instr = instr / spec.instr_rate

        t_step = t_seq + t_rand + t_instr
        seq_time += float(t_seq.sum())
        rand_time += float(t_rand.sum())
        instr_time += float(t_instr.sum())
        np.add.at(query_latency, record.query_ids, t_step)

        seq_lines = (adjacency_bytes + intermediate_bytes) / CPU_LINE_BYTES
        line_accesses += float(seq_lines.sum() + n_rand.sum())
        line_misses += float(
            (seq_lines * (1.0 - hit_col) * SEQ_DEMAND_MISS_FRACTION).sum()
            + (n_rand * miss_rand).sum()
        )

    n_total = total_queries or session.num_queries
    # Per-query in-loop cost is execution work, charged to the instruction
    # component and extrapolated with the batch.
    instr_time += session.num_queries * spec.per_query_exec_s
    init = spec.engine_init_s + n_total * spec.per_query_setup_s
    return CPUTimeBreakdown(
        spec=spec,
        sampler=sampler,
        total_steps=int(round(session.total_steps * scale)),
        num_queries=n_total,
        seq_time_s=seq_time * scale,
        rand_time_s=rand_time * scale,
        instr_time_s=instr_time * scale,
        init_time_s=init,
        query_latency_s=query_latency,
        llc_miss_ratio=line_misses / line_accesses if line_accesses else 0.0,
    )
