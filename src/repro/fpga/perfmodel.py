"""Analytic performance model of the LightRW accelerator.

This is the fast twin of the cycle simulator
(:mod:`repro.fpga.accelerator`): it replays a recorded walk trace
(:class:`repro.walks.stepper.StepRecord`) through the *same* module cost
models — burst plans, exact cache simulation, sampler occupancy — and
combines them analytically instead of ticking every cycle:

* **Throughput** is resource-bound: with enough queries in flight, the
  kernel time of an instance is the maximum of its DRAM-interface busy
  cycles, sampler busy cycles and controller issue cycles, plus a pipeline
  fill term.  (With the table-based WRS-off ablation the stages serialize
  and the resources add instead.)
* **Latency** of one query is the sum of its steps' service latencies
  (row lookup, burst fetch, sampler drain, controller turnaround) plus a
  contention wait that grows with the number of co-resident queries.

Walks are shared with the cycle simulator bit-for-bit (per-query RNG), and
the per-module cost equations are identical, so the two backends agree on
all counted events; tests check the cycle totals agree within the fill
tolerance.

Query-sampled extrapolation: experiments at paper-scale query counts pass
``total_queries`` larger than the session's query count; resource totals
scale linearly (queries are i.i.d. samples), while latency statistics come
from the sampled queries unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.fpga.burst import plan_bursts
from repro.fpga.cache import simulate_degree_aware
from repro.fpga.config import LightRWConfig
from repro.fpga.wrs_sampler import WRSSamplerModel
from repro.graph.csr import EDGE_RECORD_BYTES
from repro.units import GIGA
from repro.walks.base import WalkAlgorithm
from repro.walks.stepper import WalkSession

#: Controller issue interval per step (cycles).
CONTROLLER_II = 2
#: Fixed controller turnaround per step when computing latency (cycles).
CONTROLLER_TURNAROUND = 8


@dataclass
class FPGATimeBreakdown:
    """Modeled execution of one walk session on the accelerator."""

    config: LightRWConfig
    algorithm: str
    total_steps: int
    num_queries: int
    #: Busy cycles per instance for each resource.
    mem_cycles: np.ndarray
    sampler_cycles: np.ndarray
    controller_cycles: np.ndarray
    #: Pipeline fill / drain cycles added once per instance.
    fill_cycles: float
    #: Whether stages overlap (WRS streaming) or serialize (table ablation).
    overlapped: bool
    #: Degree-aware cache statistics over row_index accesses.
    cache_accesses: int
    cache_hits: int
    #: Burst engine byte accounting over col_index traffic.
    bytes_valid: int
    bytes_loaded: int
    #: Per-query latency in cycles (sampled queries only).
    query_latency_cycles: np.ndarray | None = None
    kernel_cycles: float = field(init=False)
    kernel_s: float = field(init=False)

    def __post_init__(self) -> None:
        self.kernel_cycles = float(self.instance_cycles.max(initial=0.0)) + self.fill_cycles
        self.kernel_s = self.kernel_cycles / self.config.frequency_hz

    @property
    def instance_cycles(self) -> np.ndarray:
        """Busy cycles per instance: its stages' max when they overlap, else their sum."""
        if self.overlapped:
            return np.maximum(
                np.maximum(self.mem_cycles, self.sampler_cycles), self.controller_cycles
            )
        return self.mem_cycles + self.sampler_cycles + self.controller_cycles

    @property
    def steps_per_second(self) -> float:
        return self.total_steps / self.kernel_s if self.kernel_s > 0 else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / self.cache_accesses if self.cache_accesses else 0.0

    @property
    def valid_ratio(self) -> float:
        return self.bytes_valid / self.bytes_loaded if self.bytes_loaded else 1.0

    @property
    def bottleneck(self) -> str:
        """The resource binding the critical (kernel-setting) instance.

        ``kernel_cycles`` is a per-instance max, so the batch is gated by
        whichever resource dominates *that* instance — under skewed
        instance loads the largest cross-instance sum can name a resource
        that isn't on the critical path at all.
        """
        stacks = {
            "memory": self.mem_cycles,
            "sampler": self.sampler_cycles,
            "controller": self.controller_cycles,
        }
        if self.mem_cycles.size == 0:
            return "memory"
        critical = int(np.argmax(self.instance_cycles))
        return max(stacks, key=lambda name: float(stacks[name][critical]))

    @property
    def achieved_bandwidth_gbps(self) -> float:
        if self.kernel_s <= 0:
            return 0.0
        return self.bytes_loaded / self.kernel_s / GIGA

    def query_latency_seconds(self) -> np.ndarray:
        if self.query_latency_cycles is None:
            raise ValueError("latency was not recorded for this evaluation")
        return self.query_latency_cycles / self.config.frequency_hz


class FPGAPerfModel:
    """Evaluate LightRW timing over recorded walk sessions."""

    def __init__(self, config: LightRWConfig, algorithm: WalkAlgorithm) -> None:
        self.config = config
        self.algorithm = algorithm
        self.sampler_model = WRSSamplerModel(k=config.k, frequency_hz=config.frequency_hz)

    # -- trace flattening ----------------------------------------------------

    def _flatten(self, session: WalkSession):
        """Concatenate the per-step records into flat per-step-event arrays."""
        qids = np.concatenate([r.query_ids for r in session.records])
        curr = np.concatenate([r.curr for r in session.records])
        deg = np.concatenate([r.degrees for r in session.records])
        prev = np.concatenate([r.prev for r in session.records])
        dprev = np.concatenate([r.prev_degrees for r in session.records])
        return qids, curr, deg, prev, dprev

    def _row_trace(self, curr, prev, needs_prev):
        """row_index access stream of one instance's steps, in issue order.

        When a second-order walk must re-fetch the previous adjacency
        (its stream overflowed the on-chip buffer), the previous vertex's
        info lookup is adjacent to the current one in the stream.
        """
        if not self.algorithm.fetches_previous_neighbors or not np.any(needs_prev):
            return curr
        trace = np.empty(curr.size + int(needs_prev.sum()), dtype=np.int64)
        # Interleave: curr first, then (where needed) prev.
        widths = np.where(needs_prev, 2, 1)
        offsets = np.cumsum(widths) - widths
        trace[offsets] = curr
        trace[offsets[needs_prev] + 1] = prev[needs_prev]
        return trace

    def _cache_hits(self, trace: np.ndarray, degrees: np.ndarray) -> np.ndarray:
        if self.config.cache_policy == "none":
            return np.zeros(trace.size, dtype=bool)
        return simulate_degree_aware(trace, degrees, self.config.scaled_cache_entries)

    # -- evaluation ----------------------------------------------------------

    def evaluate(
        self,
        session: WalkSession,
        total_queries: int | None = None,
        record_latency: bool = True,
    ) -> FPGATimeBreakdown:
        """Model the accelerator's execution of ``session``.

        Parameters
        ----------
        session:
            Functional walk session with trace records.
        total_queries:
            When the session walked a uniform *sample* of a larger query
            batch, the full batch size — resource totals extrapolate
            linearly.
        record_latency:
            Compute per-query latency (needed by the latency experiments).
        """
        if not session.records:
            raise ConfigError("session has no trace records: it walked no step to cost")
        cfg = self.config
        dram = cfg.dram
        n_inst = cfg.n_instances
        scale = 1.0
        if total_queries is not None:
            if total_queries < session.num_queries:
                raise ConfigError("total_queries cannot be below the sampled count")
            scale = total_queries / session.num_queries

        qids, curr, deg, prev, dprev = self._flatten(session)
        instance = qids % n_inst
        graph_degrees = session.graph.degrees

        mem_cycles = np.zeros(n_inst, dtype=np.float64)
        sampler_cycles = np.zeros(n_inst, dtype=np.float64)
        controller_cycles = np.zeros(n_inst, dtype=np.float64)
        cache_accesses = 0
        cache_hits = 0
        bytes_valid = 0
        bytes_loaded = 0

        row_miss_cycles = dram.request_cycles(1)
        per_event_mem = np.zeros(qids.size, dtype=np.float64)

        prev_buffer = cfg.scaled_prev_buffer_edges
        for inst in range(n_inst):
            mask = instance == inst
            if not np.any(mask):
                continue
            i_curr, i_deg = curr[mask], deg[mask]
            i_prev, i_dprev = prev[mask], dprev[mask]
            # Second-order membership data is served from the on-chip
            # previous-stream buffer unless the list overflowed it.
            i_needs_prev = (i_prev >= 0) & (i_dprev > prev_buffer)

            trace = self._row_trace(i_curr, i_prev, i_needs_prev)
            hits = self._cache_hits(trace, graph_degrees)
            misses_total = int((~hits).sum())
            cache_accesses += trace.size
            cache_hits += int(hits.sum())
            row_cycles = misses_total * row_miss_cycles

            fetch_bytes = i_deg * EDGE_RECORD_BYTES
            plan = plan_bursts(fetch_bytes, cfg.strategy, dram)
            burst = plan.interface_cycles.copy()
            bytes_valid += int(plan.valid_bytes.sum())
            bytes_loaded += int(plan.loaded_bytes.sum())
            if self.algorithm.fetches_previous_neighbors:
                prev_bytes = np.where(i_needs_prev, i_dprev * EDGE_RECORD_BYTES, 0)
                prev_plan = plan_bursts(prev_bytes, cfg.strategy, dram)
                burst = burst + prev_plan.interface_cycles
                bytes_valid += int(prev_plan.valid_bytes.sum())
                bytes_loaded += int(prev_plan.loaded_bytes.sum())
            if not cfg.use_wrs:
                # Table ablation: updated weights round-trip through DRAM
                # (write + read of 4 B per candidate, streamed).
                table_bytes = i_deg * 8
                table_plan = plan_bursts(table_bytes, cfg.strategy, dram)
                burst = burst + table_plan.interface_cycles
                bytes_valid += int(table_plan.valid_bytes.sum())
                bytes_loaded += int(table_plan.loaded_bytes.sum())

            samp = self.sampler_model.occupancy_cycles(i_deg).astype(np.float64)
            if self.algorithm.fetches_previous_neighbors:
                # Re-fetched membership streams pass through the weight
                # updater's filter at k per cycle; buffered ones are free
                # (the filter structure was built while they streamed by
                # during the previous step).
                samp = samp + self.sampler_model.occupancy_cycles(
                    np.where(i_needs_prev, i_dprev, 0)
                )

            mem_cycles[inst] = row_cycles + float(burst.sum())
            sampler_cycles[inst] = float(samp.sum())
            controller_cycles[inst] = i_deg.size * CONTROLLER_II
            # Per-event memory time (for latency): average row cost folded in.
            miss_ratio = misses_total / trace.size if trace.size else 0.0
            lookups_per_step = trace.size / i_deg.size if i_deg.size else 0.0
            per_event_mem[mask] = burst + miss_ratio * row_miss_cycles * lookups_per_step

        fill = dram.latency_cycles + self.sampler_model.fill_cycles + CONTROLLER_TURNAROUND

        query_latency = None
        if record_latency:
            step_latency = (
                dram.latency_cycles  # row lookup + first burst data return
                + per_event_mem
                + self.sampler_model.stream_cycles(deg).astype(np.float64)
                + CONTROLLER_TURNAROUND
            )
            if session.num_queries:
                queries_per_inst = np.bincount(
                    np.arange(session.num_queries) % n_inst, minlength=n_inst
                )
            else:
                queries_per_inst = np.zeros(n_inst, dtype=np.int64)
            inflight = np.minimum(cfg.max_inflight, np.maximum(queries_per_inst, 1))
            busy_mean = (
                float(mem_cycles.sum()) / max(qids.size, 1)
            )
            wait = busy_mean * (inflight[instance] - 1) / 2.0
            query_latency = np.zeros(session.num_queries, dtype=np.float64)
            np.add.at(query_latency, qids, step_latency + wait)

        return FPGATimeBreakdown(
            config=cfg,
            algorithm=self.algorithm.name,
            total_steps=int(round(session.total_steps * scale)),
            num_queries=total_queries or session.num_queries,
            mem_cycles=mem_cycles * scale,
            sampler_cycles=sampler_cycles * scale,
            controller_cycles=controller_cycles * scale,
            fill_cycles=float(fill),
            overlapped=cfg.use_wrs,
            cache_accesses=int(round(cache_accesses * scale)),
            cache_hits=int(round(cache_hits * scale)),
            bytes_valid=int(round(bytes_valid * scale)),
            bytes_loaded=int(round(bytes_loaded * scale)),
            query_latency_cycles=query_latency,
        )
