"""Cycle-level models of the LightRW pipeline modules (paper Figure 3).

One LightRW instance is a linear pipeline of six stages connected by
registered FIFOs:

    QueryController -> NeighborInfoLoader(+ degree-aware cache)
                    -> BurstCmdGenerator -> {Long, Short} burst ports
                    -> IntraBurstMerge -> WeightUpdater -> WRSSampler
                    -> (result back to the QueryController)

plus a shared :class:`DRAMChannelSim` arbitrating the instance's memory
channel.  Stages are *functionally exact* — the WRS sampler is the real
:class:`repro.sampling.ParallelWRS` with the per-query ThundeRiNG lanes —
and *timing honest*: every DRAM request occupies the interface for
``overhead + beats`` cycles and returns data ``latency`` cycles later,
matching the accounting of the analytic model in
:mod:`repro.fpga.perfmodel`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.fpga.burst import plan_bursts
from repro.fpga.cache import DegreeAwareCache
from repro.fpga.config import LightRWConfig
from repro.fpga.sim.fifo import FIFO
from repro.fpga.sim.module import Module
from repro.graph.csr import CSRGraph, EDGE_RECORD_BYTES
from repro.sampling.parallel_wrs import ParallelWRS
from repro.sampling.rng import ThundeRingRNG, derive_seed
from repro.walks.base import WalkAlgorithm, gather_step, quantize_weights

#: Edges delivered per cycle by the 512-bit bus.
BUS_EDGES_PER_CYCLE = 16


@dataclass
class StepTask:
    """One walk step in flight: query ``qid`` standing on ``vertex``."""

    qid: int
    step: int
    vertex: int
    prev: int


@dataclass
class NeighborInfo:
    """Output of the Neighbor Info Loader: the (address, degree) tuple."""

    task: StepTask
    address: int
    degree: int
    prev_address: int
    prev_degree: int
    cache_hit: bool


@dataclass
class BurstManifest:
    """Ordered fetch plan of one step: (port, beats, n_edges) chunks."""

    task: StepTask
    chunks: list[tuple[str, int, int]]
    membership_chunks: list[tuple[str, int, int]] = field(default_factory=list)


@dataclass
class EdgeBatch:
    """Up to k edges of one step's candidate stream (one cycle's worth)."""

    task: StepTask
    offset: int
    count: int
    last: bool


@dataclass
class StepResult:
    """Sampler verdict for one step: the chosen vertex or -1 (dead end)."""

    task: StepTask
    selected: int


class DRAMChannelSim(Module):
    """One DRAM channel: request arbitration, bandwidth and latency.

    Ports are registered by name; each port's requests are served FIFO and
    its responses arrive in order.  The interface serves one request at a
    time for ``overhead + beats`` cycles (the bandwidth constraint); data
    becomes available ``latency + beats`` cycles after acceptance.
    """

    def __init__(self, config: LightRWConfig, name: str = "dram") -> None:
        super().__init__(name)
        self.timings = config.dram
        self._ports: dict[str, deque] = {}
        self._responses: dict[str, deque] = {}
        self._order: list[str] = []
        self._rr = 0
        self._busy_until = 0
        self.interface_busy_cycles = 0
        self.bytes_served = 0
        self.requests_served = 0

    def register_port(self, port: str) -> None:
        if port in self._ports:
            raise SimulationError(f"duplicate DRAM port {port!r}")
        self._ports[port] = deque()
        self._responses[port] = deque()
        self._order.append(port)

    def request(self, port: str, beats: int, extra_cycles: int = 0) -> None:
        """Queue a read of ``beats`` bus beats on ``port``.

        ``extra_cycles`` models per-request machinery outside the DRAM
        device itself (the long pipeline's reorder/crossbar cost).
        """
        if beats <= 0:
            raise SimulationError(f"DRAM request must have positive beats, got {beats}")
        self._ports[port].append((beats, extra_cycles))

    def has_response(self, port: str, cycle: int) -> bool:
        responses = self._responses[port]
        return bool(responses) and responses[0] <= cycle

    def pop_response(self, port: str, cycle: int) -> None:
        if not self.has_response(port, cycle):
            raise SimulationError(f"no ready response on DRAM port {port!r}")
        self._responses[port].popleft()

    def tick(self, cycle: int) -> None:
        if cycle < self._busy_until:
            return
        # Round-robin arbitration over ports with pending requests and
        # room for the response.
        n = len(self._order)
        for i in range(n):
            port = self._order[(self._rr + i) % n]
            queue = self._ports[port]
            if queue and len(self._responses[port]) < 32:
                beats, extra = queue.popleft()
                service = self.timings.request_overhead_cycles + beats + extra
                self._busy_until = cycle + service
                ready = cycle + self.timings.latency_cycles + beats
                self._responses[port].append(ready)
                self.interface_busy_cycles += service
                self.bytes_served += beats * self.timings.bus_bytes
                self.requests_served += 1
                self.emit(cycle, "dram-grant", port=port, beats=beats,
                          ready=ready)
                self._rr = (self._rr + i + 1) % n
                return

    def is_idle(self) -> bool:
        pending = any(self._ports[p] for p in self._order)
        outstanding = any(self._responses[p] for p in self._order)
        return not pending and not outstanding


def _make_cache(config: LightRWConfig) -> DegreeAwareCache | None:
    if config.cache_policy == "none":
        return None
    return DegreeAwareCache(config.scaled_cache_entries)


class NeighborInfoLoader(Module):
    """Resolves (address, degree) of the step's vertices, cache first.

    On a hit the info is forwarded in one cycle; on a miss a one-beat DRAM
    read is issued (non-blocking — several misses may be outstanding).
    For second-order walks the previous vertex's info is resolved through
    the same path, as an extra access in the same step.
    """

    PORT = "info"
    MAX_OUTSTANDING = 8

    def __init__(
        self,
        graph: CSRGraph,
        config: LightRWConfig,
        dram: DRAMChannelSim,
        in_fifo: FIFO,
        out_fifo: FIFO,
        second_order: bool,
        name: str = "info-loader",
    ) -> None:
        super().__init__(name)
        self.graph = graph
        self.dram = dram
        self.dram.register_port(self.PORT)
        self.in_fifo = in_fifo
        self.out_fifo = out_fifo
        self.second_order = second_order
        self.prev_buffer_edges = config.scaled_prev_buffer_edges
        self.cache = _make_cache(config)
        # Waiters in arrival order; each entry is [info, misses_remaining].
        self._waiting: deque[list] = deque()
        # Waiters with outstanding misses, in DRAM request order.
        self._miss_order: deque[list] = deque()
        self.hits = 0
        self.misses = 0

    def _lookup(self, vertex: int) -> tuple[int, int, bool]:
        begin, end = self.graph.neighbor_slice(vertex)
        degree = end - begin
        hit = self.cache.access(vertex, degree) if self.cache is not None else False
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return begin, degree, hit

    def tick(self, cycle: int) -> None:
        # Drain DRAM responses: they arrive in request order, so each one
        # satisfies the oldest waiter that still has misses outstanding.
        while self._miss_order and self.dram.has_response(self.PORT, cycle):
            self.dram.pop_response(self.PORT, cycle)
            waiter = self._miss_order[0]
            waiter[1] -= 1
            if waiter[1] == 0:
                self._miss_order.popleft()

        # Release the head waiter once its info is complete.
        if self._waiting and self._waiting[0][1] == 0 and self.out_fifo.can_push():
            self.out_fifo.push(self._waiting.popleft()[0])
            self.busy_cycles += 1

        # Accept one new task per cycle.
        if self.in_fifo.can_pop() and len(self._waiting) < self.MAX_OUTSTANDING:
            task: StepTask = self.in_fifo.pop()
            address, degree, hit = self._lookup(task.vertex)
            self.emit(cycle, "cache-hit" if hit else "cache-miss",
                      qid=task.qid, vertex=task.vertex, degree=degree)
            n_miss = 0 if hit else 1
            prev_address, prev_degree = -1, -1
            if self.second_order and task.prev >= 0:
                # The previous stream is served from the on-chip buffer
                # unless it overflowed; only the overflow case re-fetches.
                if self.graph.degree(task.prev) > self.prev_buffer_edges:
                    prev_address, prev_degree, prev_hit = self._lookup(task.prev)
                    n_miss += 0 if prev_hit else 1
            info = NeighborInfo(
                task=task,
                address=address,
                degree=degree,
                prev_address=prev_address,
                prev_degree=prev_degree,
                cache_hit=n_miss == 0,
            )
            waiter = [info, n_miss]
            self._waiting.append(waiter)
            if n_miss:
                self._miss_order.append(waiter)
                for _ in range(n_miss):
                    self.dram.request(self.PORT, 1)

    def is_idle(self) -> bool:
        return not self._waiting


class BurstCmdGenerator(Module):
    """Plans each step's adjacency fetch into long + short burst commands.

    The burst counts come from :func:`~repro.fpga.burst.plan_bursts`, the
    planner the analytic model uses (Section 5.2: ``floor(c/S1)`` long
    bursts then ``ceil(rem/S2)`` short ones, or whole fixed-length bursts
    for the ablation strategies).  This stage only lays them out: the long
    chunks first, then the short ones, each carrying as many whole edge
    records as its beats hold.  For second-order walks the previous
    vertex's adjacency is planned first — the weight updater needs the
    membership set before it can weight candidates.
    """

    MAX_QUEUED_REQUESTS = 64

    def __init__(
        self,
        config: LightRWConfig,
        dram: DRAMChannelSim,
        in_fifo: FIFO,
        manifest_fifo: FIFO,
        name: str = "burst-cmd-gen",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.dram = dram
        self.dram.register_port("long")
        self.dram.register_port("short")
        self.in_fifo = in_fifo
        self.manifest_fifo = manifest_fifo
        self.bytes_valid = 0
        self.bytes_loaded = 0

    def _plan(self, degree: int) -> list[tuple[str, int, int]]:
        """Chunks of (port, beats, edges) covering ``degree`` edge records."""
        strategy = self.config.strategy
        dram = self.config.dram
        plan = plan_bursts(np.array([degree * EDGE_RECORD_BYTES]), strategy, dram)
        n_long, n_short = int(plan.n_long[0]), int(plan.n_short[0])
        bursts = [("long", strategy.long_beats)] * n_long
        bursts += [("short", strategy.short_beats)] * n_short
        chunks: list[tuple[str, int, int]] = []
        edges_left = degree
        for port, beats in bursts:
            take = min(beats * dram.bus_bytes // EDGE_RECORD_BYTES, edges_left)
            chunks.append((port, beats, take))
            edges_left -= take
        return chunks

    def _queued(self) -> int:
        return len(self.dram._ports["long"]) + len(self.dram._ports["short"])

    def tick(self, cycle: int) -> None:
        if not self.in_fifo.can_pop() or not self.manifest_fifo.can_push():
            return
        if self._queued() >= self.MAX_QUEUED_REQUESTS:
            return
        info: NeighborInfo = self.in_fifo.pop()
        self.busy_cycles += 1
        membership: list[tuple[str, int, int]] = []
        if info.prev_degree > 0:
            membership = self._plan(info.prev_degree)
        chunks = self._plan(info.degree)
        long_extra = self.config.dram.long_pipe_extra_cycles
        for port, beats, edges in membership + chunks:
            self.dram.request(port, beats, long_extra if port == "long" else 0)
            self.bytes_loaded += beats * self.config.dram.bus_bytes
            self.bytes_valid += edges * EDGE_RECORD_BYTES
        self.manifest_fifo.push(
            BurstManifest(task=info.task, chunks=chunks, membership_chunks=membership)
        )


class IntraBurstMerge(Module):
    """Reassembles burst responses into the in-order candidate stream.

    Long and short responses return on separate ports; the merge walks the
    manifest's chunk list in order, waiting for each chunk's response, and
    emits up to 16 edges (one bus beat's worth of records) per cycle.
    """

    def __init__(
        self,
        dram: DRAMChannelSim,
        manifest_fifo: FIFO,
        edge_fifo: FIFO,
        name: str = "intra-burst-merge",
    ) -> None:
        super().__init__(name)
        self.dram = dram
        self.manifest_fifo = manifest_fifo
        self.edge_fifo = edge_fifo
        self._manifest: BurstManifest | None = None
        self._chunk_list: list[tuple[str, int, int]] = []
        self._chunk_index = 0
        self._membership_count = 0
        self._chunk_received = False
        self._edges_left = 0
        self._offset = 0

    def _load_manifest(self) -> None:
        manifest = self.manifest_fifo.pop()
        self._manifest = manifest
        self._chunk_list = manifest.membership_chunks + manifest.chunks
        self._membership_count = len(manifest.membership_chunks)
        self._chunk_index = 0
        self._chunk_received = False
        self._edges_left = 0
        self._offset = 0

    def tick(self, cycle: int) -> None:
        if self._manifest is None:
            if self.manifest_fifo.can_pop():
                self._load_manifest()
            else:
                return
        assert self._manifest is not None
        # Zero-degree step: emit one empty terminal batch.
        if not self._chunk_list:
            if self.edge_fifo.can_push():
                self.edge_fifo.push(
                    EdgeBatch(task=self._manifest.task, offset=0, count=0, last=True)
                )
                self._manifest = None
            return
        if self._chunk_index >= len(self._chunk_list):
            self._manifest = None
            return
        port, beats, edges = self._chunk_list[self._chunk_index]
        if not self._chunk_received:
            if self.dram.has_response(port, cycle):
                self.dram.pop_response(port, cycle)
                self._chunk_received = True
                self._edges_left = edges
            else:
                return
        if not self.edge_fifo.can_push():
            return
        emit = min(BUS_EDGES_PER_CYCLE, self._edges_left)
        self._edges_left -= emit
        self.busy_cycles += 1
        is_membership = self._chunk_index < self._membership_count
        chunk_done = self._edges_left == 0
        last_chunk = self._chunk_index == len(self._chunk_list) - 1
        self.edge_fifo.push(
            EdgeBatch(
                task=self._manifest.task,
                offset=self._offset if not is_membership else -1,
                count=emit,
                last=chunk_done and last_chunk,
            )
        )
        if not is_membership:
            self._offset += emit
        if chunk_done:
            self._chunk_index += 1
            self._chunk_received = False
            if last_chunk:
                self._manifest = None

    def is_idle(self) -> bool:
        return self._manifest is None


class WeightUpdater(Module):
    """Applies the application weight-update function F to the stream.

    Functionally exact: when a step's stream starts, the full dynamic
    weight vector is computed from the graph arrays with the same code the
    vectorized engine uses; timing-wise the stage forwards at most ``k``
    weighted candidates per cycle, re-chunking the bus-rate input to the
    sampler's lane width.  Membership batches (Node2Vec's previous
    adjacency) are consumed for timing only — their effect is inside F.
    """

    def __init__(
        self,
        graph: CSRGraph,
        algorithm: WalkAlgorithm,
        config: LightRWConfig,
        edge_fifo: FIFO,
        weighted_fifo: FIFO,
        name: str = "weight-updater",
    ) -> None:
        super().__init__(name)
        self.graph = graph
        self.algorithm = algorithm
        self.k = config.k
        self.edge_fifo = edge_fifo
        self.weighted_fifo = weighted_fifo
        self._task: StepTask | None = None
        self._items: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._available = 0
        self._emitted = 0
        self._stream_complete = False

    def _compute_weights(self, task: StepTask) -> None:
        ctx = gather_step(self.graph, task.step, np.array([task.vertex]), np.array([task.prev]))
        self._items = ctx.dst
        self._weights = quantize_weights(self.algorithm.dynamic_weights(ctx))

    def tick(self, cycle: int) -> None:
        # Emit one k-wide weighted batch per cycle when possible.
        if self._task is not None and self.weighted_fifo.can_push():
            ready = self._available - self._emitted
            if ready >= self.k or (self._stream_complete and (ready > 0 or self._emitted == 0)):
                take = min(self.k, ready)
                start = self._emitted
                self.weighted_fifo.push(
                    (
                        self._task,
                        self._items[start : start + take],
                        self._weights[start : start + take],
                        start == 0,
                        self._stream_complete and start + take == self._available,
                    )
                )
                self._emitted += take
                self.busy_cycles += 1
                if self._stream_complete and self._emitted == self._available:
                    self._task = None
                return

        # Absorb one input batch per cycle.
        if self.edge_fifo.can_pop():
            batch: EdgeBatch = self.edge_fifo.peek()
            if self._task is None:
                self.edge_fifo.pop()
                self._task = batch.task
                self._compute_weights(batch.task)
                self._available = 0
                self._emitted = 0
                self._stream_complete = False
            elif batch.task.qid != self._task.qid or batch.task.step != self._task.step:
                return  # next step's data waits until this stream drains
            else:
                self.edge_fifo.pop()
            if batch.offset >= 0:
                self._available += batch.count
            if batch.last:
                self._stream_complete = True
                if self._available == 0 and self.weighted_fifo.can_push():
                    # Dead-end step (no candidates at all).
                    self.weighted_fifo.push((self._task, None, None, True, True))
                    self._task = None

    def is_idle(self) -> bool:
        return self._task is None


class WRSSamplerModule(Module):
    """The hardware WRS Sampler: the real ParallelWRS fed k items/cycle.

    Each query owns a persistent ThundeRiNG lane family (seeded by query
    id), so the sampled walks are bit-identical to the vectorized engine
    and the analytic model.  After a stream's last batch the selection
    drains through the fill pipeline before the result is emitted.
    """

    def __init__(
        self,
        config: LightRWConfig,
        weighted_fifo: FIFO,
        result_fifo: FIFO,
        seed: int,
        name: str = "wrs-sampler",
    ) -> None:
        super().__init__(name)
        from repro.fpga.wrs_sampler import WRSSamplerModel

        self.k = config.k
        self.seed = seed
        self.weighted_fifo = weighted_fifo
        self.result_fifo = result_fifo
        self.fill_cycles = WRSSamplerModel(
            k=config.k, frequency_hz=config.frequency_hz
        ).fill_cycles
        self._samplers: dict[int, ParallelWRS] = {}
        self._draining: deque[tuple[int, StepResult]] = deque()
        self.batches_consumed = 0

    def _sampler_for(self, qid: int) -> ParallelWRS:
        sampler = self._samplers.get(qid)
        if sampler is None:
            rng = ThundeRingRNG(self.k, derive_seed(self.seed, qid))
            sampler = ParallelWRS(self.k, rng)
            self._samplers[qid] = sampler
        return sampler

    def tick(self, cycle: int) -> None:
        # Retire drained results.
        if self._draining and self._draining[0][0] <= cycle and self.result_fifo.can_push():
            self.result_fifo.push(self._draining.popleft()[1])

        if not self.weighted_fifo.can_pop() or len(self._draining) >= 4:
            return
        task, items, weights, first, last = self.weighted_fifo.pop()
        self.batches_consumed += 1
        self.busy_cycles += 1
        sampler = self._sampler_for(task.qid)
        if first:
            sampler.reset()
        if items is not None and items.size:
            sampler.consume(items, weights)
        if last:
            selected = sampler.result()
            result = StepResult(task=task, selected=-1 if selected is None else selected)
            self.emit(cycle, "sample", qid=task.qid, step=task.step,
                      selected=result.selected)
            self._draining.append((cycle + self.fill_cycles, result))

    def is_idle(self) -> bool:
        return not self._draining


class QueryController(Module):
    """Loads queries, keeps them in flight, collects sampled steps.

    Issues one step task per cycle (round-robin between newly admitted
    queries and queries whose previous step just completed) and retires
    one result per cycle.  A query completes when it reaches its target
    length, samples a dead end, or stands on a sink vertex.
    """

    def __init__(
        self,
        graph: CSRGraph,
        starts: np.ndarray,
        n_steps: int,
        config: LightRWConfig,
        task_fifo: FIFO,
        result_fifo: FIFO,
        query_ids: np.ndarray | None = None,
        name: str = "query-controller",
    ) -> None:
        super().__init__(name)
        self.graph = graph
        self.n_steps = n_steps
        self.max_inflight = config.max_inflight
        self.task_fifo = task_fifo
        self.result_fifo = result_fifo
        starts = np.asarray(starts, dtype=np.int64)
        ids = (
            np.asarray(query_ids, dtype=np.int64)
            if query_ids is not None
            else np.arange(starts.size, dtype=np.int64)
        )
        if ids.size != starts.size:
            raise SimulationError("query_ids must align with starts")
        self._pending: deque[tuple[int, int]] = deque(
            (int(q), int(s)) for q, s in zip(ids, starts)
        )
        self._ready: deque[StepTask] = deque()
        self.paths: dict[int, list[int]] = {int(q): [int(s)] for q, s in zip(ids, starts)}
        self._prev: dict[int, int] = {}
        self.inflight = 0
        self.completed = 0
        self.total = starts.size
        self.first_issue_cycle: dict[int, int] = {}
        self.finish_cycle: dict[int, int] = {}

    def done(self) -> bool:
        return self.completed == self.total

    def _finish(self, qid: int, cycle: int) -> None:
        self.inflight -= 1
        self.completed += 1
        self.finish_cycle[qid] = cycle
        self.emit(cycle, "query-finished", qid=qid)

    def tick(self, cycle: int) -> None:
        # Retire one result per cycle.
        if self.result_fifo.can_pop():
            result: StepResult = self.result_fifo.pop()
            task = result.task
            qid = task.qid
            self.emit(cycle, "step-retired", qid=qid, step=task.step,
                      selected=result.selected)
            if result.selected < 0:
                self._finish(qid, cycle)
            else:
                self.paths[qid].append(result.selected)
                self._prev[qid] = task.vertex
                next_step = task.step + 1
                if next_step >= self.n_steps or self.graph.degree(result.selected) == 0:
                    self._finish(qid, cycle)
                else:
                    self._ready.append(
                        StepTask(
                            qid=qid,
                            step=next_step,
                            vertex=result.selected,
                            prev=task.vertex,
                        )
                    )

        # Issue one task per cycle: continuing queries first.
        if not self.task_fifo.can_push():
            return
        if self._ready:
            self.task_fifo.push(self._ready.popleft())
            self.busy_cycles += 1
            return
        if self._pending and self.inflight < self.max_inflight:
            qid, start = self._pending.popleft()
            self.inflight += 1
            self.first_issue_cycle[qid] = cycle
            if self.graph.degree(start) == 0:
                self._finish(qid, cycle)
                return
            self.emit(cycle, "query-admitted", qid=qid, start=start)
            self.task_fifo.push(StepTask(qid=qid, step=0, vertex=start, prev=-1))

    def is_idle(self) -> bool:
        return not self._ready
