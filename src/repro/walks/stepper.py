"""Vectorized multi-query walk execution.

:func:`run_walks` advances a whole batch of random-walk queries in lockstep,
one step per iteration, with every per-edge computation vectorized across
the batch.  It is the *functional* engine shared by all backends: the FPGA
models and the CPU baseline all replay walks produced here (with their own
sampler strategy) and differ only in how they cost them.

Sampler strategies
------------------
* :class:`PWRSSampler` — the parallel weighted reservoir sampler of
  Algorithm 4.1, with per-query decorrelated ThundeRiNG lanes.  Its batch
  math is **bit-identical** to driving one :class:`repro.sampling.ParallelWRS`
  instance per query (the cycle simulator's path); tests assert this.
* :class:`InverseTransformSampler` — ThunderRW's configured method: one
  32-bit draw per step, binary search in the per-step CDF table.  The
  table is the integer prefix sum of the same fixed-point weights PWRS
  compares, and the target is ``floor(r* T / 2^32)`` for a segment total
  ``T``, so both samplers read weights only through
  :func:`~repro.walks.base.quantize_weights` (and refuse the same
  weights).  Its scalar reference is
  :class:`repro.sampling.InverseTransformTable`.

Step blocks
-----------
Each step splits its active queries into contiguous blocks of about
:data:`STEP_BLOCK_EDGES` candidate edges (cut with ``searchsorted`` on the
cumulative degree; a block holds at least one query, so a hub larger than
the budget is a block of its own).  Per block the stepper gathers the
candidate edges (:func:`~repro.walks.base.gather_step`), computes the
dynamic weights and samples, then writes the block's next vertices into
the step's arrays; the step still yields one :class:`StepRecord`.  The
budget bounds the size of the workspace the blocks write their per-edge
arrays into (see "Workspace" below), instead of a whole step's worth of
them.  Blocking never changes a walk: each
query's weights, lane draws and counters depend only on that query, and
both samplers' prefix sums are exact integers, so a segment's draw does
not depend on what else shares its block (or its shard).

The budget, 2^18 candidate edges, is sized by the fixed cost of a block
rather than by its working set.  Each block makes a few dozen numpy calls
on per-query arrays (``np.repeat``, gathers, cumulative sums) whose cost
does not shrink with the block and is spent holding the GIL; a larger
block spreads it over more edges, and fewer such calls let thread-mode
groups overlap.  On a 2-core machine, 10 alternating benchmark pairs
against 2^16 found 2^18 faster for uniform and Node2Vec steps, weighted
or not, and no slower for weighted MetaPath steps.

Workspace
---------
:func:`run_walks` makes one :class:`~repro.walks.base.StepWorkspace` per
call and hands it to every block through ``StepContext.workspace``.  The
per-edge arrays of a step are views of its slabs: Node2Vec's weights; PWRS's
lane draws and their mix, the lane of each edge, its ``r*``, the quantized
weights, their per-segment prefix and the acceptance mask (or, for constant
weights, the lane thresholds and the mask); and the inverse-transform
sampler's quantized weights and prefix.  A block therefore allocates only
per-query and per-row arrays.  Before the workspace, a block allocated
about a dozen per-edge arrays; when the heap had no hole that fit them,
glibc grew the heap for each block and trimmed it on free, and the next
block faulted the pages back in (53k minor faults and +12-17% ``run_s`` on
Node2Vec at RMAT-16, 1024 queries; +35-40% at 4096).

The workspace lives for one call and only grows: a slab is sized by the
largest block that asked for it (a hub beyond the budget grows it), not by
:data:`STEP_BLOCK_EDGES` up front, and a slab that has to grow takes a
quarter more.  It is not kept across calls.  Held across runs (per thread),
it took the faults to zero but raised peak RSS by 9 MiB on Node2Vec and on
the 16-shard thread-mode uniform walk and by 19 MiB on the checkpointed
MetaPath walk, which each call's fresh workspace does not.

Lazy per-edge fields
--------------------
:func:`~repro.walks.base.gather_step` builds only per-query arrays (the
vertices, degrees and segment starts) and the block's edge count.  Every
per-edge array of the :class:`~repro.walks.base.StepContext` (``within``,
``edge_positions``, ``dst``, ``static_weights``) is built on first read
and cached, so a step pays only for what its algorithm and sampler read:
a uniform step builds none of them, and neither does an unweighted
Node2Vec step, whose membership and return tests gather only the
candidates they search (:mod:`repro.walks.node2vec`).  The chosen vertex
is one gather per query, ``col_index[row_index[curr] + chosen]``
(:meth:`~repro.walks.base.StepContext.next_vertices`), not a per-edge
``dst``.

Cycle-major draws
-----------------
PWRS draws its lanes the way the hardware does: a query of degree ``d``
takes ``ceil(d / k)`` cycles, each one row of ``k`` lane draws under one
cycle counter, and a partial last row draws its spare lanes too (as
:meth:`repro.sampling.ParallelWRS.consume` does).  The sampler stacks a
block's rows into one ``(rows, k)`` matrix (:func:`_cycle_draws`): the
counters are built once per row, the lane keys come from one row gather
of the query's keys, and the mix is one in-place SplitMix64 over the
matrix.  Edge ``e`` of query ``i`` reads flat lane
``k * row_start[i] + (e - seg_starts[i])``.  The winner of a query is its
last accepted lane, found from the sparse accepted lanes (``flatnonzero``)
with one ``searchsorted`` per query; lanes past a query's degree are never
looked at.  Each query's counter then advances by ``ceil(d / k)``.

Constant weights
----------------
A walk whose weights are all one returns
:func:`~repro.walks.base.unit_weights`, a stride-0 view that allocates
nothing: :class:`~repro.walks.uniform.UniformWalk` always, and on an
unweighted graph ``StepContext.static_weights`` (restart walks, Node2Vec's
first step).  PWRS reads any stride-0 weight vector as one weight ``w``
for every edge.  With the inclusive prefix ``w * (j + 1)`` of lane ``j``,
Equation 8 reduces to ``r* <= (2^32 - 2) // (j + 1)`` for every ``w >= 1``
(:func:`_accept_threshold`), so a lane accepts when its raw 64-bit draw is
below a per-lane bound from a table grown to the graph's maximum degree:
no quantization, prefix or per-edge index at all.  ``w == 0`` accepts no
lane, so every query of the block is a dead end.  These are exactly the
decisions :func:`~repro.sampling.parallel_wrs.integer_accept` makes on an
explicit array of the same value, so the walks are the same.

Restart
-------
An algorithm with a nonzero ``restart_probability`` (``RestartWalk``, the
personalized-PageRank walk) is walked by the same loop.  Each step first
flips one restart coin per walkable active query, before blocking: a
32-bit draw from one extra lane per query (keyed by
``derive_seed(seed, 0x9E57A97)``, one counter per query) compared against
the probability.  A restarted query moves to its start vertex; only the
others are blocked, weighted and sampled, so a restart consumes no
sampler lane.  A restarted row is recorded with ``degrees = 0``: the
hardware decides before it issues any memory access.

Per-query randomness
--------------------
Each query ``q`` draws from its own lane family, keyed by
``derive_seed(seed, q)``.  This makes a query's walk independent of
scheduling (how queries interleave on the hardware), which is what lets a
cycle-accurate simulation and a fast analytic model produce *the same
walks* — the one deliberate deviation from the physical accelerator, where
lanes are shared by arrival order (see DESIGN.md).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.graph.csr import CSRGraph
from repro.sampling.parallel_wrs import ParallelWRS, integer_accept
from repro.sampling.rng import ThundeRingRNG, derive_seed, splitmix64, splitmix64_inplace
from repro.walks.base import (
    StepContext,
    StepWorkspace,
    WalkAlgorithm,
    gather_step,
    quantize_weights,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_U32_LIMIT = np.uint64(1 << 32)

#: Mixed into the sampler seed to key the restart-coin lanes.
_RESTART_SALT = 0x9E57A97

#: Edge budget of one step block (see "Step blocks" above).
STEP_BLOCK_EDGES = 1 << 18


def _query_lane_keys(seed: int, query_ids: np.ndarray, k: int) -> np.ndarray:
    """Lane keys for every query — matches ``ThundeRingRNG`` construction.

    Row ``i`` equals the ``_lane_keys`` of
    ``ThundeRingRNG(k, derive_seed(seed, query_ids[i]))``.
    """
    qids = np.asarray(query_ids, dtype=np.uint64)
    seed64 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    # derive_seed(seed, qid) == splitmix64(splitmix64(seed ^ qid))
    qseeds = splitmix64(splitmix64(seed64 ^ qids))
    lanes = np.arange(k, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return splitmix64(qseeds[:, None] ^ ((lanes + np.uint64(1)) * _GOLDEN)[None, :])


def _lane_uint32(counters: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """One 32-bit draw per (counter, key) pair — matches ``ThundeRingRNG``."""
    raw = np.multiply(counters, _GOLDEN, dtype=np.uint64)
    raw ^= keys
    splitmix64_inplace(raw)
    raw >>= np.uint64(32)
    return raw


def _cycle_draws(
    lane_keys: np.ndarray,
    row_query: np.ndarray,
    row_counters: np.ndarray,
    workspace: StepWorkspace | None = None,
) -> np.ndarray:
    """Raw 64-bit draws of one hardware cycle per row, ``k`` lanes wide.

    Row ``i`` mixes cycle counter ``row_counters[i]`` with the lane keys
    ``lane_keys[row_query[i]]`` (``lane_keys`` is ``(n, k)``).  Its high
    32 bits are what ``ThundeRingRNG.next_uint32`` returns at that counter
    for that query's generator.  The draws fill the workspace's ``draws``
    slab, and the mix runs in its ``scratch`` slab.
    """
    if workspace is None:
        workspace = StepWorkspace()
    shape = (row_query.size, lane_keys.shape[1])
    size = shape[0] * shape[1]
    # mode="wrap" (the rows are in range) writes into out= directly; the
    # default mode="raise" buffers it.
    draws = np.take(
        lane_keys, row_query, axis=0, out=workspace.array("draws", size).reshape(shape), mode="wrap"
    )
    # Each row's mixed counter goes to all k lanes of the scratch slab for a
    # flat XOR: a broadcast XOR runs a short inner loop per row and buffers.
    scratch = workspace.array("scratch", size).reshape(shape)
    np.copyto(scratch, np.multiply(row_counters, _GOLDEN)[:, None])
    draws ^= scratch
    return splitmix64_inplace(draws, scratch=scratch)


def _accept_threshold(within: np.ndarray) -> np.ndarray:
    """Raw 64-bit draw bound below which lane ``within`` accepts a constant weight.

    With every weight equal to ``w >= 1``, Equation 8 at inclusive prefix
    ``w * (within + 1)`` reads ``2^32 w > r* w (within + 1) + w``, i.e.
    ``r* <= (2^32 - 2) // (within + 1)``, whatever ``w`` is.  A draw's
    high 32 bits are ``r*``, so the test on the raw draw is ``raw < bound``.
    """
    bound = np.uint64(0xFFFFFFFE) // (np.asarray(within, dtype=np.uint64) + np.uint64(1))
    bound += np.uint64(1)
    bound <<= _SHIFT32
    return bound


def _weight_before(incl_prefix: np.ndarray, edge_index: np.ndarray) -> np.ndarray:
    """Total weight of the block's edges before each of ``edge_index``.

    One read of the inclusive prefix per query, at the edge before: a
    segment that starts the block has nothing before it, and a sink's
    segment (which may start at the block's end) is never read past.
    """
    if not incl_prefix.size:
        return np.zeros(edge_index.size, dtype=np.uint64)
    before = incl_prefix[edge_index - 1]
    before[edge_index == 0] = 0
    return before


def _segment_prefix(w_int: np.ndarray, firsts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inclusive prefix of ``w_int`` restarted at every segment, into ``out``.

    ``firsts`` are the increasing first edges of the non-empty segments.
    Each segment's first weight is lowered by the total of the segment
    before it for one cumulative sum over the block, then restored; uint64
    arithmetic wraps, and every true partial sum fits, so the result is
    exact.
    """
    if not firsts.size:
        return out
    carried = np.add.reduceat(w_int, firsts)[:-1]
    w_int[firsts[1:]] -= carried
    np.cumsum(w_int, out=out)
    w_int[firsts[1:]] += carried
    return out


def _accept(
    w_int: np.ndarray, incl_prefix: np.ndarray, r_star: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """:func:`~repro.sampling.parallel_wrs.integer_accept` into the mask ``out``.

    With every prefix below ``2^32`` the test ``2^32 w > r* P + w`` runs in
    place, overwriting ``incl_prefix`` and ``r_star``; larger prefixes take
    ``integer_accept``'s exact limb form.
    """
    if incl_prefix.size and incl_prefix.max() >= _U32_LIMIT:
        out[:] = integer_accept(w_int, incl_prefix, r_star)
        return out
    r_star *= incl_prefix
    r_star += w_int
    np.left_shift(w_int, _SHIFT32, out=incl_prefix)
    return np.greater(incl_prefix, r_star, out=out)


class PWRSSampler:
    """Parallel WRS selection across a batch of queries (Algorithm 4.1).

    Parameters
    ----------
    k:
        Sampler parallelism — items consumed per hardware cycle.
    seed:
        Master seed; per-query lanes derive from it.
    """

    name = "pwrs"

    def __init__(self, k: int = 16, seed: int = 0) -> None:
        if k <= 0:
            raise ConfigError(f"k must be positive, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self._lane_keys: np.ndarray | None = None
        self._counters: np.ndarray | None = None
        # _accept_threshold of every lane, one row of k per cycle, grown
        # to the graph's maximum degree on first use.
        self._thresholds = np.empty((0, self.k), dtype=np.uint64)

    def attach(self, num_queries: int, query_ids: np.ndarray) -> None:
        """Allocate per-query lane keys and cycle counters."""
        self._lane_keys = _query_lane_keys(self.seed, query_ids, self.k)
        self._counters = np.zeros(num_queries, dtype=np.uint64)

    def _threshold_rows(self, ctx: StepContext, rows: np.ndarray) -> np.ndarray:
        if int(rows.max()) > len(self._thresholds):
            n_rows = -(-int(ctx.graph.degrees.max()) // self.k)
            within = np.arange(n_rows * self.k, dtype=np.uint64)
            self._thresholds = _accept_threshold(within).reshape(n_rows, self.k)
        return self._thresholds

    def select(
        self,
        ctx: StepContext,
        weights: np.ndarray,
        active_index: np.ndarray,
    ) -> np.ndarray:
        """Pick one neighbor per active query; returns within-segment index.

        ``active_index`` maps each active query to its row in the attached
        per-query state.  A return of ``-1`` means every candidate weight
        was zero (dead end).
        """
        if self._lane_keys is None or self._counters is None:
            raise ConfigError("sampler not attached; call attach() first")
        degrees, seg_starts, ws = ctx.degrees, ctx.seg_starts, ctx.workspace
        # Query i takes rows[i] cycles ("Cycle-major draws" in the module
        # docstring), stacked from row row_starts[i] of the draws.
        rows = -(-degrees // self.k)
        row_starts = np.cumsum(rows) - rows
        cycle = np.arange(int(rows.sum()), dtype=np.int64)
        cycle -= np.repeat(row_starts, rows)
        row_counters = np.repeat(self._counters[active_index], rows)
        row_counters += cycle.view(np.uint64)
        draws = _cycle_draws(self._lane_keys, np.repeat(active_index, rows), row_counters, ws)
        pad_starts = row_starts * self.k

        weights = np.asarray(weights)
        if weights.strides == (0,) and weights.size:
            # One weight for every edge ("Constant weights" in the module
            # docstring): a threshold per lane, no per-edge array at all.
            if quantize_weights(weights[:1])[0]:
                thresholds = np.take(
                    self._threshold_rows(ctx, rows),
                    cycle,
                    axis=0,
                    out=ws.array("scratch", draws.size).reshape(draws.shape),
                    mode="wrap",
                )
                below = ws.array("mask", draws.size, bool).reshape(draws.shape)
                hits = np.flatnonzero(np.less(draws, thresholds, out=below))
            else:
                hits = np.empty(0, dtype=np.intp)
            starts = pad_starts
        else:
            n = ctx.n_edges
            walked = np.flatnonzero(degrees)
            lane_shift = (pad_starts - seg_starts)[walked]
            firsts = seg_starts[walked]
            # Edge e of query i draws from flat lane e + pad_starts[i] - seg_starts[i]:
            # a run of ones with a jump at each segment's first edge, summed.
            lane = ws.array("scratch", n, np.int64)
            lane.fill(1)
            lane[firsts] += np.diff(lane_shift, prepend=1)
            np.cumsum(lane, out=lane)
            r_star = np.take(draws.ravel(), lane, out=ws.array("r_star", n), mode="wrap")
            r_star >>= _SHIFT32
            # The draws and lanes are spent: their slabs take the weights and prefix.
            w_int = quantize_weights(weights, out=ws.array("draws", n))
            incl_prefix = _segment_prefix(w_int, firsts, ws.array("scratch", n))
            hits = np.flatnonzero(_accept(w_int, incl_prefix, r_star, ws.array("mask", n, bool)))
            starts = seg_starts
        # The last hit before a query's end wins if it is past the query's
        # start (it would have overwritten the others sequentially); the -1
        # sentinel lies below every start, so a query without hits gets -1.
        hits = np.concatenate(([-1], hits))
        last = hits[np.searchsorted(hits, starts + degrees) - 1]
        chosen = np.where(last >= starts, last - starts, np.int64(-1))

        # Active queries are distinct, so plain fancy-index += is exact.
        self._counters[active_index] += rows.astype(np.uint64)
        return chosen


class InverseTransformSampler:
    """ThunderRW-style sampling: build a CDF table, draw once per step.

    Works on PWRS's fixed-point grid (see "Sampler strategies" in the
    module docstring).
    """

    name = "inverse-transform"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._keys: np.ndarray | None = None
        self._counters: np.ndarray | None = None

    def attach(self, num_queries: int, query_ids: np.ndarray) -> None:
        self._keys = _query_lane_keys(self.seed, query_ids, 1)[:, 0]
        self._counters = np.zeros(num_queries, dtype=np.uint64)

    def select(
        self,
        ctx: StepContext,
        weights: np.ndarray,
        active_index: np.ndarray,
    ) -> np.ndarray:
        if self._keys is None or self._counters is None:
            raise ConfigError("sampler not attached; call attach() first")
        seg_starts, ws = ctx.seg_starts, ctx.workspace
        prefix = quantize_weights(weights, out=ws.array("scratch", ctx.n_edges))
        np.cumsum(prefix, out=prefix)
        seg_base = _weight_before(prefix, seg_starts)
        seg_total = _weight_before(prefix, seg_starts + ctx.degrees) - seg_base

        r_star = _lane_uint32(self._counters[active_index], self._keys[active_index])
        self._counters[active_index] += np.uint64(1)

        # target = seg_base + floor(r* T / 2^32), exact in 32-bit limbs of T
        # (as in integer_accept); it lies in [seg_base, seg_base + T).
        targets = r_star * (seg_total & _LOW32)
        targets >>= _SHIFT32
        targets += r_star * (seg_total >> _SHIFT32)
        targets += seg_base
        chosen = np.searchsorted(prefix, targets, side="right") - seg_starts
        return np.where(seg_total > 0, chosen, np.int64(-1))


@dataclass
class StepRecord:
    """Everything the performance models need about one executed step."""

    step: int
    query_ids: np.ndarray  # session rows active this step (merging shards rebases them)
    curr: np.ndarray  # vertex each query stood on
    degrees: np.ndarray  # out-degree of curr
    prev: np.ndarray  # previous vertex (-1 on the first step)
    prev_degrees: np.ndarray  # out-degree of prev (0 where prev == -1)
    next_vertex: np.ndarray  # sampled vertex (-1 on dead end)

    @property
    def n_queries(self) -> int:
        return int(self.query_ids.size)


@dataclass
class WalkSession:
    """Result of a batch walk: the paths plus the recorded access trace."""

    graph: CSRGraph
    algorithm: str
    sampler: str
    starts: np.ndarray
    paths: np.ndarray  # (Q, max_steps + 1), -1 padded
    lengths: np.ndarray  # steps actually taken per query
    records: list[StepRecord] = field(default_factory=list)

    @property
    def num_queries(self) -> int:
        return int(self.starts.size)

    @property
    def total_steps(self) -> int:
        return int(self.lengths.sum())

    def path(self, q: int) -> np.ndarray:
        """The walked path of query ``q`` without padding."""
        return self.paths[q, : self.lengths[q] + 1]


def check_batch(
    graph: CSRGraph, starts: np.ndarray, n_steps: int, algorithm: WalkAlgorithm
) -> np.ndarray:
    """Refuse a malformed query batch; return ``starts`` as int64.

    ``starts`` must be 1-D vertex ids of ``graph``, ``n_steps`` a
    non-negative integer, and the graph must carry what ``algorithm``
    reads.  :meth:`repro.core.LightRW.run` calls this before planning, so
    bad input fails once instead of inside every shard attempt.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1:
        raise QueryError(f"starts must be 1-D, got shape {starts.shape}")
    if starts.size and (starts.min() < 0 or starts.max() >= graph.num_vertices):
        raise QueryError("start vertex out of range")
    if not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise QueryError(f"n_steps must be a non-negative integer, got {n_steps!r}")
    algorithm.validate_graph(graph)
    return starts


def run_walks(
    graph: CSRGraph,
    starts: np.ndarray,
    n_steps: int,
    algorithm: WalkAlgorithm,
    sampler: PWRSSampler | InverseTransformSampler,
    query_ids: np.ndarray | None = None,
) -> WalkSession:
    """Walk every query ``n_steps`` steps (or until a dead end).

    Parameters
    ----------
    graph:
        The CSR graph (validated).
    starts:
        Start vertex per query; queries are identified by position.
    n_steps:
        Target number of steps (edges) per walk — the paper's "query
        length" is 5 for MetaPath and 80 for Node2Vec.
    algorithm:
        The GDRW weight-update function.
    sampler:
        Sampler strategy instance (its ``attach`` is called here).
    query_ids:
        Global query ids used to derive per-query RNG lanes; defaults to
        ``arange(len(starts))``.  The sharded batch scheduler passes each
        shard's global ids here so a query's walk is independent of the
        shard layout.
    """
    starts = check_batch(graph, starts, n_steps, algorithm)
    n_queries = starts.size
    if query_ids is None:
        query_ids = np.arange(n_queries, dtype=np.int64)
    else:
        query_ids = np.asarray(query_ids, dtype=np.int64)
        if query_ids.shape != starts.shape:
            raise QueryError("query_ids must align with starts")
    sampler.attach(n_queries, query_ids)

    paths = np.full((n_queries, n_steps + 1), -1, dtype=np.int64)
    paths[:, 0] = starts
    lengths = np.zeros(n_queries, dtype=np.int64)
    curr = starts.copy()
    prev = np.full(n_queries, -1, dtype=np.int64)
    alive = np.ones(n_queries, dtype=bool)
    records: list[StepRecord] = []

    all_degrees = graph.degrees
    workspace = StepWorkspace()
    alpha = algorithm.restart_probability
    if alpha:
        coin_keys = _query_lane_keys(derive_seed(sampler.seed, _RESTART_SALT), query_ids, 1)[:, 0]
        coin_counters = np.zeros(n_queries, dtype=np.uint64)

    for step in range(n_steps):
        active = np.nonzero(alive)[0]
        if active.size == 0:
            break
        a_curr = curr[active]
        a_deg = all_degrees[a_curr]
        walkable = a_deg > 0
        # Queries stranded on a sink vertex terminate before sampling.
        if not np.all(walkable):
            alive[active[~walkable]] = False
            active = active[walkable]
            if active.size == 0:
                break
            a_curr = curr[active]
            a_deg = all_degrees[a_curr]
        a_prev = prev[active]

        next_vertices = np.empty(active.size, dtype=np.int64)
        walk = slice(None)
        step_degrees = a_deg
        if alpha:
            coins = _lane_uint32(coin_counters[active], coin_keys[active])
            coin_counters[active] += np.uint64(1)
            restart = coins.astype(np.float64) / float(1 << 32) < alpha
            next_vertices[restart] = starts[active[restart]]
            step_degrees = np.where(restart, 0, a_deg)
            walk = ~restart
        next_vertices[walk] = _sample_step(
            graph,
            step,
            algorithm,
            sampler,
            workspace,
            active[walk],
            a_curr[walk],
            a_prev[walk],
            a_deg[walk],
        )
        sampled = next_vertices >= 0

        records.append(
            StepRecord(
                step=step,
                query_ids=active.copy(),
                curr=a_curr.copy(),
                degrees=step_degrees,
                prev=a_prev,
                prev_degrees=np.where(a_prev >= 0, all_degrees[np.maximum(a_prev, 0)], 0),
                next_vertex=next_vertices,
            )
        )

        moved = active[sampled]
        prev[moved] = curr[moved]
        curr[moved] = next_vertices[sampled]
        paths[moved, step + 1] = curr[moved]
        lengths[moved] = step + 1
        alive[active[~sampled]] = False

    return WalkSession(
        graph=graph,
        algorithm=algorithm.name,
        sampler=sampler.name,
        starts=starts,
        paths=paths,
        lengths=lengths,
        records=records,
    )


def _sample_step(
    graph: CSRGraph,
    step: int,
    algorithm: WalkAlgorithm,
    sampler: PWRSSampler | InverseTransformSampler,
    workspace: StepWorkspace,
    active: np.ndarray,
    curr: np.ndarray,
    prev: np.ndarray,
    degrees: np.ndarray,
) -> np.ndarray:
    """Sampled next vertex (``-1`` on a dead end) of each query, walking
    the step in blocks of about :data:`STEP_BLOCK_EDGES` candidate edges."""
    next_vertices = np.empty(active.size, dtype=np.int64)
    edge_ends = np.cumsum(degrees)
    lo = 0
    while lo < active.size:
        budget_end = (edge_ends[lo - 1] if lo else 0) + STEP_BLOCK_EDGES
        hi = max(int(np.searchsorted(edge_ends, budget_end, side="right")), lo + 1)
        block = slice(lo, hi)
        ctx = gather_step(graph, step, curr[block], prev[block], workspace)
        chosen = sampler.select(ctx, algorithm.dynamic_weights(ctx), active[block])
        next_vertices[block] = ctx.next_vertices(chosen)
        lo = hi
    return next_vertices


def walk_single_query(
    graph: CSRGraph,
    start: int,
    n_steps: int,
    algorithm: WalkAlgorithm,
    k: int,
    seed: int,
    query_id: int = 0,
) -> np.ndarray:
    """Golden scalar reference: one query, one :class:`ParallelWRS` instance.

    Feeds the candidate stream through the stateful k-wide sampler in
    batches exactly as the hardware WRS Sampler consumes it.  With the same
    ``seed``/``query_id``, :func:`run_walks` with a :class:`PWRSSampler`
    reproduces this path bit-for-bit — the equivalence test anchoring the
    vectorized engine to Algorithm 4.1.
    """
    check_batch(graph, [start], n_steps, algorithm)
    if algorithm.restart_probability:
        raise QueryError("walk_single_query does not model restart; use run_walks")
    rng = ThundeRingRNG(k, derive_seed(seed, query_id))
    sampler = ParallelWRS(k, rng)
    path = [int(start)]
    curr = int(start)
    prev = -1
    for step in range(n_steps):
        degree = graph.degree(curr)
        if degree == 0:
            break
        ctx = gather_step(graph, step, np.array([curr]), np.array([prev]))
        dst = ctx.dst
        weights = quantize_weights(algorithm.dynamic_weights(ctx))
        sampler.reset()
        for chunk_start in range(0, degree, k):
            chunk = slice(chunk_start, min(chunk_start + k, degree))
            sampler.consume(dst[chunk], weights[chunk])
        selected = sampler.result()
        if selected is None:
            break
        prev, curr = curr, int(selected)
        path.append(curr)
    return np.asarray(path, dtype=np.int64)
