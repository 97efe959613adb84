"""On-chip vertex caches for the Neighbor Info Loader (paper Section 5.1).

The accelerator caches ``row_index`` entries — the ``(address, degree)``
neighbor-info tuple of a vertex — in on-chip URAM.  Random-walk accesses
have enormous reuse distances, so recency-based policies fail; LightRW's
**degree-aware cache** (DAC) instead evicts by comparing degrees: on a
miss, the fetched vertex replaces the cached line only if its degree is
strictly higher.  Because visit probability grows with degree
(Section 5.1's stationary-distribution analysis), the cache converges to
holding the hottest vertices with zero preprocessing.

This module provides:

* stateful single-access caches (:class:`DegreeAwareCache`,
  :class:`DirectMappedCache`, :class:`LRUCache`, :class:`FIFOCache`) used
  by the cycle simulator and the policy-ablation benchmarks, and
* **exact vectorized trace simulations**
  (:func:`simulate_degree_aware`, :func:`simulate_direct_mapped`,
  :func:`simulate_lru`, :func:`simulate_fifo`) used by the fast model.
  These are not approximations: a direct-mapped DAC line always holds the
  highest-degree vertex accessed so far in its set (earliest-first on
  ties), so the hit/miss outcome of every access is a running-argmax
  query, computable with one segmented max-scan; LRU hits are stack-depth
  queries answered by offline dominance counting; FIFO residency is a
  fixpoint over the insertion (miss) labeling that converges in at most
  one pass per access.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import ConfigError


def _check_capacity(capacity: int) -> None:
    if capacity <= 0 or capacity & (capacity - 1):
        raise ConfigError(f"cache capacity must be a power of two, got {capacity}")


class CacheStatsMixin:
    """Shared hit/miss accounting for every cache policy.

    Subclasses call :meth:`record_hit` / :meth:`record_miss` from their
    ``access`` method; the derived ratios then come for free and stay
    consistent across policies.
    """

    name = "cache"

    def _init_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def record_hit(self) -> bool:
        self.hits += 1
        return True

    def record_miss(self) -> bool:
        self.misses += 1
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


class DegreeAwareCache(CacheStatsMixin):
    """Stateful direct-mapped degree-aware cache (paper Figure 5)."""

    name = "degree-aware"

    def __init__(self, capacity: int) -> None:
        _check_capacity(capacity)
        self.capacity = capacity
        self._mask = capacity - 1
        self._vertex = np.full(capacity, -1, dtype=np.int64)
        self._degree = np.full(capacity, -1, dtype=np.int64)
        self._init_stats()

    def access(self, vertex: int, degree: int) -> bool:
        """Look up ``vertex``; on miss, replace only if ``degree`` is higher."""
        line = vertex & self._mask
        if self._vertex[line] == vertex:
            return self.record_hit()
        if degree > self._degree[line]:
            self._vertex[line] = vertex
            self._degree[line] = degree
        return self.record_miss()


class DirectMappedCache(CacheStatsMixin):
    """Stateful direct-mapped always-replace cache (the DMC baseline)."""

    name = "direct-mapped"

    def __init__(self, capacity: int) -> None:
        _check_capacity(capacity)
        self.capacity = capacity
        self._mask = capacity - 1
        self._vertex = np.full(capacity, -1, dtype=np.int64)
        self._init_stats()

    def access(self, vertex: int, degree: int = 0) -> bool:
        line = vertex & self._mask
        if self._vertex[line] == vertex:
            return self.record_hit()
        self._vertex[line] = vertex
        return self.record_miss()


class _SetAssociativeCache(CacheStatsMixin):
    """Shared machinery for the recency-policy ablation caches."""

    def __init__(self, capacity: int, ways: int) -> None:
        _check_capacity(capacity)
        if ways <= 0 or capacity % ways:
            raise ConfigError(f"ways ({ways}) must divide capacity ({capacity})")
        self.capacity = capacity
        self.ways = ways
        self.n_sets = capacity // ways
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self._init_stats()

    _promote_on_hit = True

    def access(self, vertex: int, degree: int = 0) -> bool:
        entries = self._sets[vertex % self.n_sets]
        if vertex in entries:
            if self._promote_on_hit:
                entries.move_to_end(vertex)
            return self.record_hit()
        if len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[vertex] = None
        return self.record_miss()


class LRUCache(_SetAssociativeCache):
    """Set-associative LRU — a recency policy the paper argues is futile."""

    name = "lru"
    _promote_on_hit = True

    def __init__(self, capacity: int, ways: int = 4) -> None:
        super().__init__(capacity, ways)


class FIFOCache(_SetAssociativeCache):
    """Set-associative FIFO — the other classic recency policy."""

    name = "fifo"
    _promote_on_hit = False

    def __init__(self, capacity: int, ways: int = 4) -> None:
        super().__init__(capacity, ways)


def simulate_degree_aware(
    trace: np.ndarray, degrees: np.ndarray, capacity: int
) -> np.ndarray:
    """Exact vectorized hit mask of a degree-aware cache over a trace.

    Parameters
    ----------
    trace:
        Vertex ids in access order.
    degrees:
        Degree of every vertex in the graph (indexed by vertex id).
    capacity:
        Cache entries (power of two, direct-mapped).

    Returns
    -------
    bool ndarray aligned with ``trace`` — True where the access hit.

    Notes
    -----
    A DAC line holds the maximum-degree vertex accessed so far in its set,
    with ties kept by the earliest accessor (strict-inequality replacement).
    Encoding each vertex as ``degree * 2^26 + (2^26 - 1 - first_access_rank)``
    makes "the currently cached vertex" an exclusive running maximum of
    that key within the set's access sequence, and a hit is simply "my key
    equals the running max".  The encoding is unique per vertex, so key
    equality implies vertex equality.
    """
    _check_capacity(capacity)
    trace = np.asarray(trace, dtype=np.int64)
    if trace.size == 0:
        return np.zeros(0, dtype=bool)
    if trace.size >= (1 << 26):
        raise ConfigError("trace too long for the vectorized DAC encoding (2^26)")
    degrees = np.asarray(degrees, dtype=np.int64)

    # Rank of each vertex's first appearance in the trace.
    _, first_pos, inverse = np.unique(trace, return_index=True, return_inverse=True)
    rank_of_vertex = first_pos  # per unique vertex
    key = (degrees[trace] << np.int64(26)) + (np.int64(1 << 26) - 1 - rank_of_vertex[inverse])

    sets = trace & np.int64(capacity - 1)
    order = np.argsort(sets, kind="stable")  # time order preserved within a set
    sorted_keys = key[order]
    sorted_sets = sets[order]

    boundaries = np.nonzero(np.diff(sorted_sets))[0] + 1
    seg_starts = np.concatenate([[0], boundaries])
    seg_ends = np.concatenate([boundaries, [sorted_sets.size]])

    hits_sorted = np.zeros(trace.size, dtype=bool)
    for start, end in zip(seg_starts.tolist(), seg_ends.tolist()):
        segment = sorted_keys[start:end]
        running = np.maximum.accumulate(segment)
        # Exclusive prefix max: state of the line *before* each access.
        exclusive = np.empty_like(running)
        exclusive[0] = -1
        exclusive[1:] = running[:-1]
        hits_sorted[start:end] = segment == exclusive

    hits = np.zeros(trace.size, dtype=bool)
    hits[order] = hits_sorted
    return hits


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """Stable ascending order of non-negative integer ``keys``.

    NumPy's ``kind="stable"`` argsort is several times slower than the
    default sort here, so when the range allows we make keys unique by
    mixing in the position (``key * n + i``) and use the default sort —
    bitwise identical to a stable sort, minus the cost.
    """
    n = keys.size
    top = int(keys.max(initial=0))
    if top < (1 << 62) // max(n, 1):
        return np.argsort(keys * np.int64(n) + np.arange(n, dtype=np.int64))
    return np.argsort(keys, kind="stable")


def _set_segments(trace: np.ndarray, n_sets: int):
    """Group a trace by cache set, preserving time order within each set.

    Returns ``(order, sv, seg_id, local)`` where ``order`` sorts the trace
    set-major (stable, so time order survives inside a set), ``sv`` is the
    sorted vertex stream, ``seg_id`` numbers the set segments 0..S-1 along
    the sorted array and ``local`` is each access's position within its
    segment.  Sets use ``vertex % n_sets`` to mirror
    :class:`_SetAssociativeCache` exactly.
    """
    sets = trace % np.int64(n_sets)
    order = _stable_order(sets)
    sv = trace[order]
    ss = sets[order]
    n = trace.size
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = ss[1:] != ss[:-1]
    seg_id = np.cumsum(seg_start) - 1
    seg_first = np.nonzero(seg_start)[0]
    local = np.arange(n, dtype=np.int64) - seg_first[seg_id]
    return order, sv, seg_id, local


def _previous_occurrence(sv: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each access, ``values`` at the previous access of the same vertex.

    ``sv`` is the set-sorted vertex stream (time order within each vertex's
    run); returns -1 where the vertex has no earlier occurrence.  Same-vertex
    accesses land in the same set, so no segment bookkeeping is needed.
    """
    n = sv.size
    vorder = _stable_order(sv)
    pv = sv[vorder]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = pv[1:] == pv[:-1]
    prev_sorted[1:][same] = values[vorder[:-1]][same]
    prev = np.empty(n, dtype=np.int64)
    prev[vorder] = prev_sorted
    return prev


#: Tile width for the dominance counter's brute-force terms.
_COUNT_TILE = 48


def _count_earlier_less(keys: np.ndarray) -> np.ndarray:
    """For each position ``i``: ``#{p < i : keys[p] < keys[i]}``.

    ``keys`` must be pairwise distinct.  Offline dominance counting with a
    two-level decomposition: positions are tiled into blocks of ``m`` and
    key ranks into buckets of ``m``.  A pair (p < i, key_p < key_i) falls
    into exactly one of

    * *earlier block, smaller bucket* — read off a cumulative
      block × bucket histogram (the bucket being smaller already implies
      the key is);
    * *earlier block, same bucket* — one triangular broadcast comparison
      per bucket tile (elements of a bucket are contiguous in rank order);
    * *same block* — one triangular broadcast comparison per block tile.

    Everything is C-level array work: O(n·m) comparisons plus an
    (n/m)² histogram, with m grown past :data:`_COUNT_TILE` for huge
    traces to keep the histogram small.
    """
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    g = np.argsort(keys)  # unique keys: default sort is already stable
    rank = np.empty(n, dtype=np.int64)
    rank[g] = np.arange(n, dtype=np.int64)

    m = _COUNT_TILE
    while (n // m) ** 2 > 32 * n * m:
        m *= 2
    nrows = -(-n // m)
    pad = nrows * m - n
    block = np.arange(n, dtype=np.int64) // m
    bucket = rank // m
    tri = np.tri(m, k=-1, dtype=bool)

    hist = np.bincount(block * nrows + bucket, minlength=nrows * nrows)
    coarse = hist.reshape(nrows, nrows).astype(np.int32)
    coarse.cumsum(axis=0, out=coarse)
    coarse.cumsum(axis=1, out=coarse)
    t1 = np.zeros(n, dtype=np.int64)
    inner = (block > 0) & (bucket > 0)
    t1[inner] = coarse[block[inner] - 1, bucket[inner] - 1]

    # Same bucket, earlier block: bucket tiles are g reshaped row-wise
    # (rank order within a row); padding gets block id n so it never
    # counts as an earlier element.  int32 tiles halve the broadcast
    # traffic (tile ids and ranks are far below 2^31).
    gp = np.concatenate([g, np.full(pad, -1, dtype=np.int64)]).reshape(nrows, m)
    blk = block[np.maximum(gp, 0)].astype(np.int32)
    blk[gp < 0] = n
    t2a_tile = ((blk[:, None, :] < blk[:, :, None]) & tri).sum(axis=2)
    t2a = np.zeros(n, dtype=np.int64)
    valid = gp >= 0
    t2a[gp[valid]] = t2a_tile[valid]

    # Same block, earlier position: block tiles are positions reshaped
    # row-wise; padding gets rank n so it never counts.
    rp = np.concatenate(
        [rank.astype(np.int32), np.full(pad, n, dtype=np.int32)]
    ).reshape(nrows, m)
    t2b = ((rp[:, None, :] < rp[:, :, None]) & tri).sum(axis=2).reshape(-1)[:n]
    return t1 + t2a + t2b


def _check_ways(capacity: int, ways: int) -> None:
    _check_capacity(capacity)
    if ways <= 0 or capacity % ways:
        raise ConfigError(f"ways ({ways}) must divide capacity ({capacity})")


def simulate_lru(trace: np.ndarray, capacity: int, ways: int = 4) -> np.ndarray:
    """Exact vectorized hit mask of a set-associative LRU cache.

    Matches :class:`LRUCache` access for access.  A set-associative LRU
    access hits iff the stack distance — the number of *distinct* vertices
    touched in its set since the previous access to the same vertex — is
    below the associativity.  With ``j`` the (set-local) position of that
    previous access and ``C(i) = #{p < i in the set : prev(p) <= j}``, the
    distinct count equals ``C(i) - (j + 1)``: an earlier access contributes
    a distinct vertex in the window iff it is the *first* occurrence after
    ``j``, i.e. its own previous occurrence is at or before ``j``.  So a
    hit is simply ``C(i) <= j + ways``, and because prev-occurrence
    positions are unique, one :func:`_count_earlier_less` pass over
    segment-scoped keys answers every access at once.
    """
    _check_ways(capacity, ways)
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    n_sets = capacity // ways
    order, sv, seg_id, local = _set_segments(trace, n_sets)
    idx = np.arange(n, dtype=np.int64)
    prev_pos = _previous_occurrence(sv, idx)  # global set-sorted position
    prev_local = np.where(prev_pos >= 0, local[np.maximum(prev_pos, 0)], -1)
    # A first occurrence trivially satisfies "prev <= j", so C(i) splits
    # into (first occurrences earlier in the segment) + (candidates
    # earlier in the segment whose previous access is older than mine).
    # Only the second term needs the dominance counter, and only over the
    # repeat accesses — typically a fraction of the trace.
    candidate = prev_pos >= 0
    first = (~candidate).astype(np.int64)
    ecum = np.cumsum(first) - first  # first occurrences strictly before i
    counts = ecum - ecum[idx - local]  # ... within my own segment
    # Segment-scoped unique keys for the candidate subproblem: earlier
    # segments get strictly larger bases, so a cross-set pair never
    # compares; prev positions are globally unique, so keys are too.
    base = (np.int64(seg_id[-1] + 1) - seg_id) * np.int64(n + 1)
    counts[candidate] += _count_earlier_less(base[candidate] + prev_pos[candidate])
    hits_sorted = candidate & (counts <= prev_local + ways)
    hits = np.zeros(n, dtype=bool)
    hits[order] = hits_sorted
    return hits


def simulate_fifo(trace: np.ndarray, capacity: int, ways: int = 4) -> np.ndarray:
    """Exact vectorized hit mask of a set-associative FIFO cache.

    Matches :class:`FIFOCache` access for access.  FIFO hits do not touch
    the queue, so an access hits iff fewer than ``ways`` *insertions*
    (misses) happened in its set since the vertex's most recent miss.  That
    makes the hit mask a fixpoint of the miss labeling; iterating from
    all-miss converges because each access's label depends only on earlier
    labels, so the correct prefix grows by at least one access per round
    (worst case n rounds, in practice a handful).
    """
    _check_ways(capacity, ways)
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    n_sets = capacity // ways
    order, sv, _, _ = _set_segments(trace, n_sets)
    idx = np.arange(n, dtype=np.int64)
    vorder = _stable_order(sv)
    chain_start = np.empty(n, dtype=bool)
    chain_start[0] = True
    chain_start[1:] = sv[vorder[1:]] != sv[vorder[:-1]]
    chain_id = np.cumsum(chain_start) - 1
    chain_span = np.int64(n + 1)

    miss = np.ones(n, dtype=bool)
    for _ in range(n + 1):
        # Most recent same-vertex access currently labeled a miss, as a
        # running max of "index if miss else -1" along each vertex chain
        # (chain offsets keep the scan from leaking across vertices).
        enc = np.where(miss[vorder], vorder, np.int64(-1))
        shifted = np.empty(n, dtype=np.int64)
        shifted[0] = -1
        shifted[1:] = enc[:-1]
        shifted[chain_start] = -1
        run = np.maximum.accumulate(shifted + chain_id * chain_span)
        prev_miss = np.empty(n, dtype=np.int64)
        prev_miss[vorder] = run - chain_id * chain_span
        # Insertions strictly between the previous miss q and this access:
        # both live in the same contiguous set segment, so a global
        # inclusive cumsum suffices.
        cm = np.cumsum(miss)
        has_prev = prev_miss >= 0
        between = np.where(
            has_prev, cm[np.maximum(idx - 1, 0)] - cm[np.maximum(prev_miss, 0)], 0
        )
        new_miss = ~(has_prev & (between < ways))
        if np.array_equal(new_miss, miss):
            break
        miss = new_miss
    hits = np.zeros(n, dtype=bool)
    hits[order] = ~miss
    return hits


def simulate_direct_mapped(trace: np.ndarray, capacity: int) -> np.ndarray:
    """Exact vectorized hit mask of a direct-mapped always-replace cache.

    An access hits iff the immediately preceding access to the same set was
    the same vertex.
    """
    _check_capacity(capacity)
    trace = np.asarray(trace, dtype=np.int64)
    if trace.size == 0:
        return np.zeros(0, dtype=bool)
    sets = trace & np.int64(capacity - 1)
    order = np.argsort(sets, kind="stable")
    sorted_trace = trace[order]
    sorted_sets = sets[order]
    hits_sorted = np.zeros(trace.size, dtype=bool)
    same_vertex = sorted_trace[1:] == sorted_trace[:-1]
    same_set = sorted_sets[1:] == sorted_sets[:-1]
    hits_sorted[1:] = same_vertex & same_set
    hits = np.zeros(trace.size, dtype=bool)
    hits[order] = hits_sorted
    return hits
