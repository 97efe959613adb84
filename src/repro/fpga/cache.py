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

* stateful single-access caches: :class:`DegreeAwareCache` (the cycle
  simulator's Neighbor Info Loader) and, for the policy ablation only,
  :class:`DirectMappedCache`, :class:`LRUCache` and :class:`FIFOCache`;
* **exact vectorized trace simulations** of the two direct-mapped
  policies: :func:`simulate_degree_aware` (the analytic model and
  Figure 11) and :func:`simulate_direct_mapped` (Figure 11's baseline).
  These are not approximations: a DAC line always holds the
  highest-degree vertex accessed so far in its set (earliest-first on
  ties), so the hit/miss outcome of every access is a running-argmax
  query, computable with one segmented max-scan; a direct-mapped access
  hits iff the previous access to its set was the same vertex.  Both
  order the trace by set with one stable argsort (:func:`_set_order`),
  and the DAC's segmented scan is a single ``np.maximum.accumulate``
  over keys offset by their set, with no per-set code.
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


def _set_order(trace: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable order of a trace by cache set, and the set of each access in it.

    Time order is kept within a set.  Set ids of a capacity up to 2^16 are
    sorted as ``uint16``, which numpy's stable sort radix-sorts.
    """
    sets = trace & np.int64(capacity - 1)
    if capacity <= 1 << 16:
        sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    return order, sets[order]


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
    Each vertex gets a key: the dense rank of ``(degree, -first access)``
    over the trace's distinct vertices, so "the currently cached vertex" is
    the one with the largest key accessed so far in the set, and keys are
    unique per vertex.  Sorted by set (time order kept within a set), the
    key plus ``set * distinct`` makes every set's keys exceed every earlier
    set's, so one ``np.maximum.accumulate`` over the whole sorted trace is
    the running maximum within each set.  An access hits iff its key
    equals the running maximum before it; a set's first access sees an
    earlier set's maximum, which is always smaller: a miss.
    """
    _check_capacity(capacity)
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    if n >= (1 << 26):
        raise ConfigError("trace too long for the vectorized DAC encoding (2^26)")
    degrees = np.asarray(degrees, dtype=np.int64)

    # First access of each vertex, read back per access.
    position = np.arange(n)
    first = np.full(degrees.size, n, dtype=np.int64)
    np.minimum.at(first, trace, position)
    first_of = first[trace]
    # Distinct vertices by first access, latest first, then stably by
    # degree: the order of (degree, -first access).
    firsts = np.flatnonzero(first_of == position)[::-1]
    by_key = firsts[np.argsort(degrees[trace[firsts]], kind="stable")]
    rank = np.empty(n, dtype=np.int64)
    rank[by_key] = np.arange(by_key.size)

    order, sorted_sets = _set_order(trace, capacity)
    # A set id is below len(degrees) and there are at most 2^26 distinct
    # vertices, so the offset key fits int64 for any degree table in memory.
    keys = np.multiply(sorted_sets, by_key.size, dtype=np.int64)
    keys += rank[first_of[order]]
    running = np.maximum.accumulate(keys)
    hits_sorted = np.empty(n, dtype=bool)
    hits_sorted[0] = False
    np.equal(keys[1:], running[:-1], out=hits_sorted[1:])
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
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
    order, sorted_sets = _set_order(trace, capacity)
    sorted_trace = trace[order]
    hits_sorted = np.zeros(trace.size, dtype=bool)
    same_vertex = sorted_trace[1:] == sorted_trace[:-1]
    same_set = sorted_sets[1:] == sorted_sets[:-1]
    hits_sorted[1:] = same_vertex & same_set
    hits = np.zeros(trace.size, dtype=bool)
    hits[order] = hits_sorted
    return hits
