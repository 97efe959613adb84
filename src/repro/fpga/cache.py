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
  hits iff the previous access to its set was the same vertex.
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
