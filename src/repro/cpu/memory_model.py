"""CPU cache behaviour: an analytic last-level-cache hit model.

:func:`llc_hit_ratio` estimates how often the CPU baseline's random
accesses hit the last-level cache, for the cost model in
:mod:`repro.cpu.costmodel`: random accesses into a graph's arrays hit
either because the *whole* working set fits, or because the access
distribution is degree-skewed and the hot head fits.

It honors the **scaled-platform rule** (DESIGN.md): when experiments run on
a graph scaled down by ``s``, the 35.75 MB LLC is scaled by ``s`` too so the
capacity-to-footprint ratio — the quantity that drives every result — is
preserved.
"""

from __future__ import annotations

import numpy as np

#: Intel Xeon Gold 6246R total cache capacity reported by the paper (bytes).
XEON_6246R_LLC_BYTES = int(35.75 * (1 << 20))

#: Cache line size (bytes) of the modeled CPU.
CPU_LINE_BYTES = 64


def llc_hit_ratio(
    degrees: np.ndarray,
    bytes_per_vertex: float,
    capacity_bytes: float,
) -> float:
    """Analytic LLC hit ratio for degree-proportional random vertex accesses.

    Random walks touch vertex ``v``'s data with probability proportional to
    ``deg(v)`` (the stationary-distribution argument of Section 5.1).  Under
    LRU, the cache effectively retains the hottest vertices; the hit ratio
    is then the visit-probability mass of the largest-degree prefix whose
    footprint fits in the cache.

    Parameters
    ----------
    degrees:
        Out-degree of every vertex.
    bytes_per_vertex:
        Footprint charged per vertex (its neighbor-info entry plus the
        average adjacency bytes, depending on which array is modeled).
    capacity_bytes:
        Effective (scaled) cache capacity.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    if degrees.size == 0 or degrees.sum() <= 0:
        return 1.0
    if bytes_per_vertex <= 0 or capacity_bytes <= 0:
        raise ValueError("bytes_per_vertex and capacity_bytes must be positive")
    n_cacheable = int(capacity_bytes // bytes_per_vertex)
    if n_cacheable >= degrees.size:
        return 1.0
    if n_cacheable == 0:
        return 0.0
    hottest = np.partition(degrees, -n_cacheable)[-n_cacheable:]
    return float(hottest.sum() / degrees.sum())
