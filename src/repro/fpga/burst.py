"""Dynamic burst engine planning (paper Section 5.2).

Neighbor lists have wildly varying lengths; a fixed long burst wastes
bandwidth on short lists (low valid-data ratio) while short bursts waste it
on request overhead.  LightRW's dynamic burst engine splits each
``c``-byte fetch into

    n_long  = floor(c / S1)           long bursts of S1 bytes,
    n_short = ceil((c - n_long*S1) / S2)   short bursts of S2 bytes,

bounding loaded-but-unused data by ``S2`` per request (the paper proves
total loaded bytes equal ``ceil(c / S2) * S2``).

:func:`plan_bursts` is the vectorized planner used by both the cycle
simulator's Burst cmd Generator and the analytic model; a
:class:`BurstStrategy` names the ``b{short}+b{long}`` configurations of
Figure 12, including the degenerate fixed-length strategies used as the
baseline and the DYB-off ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.fpga.dram import DRAMTimings


@dataclass(frozen=True)
class BurstStrategy:
    """A ``b{short}+b{long}`` burst configuration (lengths in bus beats).

    ``long_beats = 0`` means short-only (the paper's ``b1+b0`` baseline);
    ``short_beats = 0`` with a long length means fixed-long-only (the
    DYB-off ablation, which over-fetches list tails).
    """

    short_beats: int = 1
    long_beats: int = 32

    def __post_init__(self) -> None:
        if self.short_beats < 0 or self.long_beats < 0:
            raise ConfigError("burst lengths must be non-negative")
        if self.short_beats == 0 and self.long_beats == 0:
            raise ConfigError("at least one burst pipeline must be enabled")
        if self.short_beats and self.long_beats and self.short_beats > self.long_beats:
            raise ConfigError(
                f"short burst ({self.short_beats}) must not exceed "
                f"long burst ({self.long_beats})"
            )

    @property
    def label(self) -> str:
        return f"b{self.short_beats}+b{self.long_beats}"

    @property
    def is_dynamic(self) -> bool:
        return self.short_beats > 0 and self.long_beats > 0


#: The paper's baseline: burst length one only.
SHORT_ONLY = BurstStrategy(short_beats=1, long_beats=0)

#: DYB-off ablation: every fetch uses fixed 32-beat bursts.
FIXED_LONG = BurstStrategy(short_beats=0, long_beats=32)

#: The winning configuration of Figure 12, used by default.
DEFAULT_STRATEGY = BurstStrategy(short_beats=1, long_beats=32)


@dataclass
class BurstPlan:
    """Vectorized planning result for an array of fetch sizes."""

    n_long: np.ndarray
    n_short: np.ndarray
    loaded_bytes: np.ndarray
    valid_bytes: np.ndarray
    interface_cycles: np.ndarray

    @property
    def valid_ratio(self) -> float:
        loaded = float(self.loaded_bytes.sum())
        return float(self.valid_bytes.sum()) / loaded if loaded else 1.0


def plan_bursts(
    request_bytes: np.ndarray,
    strategy: BurstStrategy,
    timings: DRAMTimings | None = None,
) -> BurstPlan:
    """Plan burst accesses for an array of fetch sizes (bytes).

    Returns per-request burst counts, loaded/valid byte totals and the
    DRAM interface cycles each fetch occupies.  Zero-byte fetches cost
    nothing.
    """
    timings = timings or DRAMTimings()
    c = np.asarray(request_bytes, dtype=np.int64)
    if c.size and c.min() < 0:
        raise ConfigError("request sizes must be non-negative")
    s1 = strategy.long_beats * timings.bus_bytes
    s2 = strategy.short_beats * timings.bus_bytes

    if strategy.short_beats == 0:
        # Fixed-long only: every fetch rounds up to whole long bursts.
        n_long = np.where(c > 0, -(-c // max(s1, 1)), 0)
        n_short = np.zeros_like(c)
        loaded = n_long * s1
    elif strategy.long_beats == 0:
        n_long = np.zeros_like(c)
        n_short = np.where(c > 0, -(-c // s2), 0)
        loaded = n_short * s2
    else:
        n_long = c // s1
        remainder = c - n_long * s1
        n_short = -(-remainder // s2)
        loaded = n_long * s1 + n_short * s2

    overhead = timings.request_overhead_cycles
    long_overhead = overhead + timings.long_pipe_extra_cycles
    cycles = (
        n_long * (strategy.long_beats + long_overhead)
        + n_short * (strategy.short_beats + overhead)
    )
    # Device bandwidth cap: beats cannot stream faster than the DDR4 core.
    # ``min_cycles_per_beat`` is fractional, but interface occupancy is a
    # whole number of cycles — round the floor up so every ``BurstPlan``
    # field stays int64 instead of silently drifting to float64.
    min_beat_cycles = np.ceil(
        (loaded // timings.bus_bytes) * timings.min_cycles_per_beat
    ).astype(np.int64)
    cycles = np.maximum(cycles, min_beat_cycles)
    return BurstPlan(
        n_long=n_long,
        n_short=n_short,
        loaded_bytes=loaded,
        valid_bytes=c,
        interface_cycles=cycles,
    )
