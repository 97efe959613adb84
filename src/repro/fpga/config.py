"""Accelerator configuration (one LightRW deployment).

Collects every architectural knob of the paper in one validated dataclass:
sampler parallelism ``k``, burst strategy, degree-aware cache capacity,
clock frequency, and the number of per-DRAM-channel instances (Figure 9
deploys one independent LightRW instance per channel with queries spread
evenly).

The three ablation switches of Figure 13 live here too:

* ``use_wrs = False`` — fall back to a table-based sampler on the FPGA:
  the updated weights must round-trip through DRAM and the
  initialization/generation phases serialize.
* ``strategy = FIXED_LONG`` (or any fixed strategy) — disable the dynamic
  burst engine.
* ``cache_policy = "none"`` — disable the degree-aware cache.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.fpga.burst import DEFAULT_STRATEGY, BurstStrategy
from repro.fpga.dram import DRAMTimings

#: Cache capacity used throughout the paper's evaluation (2^12 vertices).
PAPER_CACHE_ENTRIES = 1 << 12

_CACHE_POLICIES = ("degree", "none")

#: Integer fields and the least value each may take.
_INT_FIELDS = (
    ("k", 1),
    ("n_instances", 1),
    ("cache_entries", 1),
    ("max_inflight", 1),
    ("fifo_depth", 1),
    ("hardware_scale", 1),
    ("prev_buffer_edges", 0),
)


@dataclass(frozen=True)
class LightRWConfig:
    """Configuration of a LightRW deployment."""

    #: WRS sampler parallelism — neighbors consumed per cycle.
    k: int = 16
    #: Kernel clock (the paper closes timing at 300 MHz).
    frequency_hz: float = 300e6
    #: Independent instances, one per DRAM channel (U250 has four).
    n_instances: int = 4
    #: Burst strategy of the dynamic burst engine.
    strategy: BurstStrategy = field(default_factory=lambda: DEFAULT_STRATEGY)
    #: Degree-aware cache capacity in vertices (power of two).
    cache_entries: int = PAPER_CACHE_ENTRIES
    #: Neighbor-info cache: "degree" (LightRW's DAC) or "none" (Figure 13's
    #: ablation).  Other policies are compared offline on a replayed trace
    #: (the ``fig11`` and ``ablation-cache`` experiments), not modeled here.
    cache_policy: str = "degree"
    #: Enable the streaming WRS sampler (False = table-based ablation).
    use_wrs: bool = True
    #: On-chip buffer (edges) holding the *previous* step's candidate
    #: stream for second-order walks.  When the previous vertex's adjacency
    #: fits, Node2Vec's membership test reads it from BRAM instead of
    #: re-fetching from DRAM — this buffer is why the Node2Vec build is
    #: BRAM-heavy in the paper's Table 5.
    prev_buffer_edges: int = 4096
    #: Queries kept in flight per instance to hide step turnaround.
    max_inflight: int = 64
    #: FIFO depth between pipeline stages (cycle simulator).
    fifo_depth: int = 64
    #: DRAM channel timings.
    dram: DRAMTimings = field(default_factory=DRAMTimings)
    #: Dataset scale divisor; the cache shrinks with the graph so the
    #: coverage ratio matches the paper's platform (see DESIGN.md).
    hardware_scale: int = 1

    def __post_init__(self) -> None:
        for name, least in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.k & (self.k - 1):
            raise ConfigError(f"k must be a positive power of two, got {self.k}")
        if not (
            isinstance(self.frequency_hz, numbers.Real)
            and math.isfinite(self.frequency_hz)
            and self.frequency_hz > 0
        ):
            raise ConfigError(
                f"frequency must be finite and positive, got {self.frequency_hz!r}"
            )
        if self.cache_entries & (self.cache_entries - 1):
            raise ConfigError(
                f"cache_entries must be a power of two, got {self.cache_entries}"
            )
        if self.cache_policy not in _CACHE_POLICIES:
            raise ConfigError(
                f"cache_policy must be one of {_CACHE_POLICIES}, got {self.cache_policy!r}"
            )

    @property
    def scaled_prev_buffer_edges(self) -> int:
        """Previous-stream buffer threshold under the scaled-platform rule.

        Unlike byte-capacity caches, this threshold is a *degree* cut-off;
        to preserve the share of walk steps it covers, it scales with the
        maximum degree of the graph, which for a power-law graph with
        exponent alpha ~ 2.4 shrinks as ``V^(1/(alpha-1)) ~ V^0.71``.
        """
        if self.hardware_scale == 1:
            return self.prev_buffer_edges
        return max(int(self.prev_buffer_edges / self.hardware_scale ** 0.714), 8)

    @property
    def scaled_cache_entries(self) -> int:
        """Cache capacity after the scaled-platform rule (power of two, >= 1)."""
        entries = max(self.cache_entries // self.hardware_scale, 1)
        # Round down to a power of two to keep direct-mapped indexing valid.
        return 1 << (entries.bit_length() - 1)

    def scaled(self, hardware_scale: int) -> "LightRWConfig":
        """Copy of this config bound to a dataset scale divisor."""
        return replace(self, hardware_scale=hardware_scale)

    def with_ablation(
        self,
        wrs: bool = True,
        dynamic_burst: bool = True,
        cache: bool = True,
    ) -> "LightRWConfig":
        """Derive the Figure 13 ablation variants from this config."""
        from repro.fpga.burst import FIXED_LONG

        changes: dict[str, object] = {}
        if not wrs:
            changes["use_wrs"] = False
        if not dynamic_burst:
            changes["strategy"] = FIXED_LONG
        if not cache:
            changes["cache_policy"] = "none"
        return replace(self, **changes) if changes else self
