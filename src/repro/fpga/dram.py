"""DRAM channel timing model of the Alveo U250 board.

The accelerator sees one DDR4 channel per LightRW instance through a
512-bit (64-byte) AXI interface at the 300 MHz kernel clock.  Two
parameters govern everything the paper measures about it:

* ``request_overhead_cycles`` — fixed interface cycles a read request
  occupies besides its data beats (command, row activation, turnaround);
* ``latency_cycles`` — cycles from issuing a request until its first data
  beat arrives (what a *dependent* random access pays).

With ``overhead = 5`` the achievable bandwidth

    BW(S) = 64 B x S / (S + overhead) x 300 MHz

reproduces the paper's Figure 6 curve: ~3.2 GB/s at burst length 1 rising
to the measured 17.57 GB/s peak at burst length 64.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.graph.csr import EDGE_RECORD_BYTES
from repro.units import GIGA

#: AXI data width of one channel (bytes per beat).
BUS_BYTES = 64

#: Measured peak sequential bandwidth of one channel (paper Figure 6).
PEAK_BANDWIDTH_GBPS = 17.57

#: Integer fields of DRAMTimings and the least value each may take.
_INT_FIELDS = (
    ("bus_bytes", 1),
    ("request_overhead_cycles", 0),
    ("long_pipe_extra_cycles", 0),
    ("latency_cycles", 0),
)


@dataclass(frozen=True)
class DRAMTimings:
    """Timing constants of one DRAM channel at the kernel clock."""

    bus_bytes: int = BUS_BYTES
    #: Interface cycles per request beyond the data beats.
    request_overhead_cycles: int = 5
    #: Extra per-request cycles paid by the dynamic burst engine's *long*
    #: pipeline: reorder-buffer fill and crossbar arbitration.  This is the
    #: cost that makes tiny long bursts (b1+b2) lose to the short-only
    #: baseline in the paper's Figure 12 while b1+b32 amortizes it away.
    long_pipe_extra_cycles: int = 8
    #: Cycles from request issue to first data beat (random-access latency,
    #: ~200 ns at 300 MHz).
    latency_cycles: int = 60
    #: Kernel clock the interface runs at (Hz).
    frequency_hz: float = 300e6
    #: Hard ceiling on sustainable bandwidth (GB/s) — the DDR4 device
    #: limit, below the raw interface rate.
    peak_bandwidth_gbps: float = PEAK_BANDWIDTH_GBPS

    def __post_init__(self) -> None:
        for name, least in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ConfigError(f"DRAM {name} must be an integer >= {least}, got {value!r}")
        if self.bus_bytes % EDGE_RECORD_BYTES:
            # A beat must hold whole edge records, or a burst chunk splits
            # one and the burst schedule stops covering the fetch exactly.
            raise ConfigError(
                f"DRAM bus_bytes must be a multiple of the {EDGE_RECORD_BYTES}-byte "
                f"edge record, got {self.bus_bytes}"
            )
        for name in ("frequency_hz", "peak_bandwidth_gbps"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ConfigError(f"DRAM {name} must be finite and > 0, got {value!r}")

    def request_cycles(self, beats) -> "int | object":
        """Interface cycles one request of ``beats`` data beats occupies.

        Accepts scalars or numpy arrays (vectorized use by the fast model).
        """
        return beats + self.request_overhead_cycles

    @property
    def min_cycles_per_beat(self) -> float:
        """Interface cycles per beat imposed by the device bandwidth cap."""
        raw = self.bus_bytes * self.frequency_hz / GIGA  # GB/s at 1 beat/cycle
        return max(raw / self.peak_bandwidth_gbps, 1.0)


def burst_bandwidth_gbps(timings: DRAMTimings, burst_beats: int) -> float:
    """Sustained bandwidth of back-to-back bursts of ``burst_beats`` beats.

    This is the blue curve of the paper's Figure 6.
    """
    if burst_beats <= 0:
        raise ConfigError(f"burst length must be positive, got {burst_beats}")
    cycles = timings.request_cycles(burst_beats)
    # The device cap also binds: each beat cannot stream faster than the
    # DDR4 core sustains.
    cycles = max(cycles, burst_beats * timings.min_cycles_per_beat)
    bytes_per_request = burst_beats * timings.bus_bytes
    return bytes_per_request * timings.frequency_hz / cycles / GIGA
