"""Unified timing results for every execution backend.

The public API used to type ``RunResult.breakdown`` as the union
``FPGATimeBreakdown | CPUTimeBreakdown | CycleSimResult``, which forced
callers into ``isinstance`` ladders.  This module replaces the union with
a small dataclass hierarchy:

* :class:`TimingBreakdown` — the backend-independent surface every caller
  can rely on (``kernel_s``, ``total_steps``, ``num_queries``,
  ``steps_per_second``, ``components()``), plus the backend-native object
  on ``.detail``;
* one subclass per backend family, naming its time components.

A breakdown always describes one cost-model evaluation of a whole run:
backends cost the merged walk once, so nothing here adds shards up.

Backend-native figures (the analytic model's ``cache_accesses``, the
cycle simulator's ``instances``, ...) are read from ``.detail``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class TimingBreakdown:
    """Backend-independent view of one modeled execution.

    ``detail`` holds the backend-native breakdown (``FPGATimeBreakdown``,
    ``CycleSimResult`` or ``CPUTimeBreakdown``).
    """

    backend: str
    kernel_s: float
    total_steps: int
    num_queries: int
    setup_s: float = 0.0
    detail: Any = None

    @property
    def steps_per_second(self) -> float:
        """Kernel-time step throughput (the paper's figure-of-merit)."""
        return self.total_steps / self.kernel_s if self.kernel_s > 0 else 0.0

    def components(self) -> dict[str, float]:
        """Named time components (seconds); backend families refine this."""
        return {"kernel": self.kernel_s, "setup": self.setup_s}


@dataclass
class FPGAModelBreakdown(TimingBreakdown):
    """Timing from the analytic performance model (``fpga-model``)."""

    def components(self) -> dict[str, float]:
        native = self.detail
        out = {"kernel": self.kernel_s, "setup": self.setup_s}
        if native is not None:
            hz = native.config.frequency_hz
            out.update(
                memory=float(native.mem_cycles.sum()) / hz,
                sampler=float(native.sampler_cycles.sum()) / hz,
                controller=float(native.controller_cycles.sum()) / hz,
                fill=float(native.fill_cycles) / hz,
            )
        return out


@dataclass
class FPGACycleBreakdown(TimingBreakdown):
    """Timing from the cycle-accurate simulator (``fpga-cycle``)."""

    def components(self) -> dict[str, float]:
        out = {"kernel": self.kernel_s, "setup": self.setup_s}
        native = self.detail
        if native is not None:
            for module, busy in native.utilization_report().items():
                out[module] = busy * self.kernel_s
        return out


@dataclass
class CPUBaselineBreakdown(TimingBreakdown):
    """Timing from the modeled ThunderRW engine (``cpu-baseline``)."""

    def components(self) -> dict[str, float]:
        out = {"kernel": self.kernel_s, "setup": self.setup_s}
        native = self.detail
        if native is not None:
            out.update(
                sequential=native.seq_time_s,
                random=native.rand_time_s,
                instructions=native.instr_time_s,
                init=native.init_time_s,
            )
        return out
