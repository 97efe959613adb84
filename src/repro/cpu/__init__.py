"""CPU baseline substrate — a modeled ThunderRW (Sun et al., VLDB'21).

ThunderRW is the state-of-the-art CPU random-walk engine the paper compares
against.  This package re-implements its execution *semantics* (the staged
Algorithm 2.1 flow with inverse-transform sampling, multi-query
interleaving) and attaches an analytic cycle/cache cost model calibrated to
the paper's own profiling of ThunderRW (Table 1).  We do not have the
authors' Xeon Gold 6246R; absolute seconds come from the model, but both
sides of every speedup in this repository are computed in the same modeling
framework, so the comparisons carry (see DESIGN.md).
"""

from repro.cpu.costmodel import (
    CPU_PWRS_LANES,
    CPUSpec,
    CPUTimeBreakdown,
    cpu_time_for_session,
)
from repro.cpu.memory_model import llc_hit_ratio
from repro.cpu.profiling import TopDownProfile, profile_session

__all__ = [
    "CPU_PWRS_LANES",
    "CPUSpec",
    "CPUTimeBreakdown",
    "TopDownProfile",
    "cpu_time_for_session",
    "llc_hit_ratio",
    "profile_session",
]
