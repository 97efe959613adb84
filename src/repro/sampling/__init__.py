"""Sampling substrate: RNG streams and weighted sampling methods.

This package collects every sampling primitive the paper touches:

* :mod:`repro.sampling.rng` — the ThundeRiNG substitute: many independent,
  deterministic 32-bit uniform lanes, one value per lane per cycle.
* :mod:`repro.sampling.parallel_wrs` — the paper's Algorithm 4.1: the
  parallelized weighted reservoir sampling (WRS) that consumes ``k`` items
  per cycle, including the integer-only comparison of Equation (8).
* :mod:`repro.sampling.inverse_transform` — the two-phase
  initialization/generation sampler ThunderRW is configured with, on the
  same fixed-point weights and 32-bit draws as the parallel WRS.
"""

from repro.sampling.inverse_transform import InverseTransformTable
from repro.sampling.parallel_wrs import ParallelWRS, integer_accept
from repro.sampling.rng import ThundeRingRNG, derive_seed, splitmix64
from repro.sampling.stattests import BatteryResult, run_battery

__all__ = [
    "BatteryResult",
    "InverseTransformTable",
    "ParallelWRS",
    "ThundeRingRNG",
    "derive_seed",
    "integer_accept",
    "run_battery",
    "splitmix64",
]
