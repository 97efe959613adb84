"""Physical-unit helpers shared by the hardware models.

The FPGA and CPU performance models mix quantities in cycles, seconds, bytes
and bytes/second.  Keeping the conversions in one module avoids the classic
"GB vs GiB" calibration bugs; throughout this library **GB means 1e9 bytes**,
matching the convention of the paper (17.57 GB/s memory bandwidth).
"""

from __future__ import annotations

GIGA = 1_000_000_000


def bandwidth_gbps(bytes_moved: float, seconds: float) -> float:
    """Achieved bandwidth in GB/s (1 GB = 1e9 bytes)."""
    if seconds <= 0:
        raise ValueError(f"duration must be positive, got {seconds}")
    return bytes_moved / seconds / GIGA


def format_rate(per_second: float, unit: str = "steps") -> str:
    """Human-readable rate, e.g. ``'4.8e+07 steps/s'``."""
    return f"{per_second:.3g} {unit}/s"
