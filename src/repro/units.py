"""Physical-unit helpers shared by the hardware models.

The FPGA and CPU performance models mix quantities in cycles, seconds, bytes
and bytes/second.  Keeping the conversions in one module avoids the classic
"GB vs GiB" calibration bugs; throughout this library **GB means 1e9 bytes**,
matching the convention of the paper (17.57 GB/s memory bandwidth).
"""

from __future__ import annotations

GIGA = 1_000_000_000


def format_rate(per_second: float, unit: str = "steps") -> str:
    """Human-readable rate, e.g. ``'4.8e+07 steps/s'``."""
    return f"{per_second:.3g} {unit}/s"
