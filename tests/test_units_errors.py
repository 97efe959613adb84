"""Utility helpers and the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors
from repro.units import GIGA, bandwidth_gbps, format_rate


class TestUnits:
    def test_bandwidth(self):
        assert bandwidth_gbps(17.57 * GIGA, 1.0) == pytest.approx(17.57)
        with pytest.raises(ValueError):
            bandwidth_gbps(1, 0)

    def test_format_rate(self):
        assert "steps/s" in format_rate(4.8e7)


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            errors.GraphFormatError,
            errors.QueryError,
            errors.ConfigError,
            errors.SimulationError,
        ):
            assert issubclass(exc, errors.ReproError)
            assert issubclass(exc, Exception)

    def test_catchable_as_family(self):
        with pytest.raises(errors.ReproError):
            raise errors.ConfigError("bad k")
