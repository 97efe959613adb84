"""Utility helpers and the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors
from repro.units import format_rate


class TestUnits:
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
