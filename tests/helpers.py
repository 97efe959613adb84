"""Deep equality of run results, for the invariance tests."""

from __future__ import annotations

import dataclasses

import numpy as np

#: Manifest fields that legitimately differ between two runs of one plan.
VOLATILE_MANIFEST_FIELDS = frozenset({"created_unix", "host"})

#: Metric families the cost stage records (the modeled hardware).
MODELED_FAMILIES = ("dac.", "dyb.", "dram.", "pipeline.", "cpu.", "time.", "query.")


def assert_same(got, want, where: str = "value") -> None:
    """Exact equality through dataclasses, containers and numpy arrays."""
    if got is want:
        return
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, where
        np.testing.assert_array_equal(got, want, err_msg=where)
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for index, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{index}]")
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_same(got[key], want[key], f"{where}[{key!r}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_same_result(got, want, *, ignore: tuple[str, ...] = ()) -> None:
    """Two ``RunResult``\\ s are equal field by field, session included.

    The manifest is compared without its host and timestamp; ``ignore``
    names further fields to skip.
    """
    for f in dataclasses.fields(want):
        if f.name in ignore:
            continue
        if f.name == "manifest":
            assert _stable(got.manifest) == _stable(want.manifest)
        else:
            assert_same(getattr(got, f.name), getattr(want, f.name), f.name)


def _stable(manifest) -> dict:
    return {
        k: v
        for k, v in manifest.as_dict().items()
        if k not in VOLATILE_MANIFEST_FIELDS
    }


def modeled_metrics(observer) -> dict:
    """The observer's snapshot restricted to the modeled-hardware series."""
    return {
        key: value
        for key, value in observer.metrics.snapshot().items()
        if key.startswith(MODELED_FAMILIES)
    }
