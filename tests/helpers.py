"""Deep equality of run results, and weight strategies, for the invariance tests."""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import strategies as st

#: Manifest fields that legitimately differ between two runs of one plan.
VOLATILE_MANIFEST_FIELDS = frozenset({"created_unix", "host"})

#: Metric families the cost stage records (the modeled hardware).
MODELED_FAMILIES = ("dac.", "dyb.", "dram.", "pipeline.", "cpu.", "time.", "query.")


#: The heaviest static edge weight the 24.8 fixed-point domain admits.
HEAVIEST_WEIGHT = 2.0**24 - 1


def domain_weights(heaviest: float = HEAVIEST_WEIGHT):
    """One weight from across the fixed-point domain: zero, the grid step
    ``2**-8``, ``heaviest``, or log-spread from ``2**-40`` (far below the
    grid step, which it quantizes to) up to ``heaviest``."""
    return st.one_of(
        st.sampled_from([0.0, 2.0**-8, heaviest]),
        st.floats(-40.0, float(np.log2(heaviest))).map(lambda e: 2.0**e),
    )


@st.composite
def domain_weighted(draw, graph, heaviest: float = HEAVIEST_WEIGHT):
    """``graph`` with its static weights drawn from a small palette of
    :func:`domain_weights`, so heavy and light edges share every block."""
    palette = draw(st.lists(domain_weights(heaviest), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return dataclasses.replace(graph, edge_weights=rng.choice(palette, graph.num_edges))


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
