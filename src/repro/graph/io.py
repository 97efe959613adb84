"""Graph persistence: text edge lists and binary CSR bundles.

Two formats:

* **Text edge lists** — one ``src dst [weight [label]]`` line per edge; the
  interchange format of SNAP and most graph tools.  Comment lines starting
  with ``#`` are skipped.
* **NPZ CSR bundles** — the library's native format: the validated CSR
  arrays written atomically with an embedded content checksum
  (:mod:`repro.artifacts`), round-tripping every attribute bit-exactly.
  Zero-byte, truncated or checksum-failing bundles are quarantined and
  raised as :class:`~repro.errors.ArtifactCorruptionError`; bundles from
  a newer format version are rejected with a clear
  :class:`~repro.errors.GraphFormatError`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.artifacts import load_npz_checked, save_npz_checked
from repro.errors import GraphFormatError
from repro.graph.builders import from_edge_list
from repro.graph.csr import CSRGraph

#: Version 1 wrote plain ``np.savez_compressed`` bundles; version 2 adds
#: the embedded content checksum and atomic writes.  Both load; anything
#: newer is rejected (forward compatibility is explicit, never silent).
_FORMAT_VERSION = 2
_OLDEST_READABLE_VERSION = 1


def save_csr_npz(graph: CSRGraph, path: str | Path) -> None:
    """Write a CSR bundle; extension ``.npz`` is appended if missing.

    The write is atomic (tmp file + fsync + rename) and the bundle embeds
    a content checksum that :func:`load_csr_npz` verifies.
    """
    payload: dict[str, np.ndarray] = {
        "format_version": np.int64(_FORMAT_VERSION),
        "row_index": graph.row_index,
        "col_index": graph.col_index,
        "directed": np.bool_(graph.directed),
        "name": np.str_(graph.name),
    }
    for attr in ("edge_weights", "vertex_labels", "edge_labels"):
        value = getattr(graph, attr)
        if value is not None:
            payload[attr] = value
    save_npz_checked(path, payload)


def load_csr_npz(path: str | Path) -> CSRGraph:
    """Read a CSR bundle written by :func:`save_csr_npz` (validates on load).

    Raises :class:`~repro.errors.ArtifactCorruptionError` (after
    quarantining the file) for zero-byte, truncated or checksum-failing
    bundles, and :class:`~repro.errors.GraphFormatError` for bundles that
    are readable but not a supported CSR format version.
    """
    bundle = load_npz_checked(path)
    if "format_version" not in bundle:
        raise GraphFormatError(
            f"{path}: not a CSR bundle (no format_version entry)"
        )
    version = int(bundle["format_version"])
    if version > _FORMAT_VERSION:
        raise GraphFormatError(
            f"{path}: CSR bundle version {version} is newer than this "
            f"library supports (up to {_FORMAT_VERSION}); upgrade the library"
        )
    if version < _OLDEST_READABLE_VERSION:
        raise GraphFormatError(
            f"{path}: unsupported CSR bundle version {version} "
            f"(supported: {_OLDEST_READABLE_VERSION}..{_FORMAT_VERSION})"
        )
    return CSRGraph(
        row_index=bundle["row_index"],
        col_index=bundle["col_index"],
        edge_weights=bundle.get("edge_weights"),
        vertex_labels=bundle.get("vertex_labels"),
        edge_labels=bundle.get("edge_labels"),
        directed=bool(bundle["directed"]),
        name=str(bundle["name"]),
    )


def load_edge_list_text(
    path: str | Path,
    directed: bool = True,
    num_vertices: int | None = None,
    name: str | None = None,
) -> CSRGraph:
    """Parse a ``src dst [weight]`` text file into a CSR graph.

    Raises :class:`GraphFormatError` on malformed lines, with the offending
    line number in the message.
    """
    sources: list[int] = []
    targets: list[int] = []
    weights: list[float] = []
    saw_weights = False
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = stripped.split()
            if len(fields) < 2:
                raise GraphFormatError(
                    f"{path}:{line_number}: expected 'src dst [weight]', got {stripped!r}"
                )
            try:
                sources.append(int(fields[0]))
                targets.append(int(fields[1]))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{line_number}: non-integer vertex id in {stripped!r}"
                ) from exc
            if len(fields) >= 3:
                saw_weights = True
                try:
                    weights.append(float(fields[2]))
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{line_number}: non-numeric weight in {stripped!r}"
                    ) from exc
            elif saw_weights:
                raise GraphFormatError(
                    f"{path}:{line_number}: missing weight column (earlier lines had one)"
                )
    edges = np.stack(
        [np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)], axis=1
    ) if sources else np.zeros((0, 2), dtype=np.int64)
    weight_array = np.asarray(weights, dtype=np.float32) if saw_weights else None
    inferred_name = name or Path(path).stem
    return from_edge_list(
        edges,
        num_vertices=num_vertices,
        weights=weight_array,
        directed=directed,
        name=inferred_name,
    )
