"""Crash-safe artifact I/O: atomic writes, content checksums, quarantine.

Every artifact the library persists — NPZ bundles (graphs, walk paths),
JSONL telemetry records, bench result JSON, run checkpoints — goes
through this module so the same two guarantees hold everywhere:

* **Atomicity** — files are written to a temporary name in the target
  directory, flushed and fsynced, then renamed over the destination.
  A reader (or a process resuming after a crash) only ever sees the old
  complete file or the new complete file, never a torn write.
* **Integrity** — payloads embed a SHA-256 content checksum that loaders
  verify.  A file that fails verification is *quarantined* (renamed to
  ``<name>.corrupt``) and reported as a structured
  :class:`~repro.errors.ArtifactCorruptionError` — corrupted data is
  never silently loaded, and never silently re-read on the next attempt.

Three container formats cover the repo's artifacts:

* :func:`write_json_artifact` / :func:`read_json_artifact` — a JSON
  object with ``format_version``, ``kind`` and ``checksum`` keys wrapped
  around the payload (bench results, sweep checkpoints, run metadata);
* :func:`write_binary_artifact` / :func:`read_binary_artifact` — a small
  self-describing binary envelope (magic, JSON header, payload) for
  opaque bytes such as pickled shard checkpoints;
* :func:`save_npz_checked` / :func:`load_npz_checked` — NumPy ``.npz``
  bundles with the digest of every member array stored as a ``checksum``
  entry (CSR graph bundles, walk-path outputs).

JSONL logs are append-only and therefore cannot be replaced atomically;
instead each *record* carries its own checksum (:func:`checked_record` /
:func:`record_checksum_ok`) and appends are fsynced, so a crash can only
ever tear the final line — which readers detect and skip.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Mapping, NoReturn

import numpy as np

from repro.errors import ArtifactCorruptionError, ConfigError

logger = logging.getLogger(__name__)

__all__ = [
    "ARTIFACT_VERSION",
    "atomic_write_bytes",
    "atomic_write_text",
    "checked_record",
    "checksum_hex",
    "corrupt",
    "load_npz_checked",
    "npz_checksum",
    "quarantine",
    "read_binary_artifact",
    "read_json_artifact",
    "record_checksum_ok",
    "save_npz_checked",
    "write_binary_artifact",
    "write_json_artifact",
]

#: Version of the artifact *envelope* (not of any payload schema).
ARTIFACT_VERSION = 1

_BINARY_MAGIC = b"REPROART\n"
_RESERVED_KEYS = ("format_version", "kind", "checksum")


def checksum_hex(data: bytes) -> str:
    """SHA-256 hex digest — the checksum used by every artifact format."""
    return hashlib.sha256(data).hexdigest()


def _canonical_json(payload: object) -> bytes:
    """Stable byte serialization used for checksumming JSON payloads.

    ``default=str`` must match the serialization the writers use, so a
    payload checksums identically before writing and after a round trip.
    """
    return json.dumps(payload, sort_keys=True, default=str).encode()


# -- atomic writes ------------------------------------------------------------


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (tmp file + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    return atomic_write_bytes(path, text.encode("utf-8"))


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by fsyncing its directory (best-effort)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. network filesystems
        pass
    finally:
        os.close(fd)


def quarantine(path: str | Path) -> Path | None:
    """Move a corrupt file aside; returns the new path (None on failure).

    The quarantined name is ``<name>.corrupt`` (numbered when taken), in
    the same directory, so the evidence survives for inspection while the
    original name is free for a clean rewrite — and a retry loop can
    never re-read the same garbage.
    """
    path = Path(path)
    if not path.exists():
        return None
    target = path.with_name(path.name + ".corrupt")
    serial = 0
    while target.exists():
        serial += 1
        target = path.with_name(f"{path.name}.corrupt.{serial}")
    try:
        os.replace(path, target)
    except OSError:  # pragma: no cover - permission/filesystem races
        return None
    logger.warning("quarantined corrupt artifact %s -> %s", path, target.name)
    return target


def corrupt(path: Path, reason: str) -> NoReturn:
    """Quarantine ``path`` and raise the structured corruption error."""
    moved = quarantine(path)
    where = f" (quarantined to {moved})" if moved else ""
    raise ArtifactCorruptionError(
        f"{path}: {reason}{where}", path=path, quarantine_path=moved
    )


# -- JSON artifacts -----------------------------------------------------------


def write_json_artifact(path: str | Path, payload: dict, kind: str) -> Path:
    """Atomically write ``payload`` wrapped in a checksummed envelope."""
    for key in _RESERVED_KEYS:
        if key in payload:
            raise ConfigError(
                f"artifact payload may not use the reserved key {key!r}"
            )
    envelope = {
        "format_version": ARTIFACT_VERSION,
        "kind": kind,
        "checksum": checksum_hex(_canonical_json(payload)),
        **payload,
    }
    return atomic_write_text(
        path, json.dumps(envelope, indent=2, default=str)
    )


def read_json_artifact(path: str | Path, kind: str | None = None) -> dict:
    """Read and verify a JSON artifact; returns the payload (envelope keys
    stripped).

    Raises :class:`~repro.errors.ArtifactCorruptionError` — after
    quarantining the file — for empty/truncated/unparseable content, a
    wrong ``kind`` or a checksum mismatch, and
    :class:`~repro.errors.ConfigError` for an envelope written by a newer
    library version (the file is intact; quarantining would destroy it).
    """
    path = Path(path)
    text = path.read_text()  # missing file stays a FileNotFoundError
    if not text.strip():
        corrupt(path, "empty artifact file")
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError:
        corrupt(path, "unparseable JSON (truncated or torn write)")
    if not isinstance(envelope, dict):
        corrupt(path, "artifact is not a JSON object")
    version = envelope.get("format_version")
    if not isinstance(version, int):
        corrupt(path, "missing format_version")
    if version > ARTIFACT_VERSION:
        raise ConfigError(
            f"{path}: artifact format_version {version} is newer than this "
            f"library supports ({ARTIFACT_VERSION}); upgrade the library"
        )
    if kind is not None and envelope.get("kind") != kind:
        corrupt(
            path,
            f"artifact kind {envelope.get('kind')!r} where {kind!r} expected",
        )
    stored = envelope.get("checksum")
    payload = {k: v for k, v in envelope.items() if k not in _RESERVED_KEYS}
    if stored != checksum_hex(_canonical_json(payload)):
        corrupt(path, "content checksum mismatch")
    return payload


# -- binary artifacts ---------------------------------------------------------


def write_binary_artifact(path: str | Path, payload: bytes, kind: str) -> Path:
    """Atomically write opaque bytes inside a checksummed envelope."""
    header = json.dumps(
        {
            "format_version": ARTIFACT_VERSION,
            "kind": kind,
            "size": len(payload),
            "checksum": checksum_hex(payload),
        },
        sort_keys=True,
    ).encode()
    blob = _BINARY_MAGIC + len(header).to_bytes(4, "big") + header + payload
    return atomic_write_bytes(path, blob)


def read_binary_artifact(path: str | Path, kind: str | None = None) -> bytes:
    """Read and verify a binary artifact; returns the payload bytes."""
    path = Path(path)
    blob = path.read_bytes()  # missing file stays a FileNotFoundError
    prefix = len(_BINARY_MAGIC)
    if len(blob) < prefix + 4:
        corrupt(path, "truncated artifact (no header)")
    if blob[:prefix] != _BINARY_MAGIC:
        corrupt(path, "bad magic (not a repro binary artifact)")
    header_len = int.from_bytes(blob[prefix : prefix + 4], "big")
    header_end = prefix + 4 + header_len
    if header_len <= 0 or len(blob) < header_end:
        corrupt(path, "truncated artifact header")
    try:
        header = json.loads(blob[prefix + 4 : header_end])
    except json.JSONDecodeError:
        corrupt(path, "unparseable artifact header")
    version = header.get("format_version")
    if not isinstance(version, int):
        corrupt(path, "missing format_version")
    if version > ARTIFACT_VERSION:
        raise ConfigError(
            f"{path}: artifact format_version {version} is newer than this "
            f"library supports ({ARTIFACT_VERSION}); upgrade the library"
        )
    if kind is not None and header.get("kind") != kind:
        corrupt(
            path,
            f"artifact kind {header.get('kind')!r} where {kind!r} expected",
        )
    payload = blob[header_end:]
    if len(payload) != header.get("size"):
        corrupt(
            path,
            f"payload truncated ({len(payload)} of {header.get('size')} bytes)",
        )
    if checksum_hex(payload) != header.get("checksum"):
        corrupt(path, "content checksum mismatch")
    return payload


# -- NPZ bundles --------------------------------------------------------------


def npz_checksum(arrays: Mapping[str, object]) -> str:
    """Digest over every member array (key, dtype, shape and raw bytes)."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        if key == "checksum":
            continue
        arr = np.ascontiguousarray(np.asarray(arrays[key]))
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def save_npz_checked(path: str | Path, arrays: Mapping[str, object]) -> Path:
    """Atomically write a compressed NPZ with an embedded ``checksum`` entry.

    Matches ``np.savez_compressed``'s convention of appending ``.npz``
    when the extension is missing (so existing call sites keep their
    file-naming behaviour).
    """
    if "checksum" in arrays:
        raise ConfigError("'checksum' is reserved for the embedded digest")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(arrays)
    payload["checksum"] = np.str_(npz_checksum(payload))
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    return path


def load_npz_checked(
    path: str | Path, require_checksum: bool = False
) -> dict[str, np.ndarray]:
    """Load an NPZ bundle, verifying the embedded checksum when present.

    Zero-byte, truncated or otherwise unreadable files — and any file
    whose content digest disagrees with its ``checksum`` entry — are
    quarantined and raised as
    :class:`~repro.errors.ArtifactCorruptionError`.  Bundles written
    before checksums existed load unverified unless ``require_checksum``.
    """
    path = Path(path)
    if path.stat().st_size == 0:  # missing file stays a FileNotFoundError
        corrupt(path, "zero-byte file")
    try:
        with np.load(str(path), allow_pickle=False) as bundle:
            arrays = {key: bundle[key] for key in bundle.files}
    except (
        zipfile.BadZipFile, zlib.error, ValueError, EOFError, KeyError, OSError,
    ) as exc:
        corrupt(path, f"unreadable NPZ ({type(exc).__name__}: {exc})")
    if "checksum" in arrays:
        stored = str(arrays.pop("checksum"))
        if stored != npz_checksum(arrays):
            corrupt(path, "content checksum mismatch")
    elif require_checksum:
        corrupt(path, "missing checksum entry")
    return arrays


# -- JSONL records ------------------------------------------------------------


def checked_record(record: dict) -> dict:
    """Return ``record`` with its content checksum embedded.

    JSONL files cannot be rewritten atomically on append, so integrity is
    per record: each line carries the digest of its own body.
    """
    if "checksum" in record:
        raise ConfigError("'checksum' is reserved for the embedded digest")
    return {**record, "checksum": checksum_hex(_canonical_json(record))}


def record_checksum_ok(record: dict) -> bool | None:
    """Verify one JSONL record: True/False, or None for legacy records
    written before checksums existed (nothing to verify)."""
    stored = record.get("checksum")
    if stored is None:
        return None
    body = {k: v for k, v in record.items() if k != "checksum"}
    return stored == checksum_hex(_canonical_json(body))
