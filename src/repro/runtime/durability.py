"""Durable runs: checkpoint/resume across process boundaries.

PR 3 made a single process survive shard failures; this module makes the
*run* survive the process.  :class:`RunCheckpoint` covers one scheduler
batch.  Every completed shard's walk-stage
:class:`~repro.runtime.backends.BackendReport` (paths and the step records
the cost stage replays, minus the graph) is persisted (atomic write,
content checksum) the moment it finishes, keyed by shard index, together
with a ``run.json`` carrying a fingerprint of the planned run (backend,
algorithm, steps, the exact sampled starts, shard layout, seed, config
hash).  A resumed run loads the completed shards, executes only the
missing ones, and — because per-query RNG lanes are keyed by *global*
query id — merges to a result byte-identical to an uninterrupted run's,
modeled numbers and session included.

Corruption is handled, not trusted: every checkpoint file is verified on
load, and a file that fails verification is quarantined and its shard
simply re-executed — a damaged checkpoint costs time, never correctness.

Fingerprints make resumption safe: resuming with a different seed, batch,
shard layout or accelerator config is a
:class:`~repro.errors.ConfigError` at plan time, before any walk starts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro.artifacts import (
    read_binary_artifact,
    read_json_artifact,
    write_binary_artifact,
    write_json_artifact,
)
from repro.errors import ArtifactCorruptionError, ConfigError
from repro.runtime.backends import strip_report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.backends import BackendReport
    from repro.runtime.plan import ExecutionPlan

logger = logging.getLogger(__name__)

__all__ = [
    "RunCheckpoint",
    "plan_fingerprint",
]

#: Metadata file identifying a run-checkpoint directory.
RUN_FILE = "run.json"

_SHARD_PATTERN = re.compile(r"^shard-(\d{4,})\.ckpt$")


def plan_fingerprint(plan: "ExecutionPlan", seed: int, config_hash: str = "") -> str:
    """Stable identity of one planned run, for checkpoint compatibility.

    Two runs share a fingerprint iff they would execute the same walks:
    same backend, algorithm (name and parameters), step count, sampled
    starts (byte-exact), extrapolation target, shard layout, seed and
    accelerator config.  Timing-only knobs (latency recording, PCIe
    accounting, tracing) are deliberately excluded.
    """
    algorithm_params = {
        k: v
        for k, v in sorted(vars(plan.algorithm).items())
        if not k.startswith("_")
    }
    identity = {
        "backend": plan.backend,
        "algorithm": plan.algorithm.name,
        "algorithm_params": algorithm_params,
        "n_steps": plan.n_steps,
        "total_queries": plan.total_queries,
        "shards": [(s.index, s.offset, s.num_queries) for s in plan.shards],
        "seed": int(seed),
        "config_hash": config_hash,
    }
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True, default=str).encode()
    )
    digest.update(plan.starts.tobytes())
    return digest.hexdigest()[:16]


class RunCheckpoint:
    """Shard-granular persistence of one scheduler batch.

    Use :meth:`open` (validates or creates the directory), then hand the
    instance to :meth:`BatchScheduler.execute
    <repro.runtime.scheduler.BatchScheduler.execute>`; the scheduler
    records each shard as it completes and skips the shards
    :meth:`load_completed` returns.
    """

    def __init__(self, directory: Path, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | Path,
        plan: "ExecutionPlan",
        *,
        seed: int,
        config_hash: str = "",
        resume: bool = False,
    ) -> "RunCheckpoint":
        """Create or attach to a checkpoint directory for ``plan``.

        ``resume=True`` requires an existing, fingerprint-compatible
        checkpoint (anything else is a :class:`ConfigError` before any
        shard executes); ``resume=False`` starts clean, discarding every
        shard file left in the directory, whichever run wrote it.
        """
        directory = Path(directory)
        fingerprint = plan_fingerprint(plan, seed, config_hash)
        checkpoint = cls(directory, fingerprint)
        run_file = directory / RUN_FILE
        if resume:
            existing = None
            if run_file.exists():
                try:
                    existing = read_json_artifact(run_file, kind="run-checkpoint")
                except ArtifactCorruptionError as exc:
                    # The metadata is quarantined; the shard files cannot
                    # be trusted to belong to this plan.
                    logger.warning("checkpoint metadata unusable: %s", exc)
            if existing is None:
                raise ConfigError(
                    f"cannot resume: {run_file} does not exist or is not a "
                    f"readable run checkpoint (start a run with this "
                    f"checkpoint directory first)"
                )
            if existing.get("fingerprint") != fingerprint:
                raise ConfigError(
                    f"cannot resume from {directory}: the checkpoint was "
                    f"created by a different run configuration (fingerprint "
                    f"{existing.get('fingerprint')}, this run {fingerprint}); "
                    f"re-issue the original backend/algorithm/seed/shard "
                    f"arguments or start a fresh checkpoint directory"
                )
            return checkpoint
        checkpoint._discard_shards()
        from repro import __version__

        write_json_artifact(
            run_file,
            {
                "fingerprint": fingerprint,
                "backend": plan.backend,
                "algorithm": plan.algorithm.name,
                "n_steps": plan.n_steps,
                "total_queries": plan.total_queries,
                "sampled_queries": plan.num_sampled,
                "shards": plan.shard_count,
                "seed": int(seed),
                "config_hash": config_hash,
                "package_version": __version__,
            },
            kind="run-checkpoint",
        )
        return checkpoint

    def _discard_shards(self) -> None:
        if not self.directory.exists():
            return
        for path in self.directory.iterdir():
            if _SHARD_PATTERN.match(path.name):
                path.unlink(missing_ok=True)

    # -- shard records -------------------------------------------------------

    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard-{index:04d}.ckpt"

    def _shard_kind(self) -> str:
        # Binding the plan fingerprint into the artifact kind means a
        # shard file from a different run fails verification instead of
        # being merged into the wrong batch.
        return f"shard-walk:{self.fingerprint}"

    def record_shard(self, index: int, report: "BackendReport") -> Path:
        """Persist one completed shard's report (atomic, checksummed)."""
        payload = pickle.dumps(strip_report(report), protocol=pickle.HIGHEST_PROTOCOL)
        return write_binary_artifact(
            self.shard_path(index), payload, kind=self._shard_kind()
        )

    def load_completed(self) -> dict[int, "BackendReport"]:
        """Verified shard reports on disk, keyed by shard index.

        A shard file that fails verification (truncated write, checksum
        mismatch, different run) is quarantined and simply omitted — the
        scheduler re-executes that shard, reproducing identical walks.
        """
        restored: dict[int, "BackendReport"] = {}
        if not self.directory.exists():
            return restored
        for path in sorted(self.directory.iterdir()):
            match = _SHARD_PATTERN.match(path.name)
            if not match:
                continue
            index = int(match.group(1))
            try:
                payload = read_binary_artifact(path, kind=self._shard_kind())
                restored[index] = pickle.loads(payload)
            except ArtifactCorruptionError as exc:
                logger.warning(
                    "shard %d checkpoint unusable, will re-execute: %s",
                    index, exc,
                )
            except Exception as exc:  # noqa: BLE001 - unpickle garbage
                logger.warning(
                    "shard %d checkpoint failed to deserialize (%s: %s), "
                    "will re-execute", index, type(exc).__name__, exc,
                )
        return restored

