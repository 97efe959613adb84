"""Shared infrastructure of the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.artifacts import read_json_artifact, write_json_artifact
from repro.runtime import backend_names, comparison_backends, describe_backends

__all__ = [
    "DEFAULT_SAMPLED_QUERIES",
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "ExperimentResult",
    "METAPATH_LENGTH",
    "METAPATH_SCHEMA",
    "NODE2VEC_LENGTH",
    "NODE2VEC_P",
    "NODE2VEC_Q",
    "REGISTRY",
    "backend_names",
    "comparison_backends",
    "describe_backends",
    "load_result_json",
    "register",
]

#: Default dataset scale divisor used by the experiments (see DESIGN.md's
#: substitution table; the scaled-platform rule keeps ratios meaningful).
DEFAULT_SCALE = 512
#: Default seed for every experiment.
DEFAULT_SEED = 7
#: Query-sampling budget for functional walks.
DEFAULT_SAMPLED_QUERIES = 1024

#: The paper's workload parameters (Section 6.1.4).
METAPATH_SCHEMA = [0, 1, 2, 3]
METAPATH_LENGTH = 5
NODE2VEC_LENGTH = 80
NODE2VEC_P = 2.0
NODE2VEC_Q = 0.5


@dataclass
class ExperimentResult:
    """Output of one experiment: rows plus reproduction context."""

    name: str
    title: str
    rows: list[dict]
    paper_expectation: str
    params: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Telemetry snapshot of the runs behind this experiment (populated by
    #: the runner when it executes under an observer; see repro.obs).
    metrics: dict = field(default_factory=dict)

    def column_names(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def format_table(self) -> str:
        """Render the rows as an aligned text table."""
        columns = self.column_names()
        if not columns:
            return "(no rows)"
        formatted = [
            {c: _format_cell(row.get(c, "")) for c in columns} for row in self.rows
        ]
        widths = {
            c: max(len(c), *(len(row[c]) for row in formatted)) for c in columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        separator = "  ".join("-" * widths[c] for c in columns)
        body = "\n".join(
            "  ".join(row[c].ljust(widths[c]) for c in columns) for row in formatted
        )
        return "\n".join([header, separator, body])

    def report(self) -> str:
        lines = [f"== {self.name}: {self.title} ==", ""]
        if self.params:
            lines.append(f"params: {self.params}")
        lines.append(f"paper expects: {self.paper_expectation}")
        lines.append("")
        lines.append(self.format_table())
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save_json(self, directory: str | Path) -> Path:
        """Write the result as a checksummed JSON artifact (atomic)."""
        directory = Path(directory)
        path = directory / f"{self.name}.json"
        payload = {
            "name": self.name,
            "title": self.title,
            "paper_expectation": self.paper_expectation,
            "params": self.params,
            "rows": self.rows,
            "notes": self.notes,
        }
        if self.metrics:
            payload["metrics"] = self.metrics
        return write_json_artifact(path, payload, kind="bench-result")


def load_result_json(path: str | Path) -> dict:
    """Load one saved experiment result, verifying its integrity.

    Results are written by :meth:`ExperimentResult.save_json` in a
    checksummed envelope.  A file that fails verification (truncated,
    hand-edited, or without the envelope) is quarantined and raised as
    :class:`~repro.errors.ArtifactCorruptionError`.
    """
    return read_json_artifact(path, kind="bench-result")


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e5):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


#: name -> run callable returning an ExperimentResult.
REGISTRY: dict[str, Callable[..., ExperimentResult]] = {}


def register(name: str) -> Callable:
    """Decorator registering an experiment's ``run`` function."""

    def wrap(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        REGISTRY[name] = fn
        return fn

    return wrap
