"""MetaPath random walk — Equation (1) of the paper.

A MetaPath ``M = L1 -R1-> L2 -R2-> ... `` constrains each step of the walk
to follow edges satisfying the next element of a schema.  The weight update
function keeps the static weight when the constraint is met and zeroes it
otherwise:

    w^t(a, b) = w*(a, b)   if the edge matches schema[t]
              = 0          otherwise.

Two schema conventions are supported, both used in the heterogeneous-graph
literature:

* ``match="vertex"`` (default, metapath2vec-style): ``schema`` is a sequence
  of vertex labels; step ``t`` may only move to a neighbor whose label
  equals ``schema[(t + 1) % len(schema)]``.  The schema is applied
  cyclically so any query length is supported.
* ``match="edge"``: ``schema`` is a sequence of edge relation labels; step
  ``t`` requires the traversed edge's label to equal
  ``schema[t % len(schema)]``.

A step where no neighbor matches is a *dead end*: the total weight is zero
and the query terminates early (the same behaviour ThunderRW exhibits).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.walks.base import StepContext, WalkAlgorithm


class MetaPathWalk(WalkAlgorithm):
    """GDRW constrained by a (cyclic) label schema.

    Parameters
    ----------
    schema:
        Non-empty sequence of integer labels.
    match:
        ``"vertex"`` to match destination vertex labels, ``"edge"`` to match
        edge relation labels.
    weighted:
        When ``True`` matching edges keep their static weight ``w*``; when
        ``False`` all matching edges weigh one (unweighted MetaPath).
    """

    name = "metapath"

    def __init__(
        self,
        schema: Sequence[int],
        match: str = "vertex",
        weighted: bool = True,
    ) -> None:
        if len(schema) == 0:
            raise QueryError("MetaPath schema must be non-empty")
        if match not in ("vertex", "edge"):
            raise QueryError(f"match must be 'vertex' or 'edge', got {match!r}")
        self.schema = np.asarray(list(schema), dtype=np.int64)
        if self.schema.min() < 0:
            raise QueryError("schema labels must be non-negative")
        self.match = match
        self.weighted = weighted

    def validate_graph(self, graph) -> None:
        super().validate_graph(graph)
        if self.match == "vertex" and graph.vertex_labels is None:
            raise QueryError(
                "vertex-matched MetaPath requires vertex labels; call "
                "repro.graph.assign_vertex_labels first"
            )
        if self.match == "edge" and graph.edge_labels is None:
            raise QueryError(
                "edge-matched MetaPath requires edge labels; call "
                "repro.graph.assign_edge_labels first"
            )

    def _required_label(self, step: int) -> int:
        if self.match == "vertex":
            return int(self.schema[(step + 1) % self.schema.size])
        return int(self.schema[step % self.schema.size])

    def dynamic_weights(self, ctx: StepContext) -> np.ndarray:
        required = self._required_label(ctx.step)
        if self.match == "vertex":
            labels = ctx.graph.vertex_labels[ctx.dst]
        else:
            labels = ctx.graph.edge_labels[ctx.edge_positions]
        matches = labels == required
        if self.weighted:
            return np.where(matches, ctx.static_weights, 0.0)
        return matches.astype(np.float64)

    def __repr__(self) -> str:
        return (
            f"MetaPathWalk(schema={self.schema.tolist()}, match={self.match!r}, "
            f"weighted={self.weighted})"
        )
