"""Graph substrate: CSR storage, builders, generators and named datasets.

LightRW stores graphs in compressed sparse row (CSR) form — a ``row_index``
array of per-vertex offsets and a ``col_index`` array of adjacent edges —
because that is the layout the accelerator's memory engines stream
(Section 3.3 of the paper).  Everything in this package exists to produce,
validate, transform and persist that layout.
"""

from repro.graph.builders import from_edge_list, symmetrize_edges
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASET_ORDER, DATASETS, DatasetSpec, dataset_table, load_dataset
from repro.graph.generators import (
    chung_lu_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    rmat_graph,
    star_graph,
)
from repro.graph.io import load_csr_npz, load_edge_list_text, save_csr_npz
from repro.graph.labels import (
    assign_edge_labels,
    assign_random_weights,
    assign_vertex_labels,
)
from repro.graph.heterogeneous import (
    HeterogeneousSchema,
    bibliographic_schema,
    heterogeneous_graph,
)
from repro.graph.partition import (
    greedy_grow_partition,
    hash_partition,
    partition_quality,
    range_partition,
)
from repro.graph.reorder import ReorderedGraph, degree_sort_reorder
from repro.graph.stats import DegreeStats, degree_histogram, degree_stats

__all__ = [
    "CSRGraph",
    "DATASETS",
    "DATASET_ORDER",
    "dataset_table",
    "DatasetSpec",
    "assign_edge_labels",
    "bibliographic_schema",
    "heterogeneous_graph",
    "assign_random_weights",
    "assign_vertex_labels",
    "DegreeStats",
    "HeterogeneousSchema",
    "ReorderedGraph",
    "chung_lu_graph",
    "degree_histogram",
    "degree_sort_reorder",
    "degree_stats",
    "complete_graph",
    "cycle_graph",
    "erdos_renyi_graph",
    "from_edge_list",
    "greedy_grow_partition",
    "hash_partition",
    "partition_quality",
    "range_partition",
    "load_csr_npz",
    "load_dataset",
    "load_edge_list_text",
    "path_graph",
    "rmat_graph",
    "save_csr_npz",
    "star_graph",
    "symmetrize_edges",
]
