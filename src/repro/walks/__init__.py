"""Graph dynamic random walk (GDRW) algorithms and the multi-query stepper.

A *walk algorithm* supplies the application-specific weight update function
``F`` of the paper (Section 2.1): given the walker's state it assigns a
sampling weight to every out-edge of the current vertex.  Four algorithms
are provided:

* :class:`~repro.walks.uniform.UniformWalk` — unbiased (DeepWalk-style),
* :class:`~repro.walks.static.StaticWalk` — biased by static edge weights,
* :class:`~repro.walks.metapath.MetaPathWalk` — Equation (1),
* :class:`~repro.walks.node2vec.Node2VecWalk` — Equation (2).

The *stepper* (:mod:`repro.walks.stepper`) advances a whole batch of queries
one step at a time, fully vectorized, parameterized by a sampler strategy
(parallel WRS for the LightRW backends, inverse-transform for the ThunderRW
baseline), and records the access trace the performance models replay.
"""

from repro.walks.base import (
    WEIGHT_SCALE,
    StepContext,
    WalkAlgorithm,
    quantize_weights,
)
from repro.walks.metapath import MetaPathWalk
from repro.walks.node2vec import Node2VecWalk
from repro.walks.ppr import RestartWalk, exact_ppr, visit_frequencies
from repro.walks.static import StaticWalk
from repro.walks.stepper import (
    InverseTransformSampler,
    PWRSSampler,
    StepRecord,
    WalkSession,
    run_walks,
    walk_single_query,
)
from repro.walks.uniform import UniformWalk
from repro.walks.validation import (
    chi_square_step_test,
    empirical_step_distribution,
    exact_step_distribution,
    total_variation_distance,
)

__all__ = [
    "InverseTransformSampler",
    "MetaPathWalk",
    "Node2VecWalk",
    "PWRSSampler",
    "RestartWalk",
    "StaticWalk",
    "StepContext",
    "StepRecord",
    "UniformWalk",
    "WEIGHT_SCALE",
    "WalkAlgorithm",
    "WalkSession",
    "chi_square_step_test",
    "empirical_step_distribution",
    "exact_ppr",
    "exact_step_distribution",
    "quantize_weights",
    "run_walks",
    "total_variation_distance",
    "visit_frequencies",
    "walk_single_query",
]
