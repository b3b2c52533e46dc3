"""Graph classification lab.

Compares a graph convolutional network against models that move all graph
structure into a feature precomputation step (GFN, GFN-light) or drop the
nonlinear set function entirely (GLN), on a from-scratch numpy training stack.
"""

from .features import AugmentedFeatures, FeatureSpec, augment, precompute_dataset
from .graphs import (
    AttributedGraph,
    DataError,
    Dataset,
    DatasetMeta,
    Graph,
    ParseError,
    StructureError,
    ValidationError,
    generate_dense_synthetic,
    generate_synthetic_dataset,
    node_degrees,
    normalized_adjacency,
    stratified_kfold,
)
from .harness import (
    CVReport,
    TimingReport,
    TrainConfig,
    benchmark_timing,
    run_cv,
)
from .models import (
    ModelConfig,
    ModelInstance,
    collapse_linear_gcn,
)
from .sparse import CSRMatrix, block_diag, from_coo, spmm
from .tu import parse_tu_dataset

__version__ = "0.1.0"

__all__ = [
    "AttributedGraph",
    "AugmentedFeatures",
    "CSRMatrix",
    "CVReport",
    "DataError",
    "Dataset",
    "DatasetMeta",
    "FeatureSpec",
    "Graph",
    "ModelConfig",
    "ModelInstance",
    "ParseError",
    "StructureError",
    "TimingReport",
    "TrainConfig",
    "ValidationError",
    "augment",
    "benchmark_timing",
    "block_diag",
    "collapse_linear_gcn",
    "from_coo",
    "generate_dense_synthetic",
    "generate_synthetic_dataset",
    "node_degrees",
    "normalized_adjacency",
    "parse_tu_dataset",
    "precompute_dataset",
    "run_cv",
    "spmm",
    "stratified_kfold",
]
