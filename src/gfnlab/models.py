"""Model assembly: GCN and its linearized counterparts GFN, GFN-light, GLN.

All four share one skeleton: per-node transforms, global sum pooling, then a
small fully connected head. GCN's per-node transforms aggregate over the
normalized adjacency; GFN replaces every aggregation with a plain dense
transform of precomputed propagated features; GFN-light keeps a single
transform; GLN pools the input features directly into one linear classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sparse
from .features import FeatureSpec
from .nn import (
    Affine,
    BatchNorm,
    ParameterSet,
    ReLU,
    SegmentIndex,
    segment_sum,
    segment_sum_backward,
)
from .sparse import CSRMatrix, spmm

MODEL_KINDS = ("gcn", "gfn", "gfn-light", "gln")
# the kinds that stack ``num_conv_layers`` hidden transforms after the first
CONV_STACK_KINDS = ("gcn", "gfn")
# the kinds with node blocks, whose batch norm needs two node rows per train batch
BATCH_NORM_KINDS = ("gcn", "gfn", "gfn-light")


def default_feature_spec(kind: str) -> FeatureSpec:
    """GCN consumes raw features plus one-hot degrees; the set-function models
    get the full multi-scale stack up to K=3."""
    return FeatureSpec(use_degree=True, K=0 if kind == "gcn" else 3)


@dataclass
class ModelConfig:
    kind: str
    num_classes: int
    hidden_dim: int = 128
    num_conv_layers: int = 3
    feature_spec: FeatureSpec = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if self.num_conv_layers < 0:
            raise ValueError(f"num_conv_layers must be nonnegative, got {self.num_conv_layers}")
        if self.feature_spec is None:
            self.feature_spec = default_feature_spec(self.kind)

    @property
    def needs_adjacency(self) -> bool:
        """Whether the model aggregates over the normalized adjacency."""
        return self.kind == "gcn"


@dataclass(eq=False)  # array fields: == compares identity
class BatchedGraphs:
    """A mini-batch of graphs stacked into one block-diagonal problem.

    ``adjacency`` is the block-diagonal normalized adjacency and is only
    populated for models that aggregate over it.
    """

    features: np.ndarray
    seg: SegmentIndex
    labels: np.ndarray
    adjacency: CSRMatrix | None = None

    def __post_init__(self):
        if self.features.shape[0] != self.seg.num_rows:
            raise ValueError("feature rows must match the segment index")
        if self.adjacency is not None and self.adjacency.shape != (
            self.features.shape[0],
            self.features.shape[0],
        ):
            raise ValueError("adjacency must be square over the stacked nodes")


class GraphConv(Affine):
    """An Affine that aggregates first: spmm(adjacency, H) @ W + b.

    Backward uses the symmetry of the normalized adjacency to push gradients
    back through the sparse product.
    """

    def forward(self, x: np.ndarray, adj: CSRMatrix, train: bool = True) -> np.ndarray:
        self._adj = adj
        return super().forward(spmm(adj, x), train)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return spmm(self._adj, super().backward(grad_out))


class ModelInstance:
    """A built model: node blocks, sum pooling, and the classifier head."""

    def __init__(self, config: ModelConfig, input_dim: int, seed: int = 0):
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        self.config = config
        rng = np.random.default_rng(seed)
        h = config.hidden_dim
        c = config.num_classes
        # node0 lifts the input to the hidden width; gcn and gfn stack more
        # hidden transforms on it, which differ only in whether they aggregate
        hidden = GraphConv if config.needs_adjacency else Affine
        depth = config.num_conv_layers if config.kind in CONV_STACK_KINDS else 0
        widths = [input_dim] + [h] * depth if config.kind in BATCH_NORM_KINDS else []
        self.node_blocks = [
            ((hidden if i else Affine)(width, h, rng, name=f"node{i}"),
             BatchNorm(h, name=f"node{i}.bn"), ReLU())
            for i, width in enumerate(widths)
        ]
        if not self.node_blocks:  # gln pools straight over the input features
            self.head = [Affine(input_dim, c, rng, name="head0")]
        else:
            self.head = [Affine(h, h, rng, name="head0"), ReLU(), Affine(h, c, rng, name="head1")]
        layers = [layer for block in self.node_blocks for layer in block] + self.head
        self.params = ParameterSet([p for layer in layers for p in layer.parameters()])
        self._seg = None

    def forward(self, batch: BatchedGraphs, train: bool = True) -> np.ndarray:
        # node0 (head0 for gln) is an Affine, whose width check fires before any state changes
        if self.config.needs_adjacency and batch.adjacency is None:
            raise ValueError("this model requires the batched adjacency")
        x = batch.features
        for transform, bn, act in self.node_blocks:
            if isinstance(transform, GraphConv):
                x = transform.forward(x, batch.adjacency, train)
            else:
                x = transform.forward(x, train)
            x = bn.forward(x, train)
            x = act.forward(x, train)
        x = segment_sum(x, batch.seg)
        for layer in self.head:
            x = layer.forward(x, train)
        self._seg = batch.seg
        return x

    def backward(self, grad_logits: np.ndarray) -> None:
        """Accumulate every parameter's gradient. The bottom trainable layer
        (node0, or head0 for gln) computes no input gradient: nothing reads it."""
        g = grad_logits
        for layer in reversed(self.head[1:]):
            g = layer.backward(g)
        if not self.node_blocks:
            self.head[0].backward(g, input_grad=False)
            return
        g = segment_sum_backward(self.head[0].backward(g), self._seg)
        node0, *above = [layer for block in self.node_blocks for layer in block]
        for layer in reversed(above):
            g = layer.backward(g)
        node0.backward(g, input_grad=False)


def make_batch(
    features: list[np.ndarray],
    labels: np.ndarray,
    adjacencies: list[CSRMatrix] | None = None,
) -> BatchedGraphs:
    """Stack per-graph feature matrices (and optionally adjacencies) into a batch."""
    seg = SegmentIndex.from_sizes([f.shape[0] for f in features])
    stacked = np.concatenate(features, axis=0)
    stacked.setflags(write=False)  # an eval batch is scored again every epoch
    adj = sparse.block_diag(adjacencies) if adjacencies is not None else None
    return BatchedGraphs(stacked, seg, np.asarray(labels, dtype=np.int64), adj)

