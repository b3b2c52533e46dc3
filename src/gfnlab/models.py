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

from .features import FeatureSpec
from .nn import (
    Affine,
    BatchNorm,
    Parameter,
    ParameterSet,
    ReLU,
    SegmentIndex,
    segment_sum,
    segment_sum_backward,
)
from .sparse import CSRMatrix, spmm

MODEL_KINDS = ("gcn", "gfn", "gfn-light", "gln")


def default_feature_spec(kind: str) -> FeatureSpec:
    """GCN consumes raw features plus one-hot degrees; the set-function models
    get the full multi-scale stack up to K=3."""
    if kind == "gcn":
        return FeatureSpec(use_degree=True, include_raw=True, K=0)
    return FeatureSpec(use_degree=True, include_raw=True, K=3)


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
        if self.feature_spec is None:
            self.feature_spec = default_feature_spec(self.kind)


@dataclass
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
        if self.features.shape[0] != self.seg.graph_ids.size:
            raise ValueError("feature rows must match the segment index")
        if self.adjacency is not None and self.adjacency.shape != (
            self.features.shape[0],
            self.features.shape[0],
        ):
            raise ValueError("adjacency must be square over the stacked nodes")

    @property
    def num_graphs(self) -> int:
        return self.seg.num_segments


class GraphConv:
    """One aggregation layer: spmm(adjacency, H) @ W + b.

    Backward uses the symmetry of the normalized adjacency to push gradients
    back through the sparse product.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 dtype=np.float32, name: str = "conv"):
        self._affine = Affine(in_dim, out_dim, rng, dtype=dtype, name=name)
        self._adj = None

    @property
    def weight(self) -> Parameter:
        return self._affine.weight

    @property
    def bias(self) -> Parameter:
        return self._affine.bias

    def parameters(self) -> list[Parameter]:
        return self._affine.parameters()

    def forward(self, x: np.ndarray, adj: CSRMatrix, train: bool = True) -> np.ndarray:
        self._adj = adj
        return self._affine.forward(spmm(adj, x), train)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return spmm(self._adj, self._affine.backward(grad_out))


class ModelInstance:
    """A built model: node blocks, sum pooling, and the classifier head."""

    def __init__(self, config: ModelConfig, input_dim: int, seed: int = 0):
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        self.config = config
        self.input_dim = input_dim
        rng = np.random.default_rng(seed)
        h = config.hidden_dim
        c = config.num_classes
        self.node_blocks: list[tuple] = []
        kind = config.kind

        def node_block(transform, index):
            bn = BatchNorm(h, name=f"node{index}.bn")
            self.node_blocks.append((transform, bn, ReLU()))

        if kind == "gcn":
            node_block(Affine(input_dim, h, rng, name="node0"), 0)
            for i in range(config.num_conv_layers):
                node_block(GraphConv(h, h, rng, name=f"node{i + 1}"), i + 1)
        elif kind == "gfn":
            node_block(Affine(input_dim, h, rng, name="node0"), 0)
            for i in range(config.num_conv_layers):
                node_block(Affine(h, h, rng, name=f"node{i + 1}"), i + 1)
        elif kind == "gfn-light":
            node_block(Affine(input_dim, h, rng, name="node0"), 0)
        elif kind == "gln":
            pass  # pooling straight over the input features

        if kind == "gln":
            self.head = [Affine(input_dim, c, rng, name="head0")]
        else:
            self.head = [Affine(h, h, rng, name="head0"), ReLU(), Affine(h, c, rng, name="head1")]

        params = []
        for transform, bn, _ in self.node_blocks:
            params.extend(transform.parameters())
            params.extend(bn.parameters())
        for layer in self.head:
            params.extend(layer.parameters())
        self.params = ParameterSet(params)
        self._seg = None

    @property
    def needs_adjacency(self) -> bool:
        return self.config.kind == "gcn"

    def forward(self, batch: BatchedGraphs, train: bool = True) -> np.ndarray:
        if batch.features.shape[1] != self.input_dim:
            raise ValueError(
                f"batch has {batch.features.shape[1]} feature columns, "
                f"model expects {self.input_dim}"
            )
        if self.needs_adjacency and batch.adjacency is None:
            raise ValueError("this model requires the batched adjacency")
        x = batch.features
        for transform, bn, act in self.node_blocks:
            if isinstance(transform, GraphConv):
                x = transform.forward(x, batch.adjacency, train)
            else:
                x = transform.forward(x, train)
            x = bn.forward(x, train)
            x = act.forward(x, train)
        self._seg = batch.seg
        x = segment_sum(x, batch.seg)
        for layer in self.head:
            x = layer.forward(x, train)
        return x

    def backward(self, grad_logits: np.ndarray) -> None:
        g = grad_logits
        for layer in reversed(self.head):
            g = layer.backward(g)
        g = segment_sum_backward(g, self._seg)
        for transform, bn, act in reversed(self.node_blocks):
            g = act.backward(g)
            g = bn.backward(g)
            g = transform.backward(g)


def collapse_linear_gcn(conv_weights: list[np.ndarray], adj: CSRMatrix, X: np.ndarray) -> np.ndarray:
    """Single-linear-map form of a K-layer aggregation stack with identity
    activations: propagate X through the adjacency K times, then apply the
    product of the K weight matrices once."""
    prop = np.asarray(X)
    theta = None
    for W in conv_weights:
        W = np.asarray(W)
        if theta is None:
            theta = W
        else:
            if theta.shape[1] != W.shape[0]:
                raise ValueError("weight matrices are not chainable")
            theta = theta @ W
        prop = spmm(adj, prop)
    if theta is None:
        return prop
    if prop.shape[1] != theta.shape[0]:
        raise ValueError("X width does not match the first weight matrix")
    return prop @ theta


def make_batch(
    features: list[np.ndarray],
    labels: np.ndarray,
    adjacencies: list[CSRMatrix] | None = None,
) -> BatchedGraphs:
    """Stack per-graph feature matrices (and optionally adjacencies) into a batch."""
    # imported at call time: perfbench/layers.py patches only gfnlab.sparse.block_diag
    from .sparse import block_diag

    seg = SegmentIndex.from_sizes([f.shape[0] for f in features])
    stacked = np.concatenate(features, axis=0)
    adj = block_diag(adjacencies) if adjacencies is not None else None
    return BatchedGraphs(stacked, seg, np.asarray(labels, dtype=np.int64), adj)

