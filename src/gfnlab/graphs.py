"""Graph data model, degree features, normalized adjacency, fold planning, synthetic corpora."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .sparse import CSRMatrix, check_pattern, from_coo, stack_diagonal


class DataError(Exception):
    """Input data that cannot be read, or that does not form a valid dataset."""


@dataclass
class Graph:
    """Undirected graph in compressed-row adjacency form.

    Each undirected edge is stored in both directions; self-loops are never
    stored (they enter normalization only through the epsilon term). Node
    indices are dense in ``[0, num_nodes)``. Instances are immutable.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        n = self.num_nodes
        self.indptr, self.indices = check_pattern((n, n), self.indptr, self.indices)
        if self.indices.size % 2 != 0:
            raise ValueError("undirected adjacency must store both edge directions")

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size) // 2

    @classmethod
    def from_edges(cls, num_nodes: int, edges) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Edges may appear in one or both directions and may repeat; the result
        is symmetrized and deduplicated. Self-loops are dropped with a warning.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DataError("edges must be pairs of node indices")
        if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
            raise DataError(
                f"edge endpoint out of range for graph with {num_nodes} nodes"
            )
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            warnings.warn(f"dropping {int(loops.sum())} self-loop(s)", stacklevel=2)
            arr = arr[~loops]
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        # Deduplicate on one integer key per undirected edge. A sort and a
        # neighbour comparison, because np.unique may hash instead (numpy 2.3+),
        # which is many times slower on these keys.
        keys = np.sort(lo * num_nodes + hi)
        keep = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        lo, hi = np.divmod(keys[keep], num_nodes)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        adj = from_coo((num_nodes, num_nodes), src, dst, np.ones(src.size, dtype=np.int8))
        return cls(num_nodes, adj.indptr, adj.indices)


@dataclass
class AttributedGraph:
    """A graph together with its node feature matrix and class label."""

    graph: Graph
    node_features: np.ndarray
    label: int

    def __post_init__(self):
        self.node_features = np.ascontiguousarray(self.node_features, dtype=np.float64)
        if self.node_features.ndim != 2:
            raise DataError("node_features must be 2-D")
        if self.node_features.shape[0] != self.graph.num_nodes:
            raise DataError(
                f"feature rows ({self.node_features.shape[0]}) != num_nodes "
                f"({self.graph.num_nodes})"
            )
        self.node_features.setflags(write=False)
        self.label = int(self.label)


@dataclass
class DatasetMeta:
    """Optional reference counts that a parsed dataset must match."""

    expected_graph_count: int | None = None
    expected_class_count: int | None = None
    expected_feature_dim: int | None = None


@dataclass
class Dataset:
    """Labeled collection of attributed graphs sharing one feature schema."""

    name: str
    graphs: list[AttributedGraph]
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        if not self.graphs:
            raise DataError(f"dataset {self.name} holds no graphs")
        for g in self.graphs:
            if g.node_features.shape[1] != self.feature_dim:
                raise DataError("all graphs must share feature_dim")
            if not 0 <= g.label < self.num_classes:
                raise DataError(f"label {g.label} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)


@dataclass
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with epsilon-weighted self-loops."""

    matrix: CSRMatrix


def node_degrees(graph: Graph) -> np.ndarray:
    """Per-node neighbor counts (self-loops excluded by construction)."""
    return np.diff(graph.indptr)


def normalized_adjacency(graph: Graph, epsilon: float = 1.0) -> NormalizedAdjacency:
    """Degree-normalized adjacency: entry (u, v) is (A + eps*I)_uv / sqrt(dt_u * dt_v)
    where dt_i = degree(i) + eps.

    The nonzero pattern is the adjacency pattern plus the full diagonal, and
    the matrix is exactly symmetric. The diagonal goes straight into the
    graph's rows, with no sort, so they must be column-sorted.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = graph.num_nodes
    inv_sqrt = 1.0 / np.sqrt(node_degrees(graph) + epsilon)
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    dst = graph.indices
    if ((dst[1:] < dst[:-1]) & (src[1:] == src[:-1])).any():
        raise ValueError("normalized_adjacency needs column-sorted rows")
    # entries move right by their row index, one more past the diagonal; free slots take the diagonal
    pos = src + (dst > src)
    pos += np.arange(dst.size)  # in place, like vals: fewer transient arrays, a lower peak RSS
    diagonal = np.ones(dst.size + n, dtype=bool)
    diagonal[pos] = False
    indices, data = np.empty(dst.size + n, dtype=np.int64), np.empty(dst.size + n)
    indices[pos], indices[diagonal] = dst, np.arange(n)
    vals = inv_sqrt[src]
    vals *= inv_sqrt[dst]
    data[pos], data[diagonal] = vals, epsilon * inv_sqrt**2
    return NormalizedAdjacency(CSRMatrix((n, n), graph.indptr + np.arange(n + 1), indices, data))


def disjoint_union(graphs: list[Graph]) -> Graph:
    """One graph with each input graph as a component, nodes numbered in input order."""
    return Graph(*stack_diagonal([(g.num_nodes, g.indptr, g.indices) for g in graphs]))


@dataclass
class FoldPlan:
    """Deterministic stratified fold assignment for cross-validation."""

    assignments: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def stratified_kfold(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Assign graphs to ``k`` folds, keeping per-fold class counts within one of
    each other and overall fold sizes balanced.

    Classes with fewer than ``k`` members trigger a warning and a best-effort
    assignment (some folds simply receive none of that class).
    """
    if not 2 <= k <= len(dataset):
        raise ValueError(f"the fold count must be at least 2 and at most the {len(dataset)} graphs "
                         f"of {dataset.name}, got {k}: more would leave some fold no test graph")
    labels = dataset.labels
    rng = np.random.default_rng(seed)
    assignments = np.full(len(dataset), -1, dtype=np.int64)
    fold_loads = np.zeros(k, dtype=np.int64)
    for cls in range(dataset.num_classes):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            warnings.warn(
                f"class {cls} has {members.size} graphs, fewer than k={k}; "
                "stratification is best-effort",
                stacklevel=2,
            )
        rng.shuffle(members)
        quota, extra = divmod(members.size, k)
        # The `extra` leftover graphs go to the currently lightest folds.
        fold_order = np.lexsort((np.arange(k), fold_loads))
        counts = np.full(k, quota, dtype=np.int64)
        counts[fold_order[:extra]] += 1
        pos = 0
        for f in fold_order:
            assignments[members[pos : pos + counts[f]]] = f
            pos += counts[f]
        fold_loads += counts
    return FoldPlan(assignments)


def _cycle_edges(size: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % size) for i in range(size)]


def _star_edges(size: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, size)]


def generate_synthetic_dataset(num_graphs: int, seed: int) -> Dataset:
    """Offline two-class corpus: cycles (class 0) vs stars (class 1).

    Sizes are drawn uniformly from 4..12 regardless of class, so graph size
    carries no label signal; the degree distribution does (stars have a hub).
    Node features are a single all-ones column.
    """
    if num_graphs < 2:
        raise ValueError("num_graphs must be at least 2")
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(num_graphs):
        size = int(rng.integers(4, 13))
        label = i % 2
        edges = _cycle_edges(size) if label == 0 else _star_edges(size)
        g = Graph.from_edges(size, edges)
        graphs.append(AttributedGraph(g, np.ones((size, 1)), label))
    return Dataset(name="synthetic", graphs=graphs, num_classes=2, feature_dim=1)


def generate_dense_synthetic(num_graphs: int, seed: int) -> Dataset:
    """Edge-dense random corpus for timing runs: every graph has at least
    five times more edges than nodes.

    Class 1 graphs are drawn slightly denser than class 0 so the labels are
    weakly learnable, but the corpus exists for benchmarking, not accuracy.
    """
    if num_graphs < 2:
        raise ValueError("num_graphs must be at least 2")
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(num_graphs):
        n = int(rng.integers(24, 41))
        label = i % 2
        target = (5 + label) * n
        iu, ju = np.triu_indices(n, k=1)
        target = min(target, iu.size)
        pick = rng.choice(iu.size, size=target, replace=False)
        g = Graph.from_edges(n, np.stack([iu[pick], ju[pick]], axis=1))
        graphs.append(AttributedGraph(g, np.ones((n, 1)), label))
    return Dataset(name="synthetic-dense", graphs=graphs, num_classes=2, feature_dim=1)
