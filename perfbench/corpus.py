"""Seeded TU-format corpora shaped like NCI1 and DD.

The generator writes the plain-text layout that ``gfnlab.tu.parse_tu_dataset``
reads (``*_A.txt``, ``*_graph_indicator.txt``, ``*_graph_labels.txt``,
``*_node_labels.txt``), so the benchmark exercises the real parser.

Graph sizes follow a log-normal whose median and spread match the real
dataset, clipped to the real dataset's minimum and maximum graph size (so no
corpus is sized to dodge the one-row batch-norm failure on tiny graphs). Sizes
sit at the mid-points of equal-probability strata, and which graph gets which
size and class is fixed too, so every seed has the same graph sizes, classes
and edge counts; the seed decides the edges and the node labels. A run's work
then does not depend on the seed, while its inputs do.

Labels depend on structure: class 1 graphs carry more cycle-closing edges per
node than class 0, so edge density, which every model sees through the degree
features, separates the classes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Size and label statistics of a real TU dataset, used as a template."""

    name: str
    node_labels: int
    median_nodes: float
    sigma: float  # log-normal spread of graph sizes
    min_nodes: int
    max_nodes: int
    extra_edges: tuple[float, float]  # cycle-closing edges per node, by class
    window: int  # edges join nodes at most this far apart in index order


# NCI1 averages 29.87 nodes and 32.30 edges, spans 3..111 nodes and has 37 node
# labels; DD averages 284.32 nodes and 715.66 edges, spans 30..5748 nodes and
# has 82 (see ``gfnlab.tu.KNOWN_DATASETS``).
NCI1 = Shape("nci1_like", 37, 27.0, 0.42, 3, 111, (0.02, 0.25), 6)
DD = Shape("dd_like", 82, 205.0, 0.80, 30, 5748, (0.50, 2.50), 12)


@dataclass(frozen=True)
class CorpusStats:
    """What a generated corpus realised, as written to disk."""

    graphs: int
    nodes: int
    edges: int
    size_p50: float
    size_p99: float
    size_max: int
    input_mb: float

    def to_dict(self) -> dict:
        return asdict(self)


def graph_sizes(shape: Shape, num_graphs: int) -> np.ndarray:
    """The seed-independent size multiset: log-normal stratum mid-points."""
    inv = NormalDist().inv_cdf
    z = np.array([inv((i + 0.5) / num_graphs) for i in range(num_graphs)])
    sizes = np.rint(shape.median_nodes * np.exp(shape.sigma * z)).astype(np.int64)
    return np.clip(sizes, shape.min_nodes, shape.max_nodes)


def random_edges(rng: np.random.Generator, n: int, extra_per_node: float, window: int) -> np.ndarray:
    """Undirected edges ``(u, v)`` with ``u < v``, unique and loop-free: a random
    tree whose edges span at most ``window`` positions, plus
    ``round(extra_per_node * n)`` distinct cycle-closing edges of the same reach
    (fewer when a small graph has no room for them)."""
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64)
    child = np.arange(1, n)
    tree = np.stack([child - 1 - rng.integers(0, np.minimum(child, window)), child], axis=1)
    u, d = np.meshgrid(np.arange(n), np.arange(1, window + 1), indexing="ij")
    u, v = u.ravel(), (u + d).ravel()
    keep = v < n
    candidates = np.setdiff1d(u[keep] * n + v[keep], tree[:, 0] * n + tree[:, 1])
    take = min(int(round(extra_per_node * n)), candidates.size)
    extra = rng.choice(candidates, size=take, replace=False)
    extra = np.stack([extra // n, extra % n], axis=1)
    return np.concatenate([tree, extra])


def write_tu_corpus(directory: Path, shape: Shape, num_graphs: int, seed: int) -> CorpusStats:
    """Write a ``num_graphs``-graph corpus of ``shape`` under ``directory``.

    The same ``seed`` writes byte-identical files. Classes are balanced
    (within one for an odd count).
    """
    # The layout (each graph's size and class) does not depend on the seed;
    # size-adjacent pairs hold one graph of each class, so size carries no
    # label signal.
    layout = np.random.default_rng(np.random.SeedSequence((num_graphs, shape.node_labels)))
    sizes = layout.permutation(graph_sizes(shape, num_graphs))
    classes = np.empty(num_graphs, dtype=np.int64)
    classes[np.argsort(sizes, kind="stable")] = np.concatenate(
        [layout.permutation(2) for _ in range((num_graphs + 1) // 2)]
    )[:num_graphs]
    rng = np.random.default_rng(np.random.SeedSequence((seed, num_graphs, shape.node_labels)))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    edge_blocks = [
        random_edges(rng, int(n), shape.extra_edges[c], shape.window) + off
        for n, c, off in zip(sizes, classes, offsets[:-1])
    ]
    edges = np.concatenate(edge_blocks)
    total = int(offsets[-1])
    weights = 1.0 / np.arange(1, shape.node_labels + 1) ** 1.1
    node_labels = rng.choice(shape.node_labels, size=total, p=weights / weights.sum())
    # Every label value must occur, or the parsed feature width would shrink.
    missing = np.setdiff1d(np.arange(shape.node_labels), node_labels)
    node_labels[rng.choice(total, size=missing.size, replace=False)] = missing

    directory.mkdir(parents=True, exist_ok=True)
    name = shape.name
    both = np.concatenate([edges, edges[:, ::-1]]) + 1  # both directions, 1-based
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    np.savetxt(directory / f"{name}_A.txt", both, fmt="%d, %d")
    np.savetxt(directory / f"{name}_graph_indicator.txt", np.repeat(np.arange(1, num_graphs + 1), sizes), fmt="%d")
    np.savetxt(directory / f"{name}_graph_labels.txt", classes + 1, fmt="%d")
    np.savetxt(directory / f"{name}_node_labels.txt", node_labels, fmt="%d")
    nbytes = sum(p.stat().st_size for p in directory.glob(f"{name}_*.txt"))
    return describe(sizes, int(edges.shape[0]), nbytes / 2**20)


def describe(sizes: np.ndarray, edges: int, input_mb: float) -> CorpusStats:
    """Stats of a corpus with these graph sizes and undirected edge count."""
    sizes = np.asarray(sizes)
    return CorpusStats(
        graphs=int(sizes.size),
        nodes=int(sizes.sum()),
        edges=edges,
        size_p50=float(np.percentile(sizes, 50)),
        size_p99=float(np.percentile(sizes, 99)),
        size_max=int(sizes.max()),
        input_mb=input_mb,
    )
