"""Parser for the plain-text multi-file benchmark layout used by the standard
graph-classification corpora (edge list + graph indicator + labels, with
optional per-node labels and continuous attributes)."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .graphs import (
    AttributedGraph,
    Dataset,
    DatasetMeta,
    Graph,
    ParseError,
    StructureError,
)

# Reference counts for the common benchmarks, keyed by directory name:
# graphs, classes and feature columns, each enforced exactly after parsing.
KNOWN_DATASETS: dict[str, DatasetMeta] = {
    "MUTAG": DatasetMeta(188, 2, 7),
    "NCI1": DatasetMeta(4110, 2, 37),
    "PROTEINS": DatasetMeta(1113, 2, 4),
    "DD": DatasetMeta(1178, 2, 82),
    "ENZYMES": DatasetMeta(600, 6, 21),
    "COLLAB": DatasetMeta(5000, 3, 1),
    "IMDB-BINARY": DatasetMeta(1000, 2, 1),
    "IMDB-MULTI": DatasetMeta(1500, 3, 1),
    "REDDIT-MULTI-5K": DatasetMeta(4999, 5, 1),
    "REDDIT-MULTI-12K": DatasetMeta(11929, 11, 1),
}


def _read_numbers(path: Path, dtype) -> np.ndarray:
    """Read a whitespace/comma-separated numeric file as a flat array.

    Tolerates trailing whitespace, blank lines, and Windows line endings.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    tokens = text.replace(",", " ").split()
    try:
        return np.array(tokens, dtype=dtype)
    except ValueError as exc:
        raise ParseError(f"{path} contains non-numeric data: {exc}") from exc


def _require(path: Path) -> Path:
    if not path.is_file():
        raise ParseError(f"missing required file: {path}")
    return path


def parse_tu_dataset(directory, name: str, meta: DatasetMeta | None = None) -> Dataset:
    """Parse a benchmark directory into a :class:`Dataset`.

    Expects ``{name}_A.txt`` (one edge per line, listed in either one or both
    directions), ``{name}_graph_indicator.txt`` (graph id per node line) and
    ``{name}_graph_labels.txt``, plus optional ``{name}_node_labels.txt`` and
    ``{name}_node_attributes.txt``. File indices are 1-based.

    Node categorical labels are one-hot encoded over the values seen in the
    whole dataset and concatenated before any raw continuous attributes. If
    neither node file exists, every node gets a single all-ones feature.
    Graph labels are remapped to a contiguous 0-based range by sorted value.

    ``meta`` defaults to the :data:`KNOWN_DATASETS` entry for ``name`` and is
    validated against the parse result.
    """
    directory = Path(directory)
    indicator = _read_numbers(_require(directory / f"{name}_graph_indicator.txt"), np.int64)
    edges = _read_numbers(_require(directory / f"{name}_A.txt"), np.int64)
    graph_labels_raw = _read_numbers(_require(directory / f"{name}_graph_labels.txt"), np.int64)

    if edges.size % 2 != 0:
        raise ParseError(f"{name}_A.txt must contain an even number of indices")
    edges = edges.reshape(-1, 2) - 1  # to 0-based global node ids
    num_nodes_total = indicator.size

    graph_ids = np.unique(indicator)
    num_graphs = graph_ids.size
    if num_graphs != graph_labels_raw.size:
        raise StructureError(
            f"{name}: {num_graphs} graphs in indicator but "
            f"{graph_labels_raw.size} graph labels"
        )
    # Map each global node to (graph, local index), in order of appearance.
    node_graph = np.searchsorted(graph_ids, indicator)
    counts = np.bincount(node_graph, minlength=num_graphs)
    node_order = np.argsort(node_graph, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)])
    local_index = np.empty(num_nodes_total, dtype=np.int64)
    local_index[node_order] = np.arange(num_nodes_total) - np.repeat(starts[:-1], counts)

    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes_total):
        raise StructureError(f"{name}_A.txt references a node outside 1..{num_nodes_total}")
    if edges.size and (node_graph[edges[:, 0]] != node_graph[edges[:, 1]]).any():
        raise StructureError(f"{name}_A.txt contains an edge between two graphs")

    # Node feature blocks: one-hot labels first, then raw attributes.
    blocks = []
    labels_path = directory / f"{name}_node_labels.txt"
    if labels_path.is_file():
        node_labels = _read_numbers(labels_path, np.int64)
        if node_labels.size != num_nodes_total:
            raise StructureError(
                f"{name}_node_labels.txt has {node_labels.size} entries "
                f"for {num_nodes_total} nodes"
            )
        values = np.unique(node_labels)
        onehot = np.zeros((num_nodes_total, values.size), dtype=np.float64)
        onehot[np.arange(num_nodes_total), np.searchsorted(values, node_labels)] = 1.0
        blocks.append(onehot)
    attrs_path = directory / f"{name}_node_attributes.txt"
    if attrs_path.is_file():
        flat = _read_numbers(attrs_path, np.float64)
        if flat.size % num_nodes_total != 0:
            raise StructureError(
                f"{name}_node_attributes.txt does not divide into {num_nodes_total} rows"
            )
        blocks.append(flat.reshape(num_nodes_total, -1))
    features = np.concatenate(blocks, axis=1) if blocks else np.ones((num_nodes_total, 1))

    # Remap arbitrary integer graph labels to contiguous 0-based classes.
    classes = np.unique(graph_labels_raw)
    y = np.searchsorted(classes, graph_labels_raw)

    # Group edges and feature rows by graph with one stable sort each.
    edge_graph = node_graph[edges[:, 0]] if edges.size else np.zeros(0, dtype=np.int64)
    edge_order = np.argsort(edge_graph, kind="stable")
    local_edges = np.stack(
        [local_index[edges[edge_order, 0]], local_index[edges[edge_order, 1]]], axis=1
    ) if edges.size else edges
    edge_starts = np.searchsorted(edge_graph[edge_order], np.arange(num_graphs + 1))

    graphs = []
    for g in range(num_graphs):
        n = int(counts[g])
        graph = Graph.from_edges(n, local_edges[edge_starts[g] : edge_starts[g + 1]])
        rows = node_order[starts[g] : starts[g + 1]]
        graphs.append(AttributedGraph(graph, features[rows], int(y[g])))

    if meta is None:
        meta = KNOWN_DATASETS.get(name, DatasetMeta())
    dataset = Dataset(
        name=name,
        graphs=graphs,
        num_classes=int(classes.size),
        feature_dim=int(features.shape[1]),
        meta=meta,
    )
    dataset.validate_meta()
    return dataset
