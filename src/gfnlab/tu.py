"""Parser for the plain-text multi-file benchmark layout used by the standard
graph-classification corpora (edge list + graph indicator + labels, with
optional per-node labels and continuous attributes)."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .graphs import AttributedGraph, DataError, Dataset, DatasetMeta, Graph
from .sparse import split_diagonal

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

    Tolerates trailing whitespace, blank lines, and Windows line endings. The
    bytes go straight to numpy's number parser, so a token that is not a
    plain number (a non-ASCII byte included) is non-numeric data.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    raw = raw.replace(b",", b" ")
    if not raw.strip():  # numpy reads blank text as one number (0 or -1.0)
        return np.empty(0, dtype=dtype)
    try:
        values = np.fromstring(raw, dtype=dtype, sep=" ")
    except ValueError as exc:
        raise DataError(f"{path} contains non-numeric data: {exc}") from exc
    if values.dtype.kind == "i":
        # numpy's integer reader takes a sign with no digit after it as the
        # sign of the next number, or as 0 at the end of the text
        if (b"-" in raw or b"+" in raw) and re.search(rb"[-+](?![0-9])", raw):
            raise DataError(f"{path} contains non-numeric data: a sign without digits")
        # and it clamps an integer outside the dtype to a limit: where a limit
        # appears, every token's exact value is checked
        info = np.iinfo(values.dtype)
        if (values.max() == info.max or values.min() == info.min) and any(
            not info.min <= int(token) <= info.max for token in raw.split()
        ):
            raise DataError(f"{path} contains an integer outside {values.dtype}")
    return values


def _require(path: Path) -> Path:
    if not path.is_file():
        raise DataError(f"missing required file: {path}")
    return path


def parse_tu_dataset(directory, name: str, meta: DatasetMeta | None = None) -> Dataset:
    """Parse a benchmark directory into a :class:`Dataset`.

    Expects ``{name}_A.txt`` (one edge per line, listed in either one or both
    directions), ``{name}_graph_indicator.txt`` (graph id per node line) and
    ``{name}_graph_labels.txt``, plus optional ``{name}_node_labels.txt`` and
    ``{name}_node_attributes.txt``. File indices are 1-based.

    Node categorical labels are one-hot encoded over the values seen in the
    whole dataset and concatenated before any raw continuous attributes, which
    must be finite. If neither node file exists, every node gets a single
    all-ones feature. Graph labels are remapped to a contiguous 0-based range
    by sorted value.

    ``meta`` defaults to the :data:`KNOWN_DATASETS` entry for ``name``; each
    count it gives must match the parse result.
    """
    directory = Path(directory)
    indicator = _read_numbers(_require(directory / f"{name}_graph_indicator.txt"), np.int64)
    edges = _read_numbers(_require(directory / f"{name}_A.txt"), np.int64)
    graph_labels_raw = _read_numbers(_require(directory / f"{name}_graph_labels.txt"), np.int64)

    if edges.size % 2 != 0:
        raise DataError(f"{name}_A.txt must contain an even number of indices")
    edges = edges.reshape(-1, 2) - 1  # to 0-based global node ids
    num_nodes_total = indicator.size

    graph_ids, node_graph = np.unique(indicator, return_inverse=True)
    num_graphs = graph_ids.size
    if num_graphs != graph_labels_raw.size:
        raise DataError(
            f"{name}: {num_graphs} graphs in indicator but "
            f"{graph_labels_raw.size} graph labels"
        )
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes_total):
        raise DataError(f"{name}_A.txt references a node outside 1..{num_nodes_total}")
    if edges.size and (node_graph[edges[:, 0]] != node_graph[edges[:, 1]]).any():
        raise DataError(f"{name}_A.txt contains an edge between two graphs")

    # Number the nodes graph by graph (file order within a graph). A file that
    # already lists them so keeps its numbering, and its node rows are used as
    # they are; otherwise edges and node rows are permuted once.
    node_order = slice(None)
    if (node_graph[1:] < node_graph[:-1]).any():
        node_order = np.argsort(node_graph, kind="stable")
        position = np.empty(num_nodes_total, dtype=np.int64)
        position[node_order] = np.arange(num_nodes_total)
        edges = position[edges]

    # Node feature blocks: one-hot labels first, then raw attributes.
    blocks = []
    labels_path = directory / f"{name}_node_labels.txt"
    if labels_path.is_file():
        node_labels = _read_numbers(labels_path, np.int64)
        if node_labels.size != num_nodes_total:
            raise DataError(
                f"{name}_node_labels.txt has {node_labels.size} entries "
                f"for {num_nodes_total} nodes"
            )
        values, label_index = np.unique(node_labels[node_order], return_inverse=True)
        onehot = np.zeros((num_nodes_total, values.size), dtype=np.float64)
        onehot[np.arange(num_nodes_total), label_index] = 1.0
        blocks.append(onehot)
    attrs_path = directory / f"{name}_node_attributes.txt"
    if attrs_path.is_file() and num_nodes_total:
        flat = _read_numbers(attrs_path, np.float64)
        if flat.size % num_nodes_total != 0:
            raise DataError(
                f"{name}_node_attributes.txt does not divide into {num_nodes_total} rows"
            )
        if not np.isfinite(flat).all():
            raise DataError(f"{name}_node_attributes.txt contains a non-finite value")
        blocks.append(flat.reshape(num_nodes_total, -1)[node_order])
    if len(blocks) > 1:
        features = np.concatenate(blocks, axis=1)
    else:  # a lone block is used as it is, not copied
        features = blocks[0] if blocks else np.ones((num_nodes_total, 1))

    # Remap arbitrary integer graph labels to contiguous 0-based classes.
    classes, y = np.unique(graph_labels_raw, return_inverse=True)

    # Build one graph over the whole file and cut each graph out of its row
    # range; its node features are a view of the same rows.
    sizes = np.bincount(node_graph, minlength=num_graphs).tolist()
    whole = Graph.from_edges(num_nodes_total, edges)
    rows = np.split(features, np.cumsum(sizes)[:-1])
    cuts = zip(split_diagonal(sizes, whole.indptr, whole.indices), rows, y.tolist())
    graphs = [AttributedGraph(Graph(n, ptr, ix), x, label) for (n, ptr, ix, _), x, label in cuts]

    if meta is None:
        meta = KNOWN_DATASETS.get(name, DatasetMeta())
    num_classes, feature_dim = int(classes.size), int(features.shape[1])
    for expected, parsed, what in (
        (meta.expected_graph_count, num_graphs, "{} graphs"),
        (meta.expected_class_count, num_classes, "{} classes"),
        (meta.expected_feature_dim, feature_dim, "feature_dim {}"),
    ):
        if expected is not None and parsed != expected:
            raise DataError(f"{name}: expected {what.format(expected)}, parsed {parsed}")
    return Dataset(name, graphs, num_classes, feature_dim)
