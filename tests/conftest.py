import numpy as np
import pytest

from gfnlab.graphs import Graph
from gfnlab.sparse import CSRMatrix, spmm


@pytest.fixture(autouse=True)
def _isolated_feature_cache(tmp_path, monkeypatch):
    """Every test gets its own feature cache so no state leaks between runs."""
    monkeypatch.setenv("GFNLAB_CACHE", str(tmp_path / "feature-cache"))


@pytest.fixture
def random_graph():
    """Factory for Erdos-Renyi style graphs: random_graph(rng, n, p=0.5)."""

    def make(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < p
        return Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))

    return make


def assert_bitwise_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_same_csr(got, want):
    """Two CSR matrices hold the same shape, pattern and values, bit for bit."""
    assert got.shape == want.shape
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
        assert_bitwise_equal(a, b)


def lexsort_from_coo(shape, rows, cols, vals) -> CSRMatrix:
    """Reference CSR build from coordinate triplets: a two-key lexsort, so
    duplicates keep their input order, and per-entry row counts."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows[order] + 1, 1)
    return CSRMatrix(shape, np.cumsum(indptr), cols[order], np.asarray(vals)[order])


def write_tu_files(directory, name, indicator, edges, graph_labels,
                   node_labels=None, node_attributes=None):
    """Lay out a benchmark directory from python lists of text lines."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (directory / f"{name}_A.txt").write_text("\n".join(edges) + "\n")
    (directory / f"{name}_graph_labels.txt").write_text("\n".join(graph_labels) + "\n")
    if node_labels is not None:
        (directory / f"{name}_node_labels.txt").write_text("\n".join(node_labels) + "\n")
    if node_attributes is not None:
        (directory / f"{name}_node_attributes.txt").write_text("\n".join(node_attributes) + "\n")
    return directory


def random_tu_files(rng, directory):
    """A random TU layout with an interleaved indicator, non-contiguous graph
    ids, isolated nodes, graphs without edges and edges listed once, twice,
    reversed or repeated, in shuffled order. Returns the directory and, per
    graph in id order, its global node ids (file order), its local edge list
    and its raw label, and the raw node labels."""
    num_graphs = int(rng.integers(1, 7))
    ids = np.sort(rng.choice(np.arange(1, 40), num_graphs, replace=False))
    indicator = rng.permutation(np.repeat(ids, rng.integers(1, 9, num_graphs)))
    node_labels = rng.integers(0, 5, indicator.size)
    graph_labels = rng.integers(-2, 3, num_graphs)
    lines, graphs = [], []
    for gid, label in zip(ids, graph_labels):
        nodes = np.flatnonzero(indicator == gid)
        pairs = rng.integers(0, nodes.size, (int(rng.integers(0, 2 * nodes.size)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        graphs.append((nodes, pairs, label))
        for u, v in nodes[pairs] + 1:
            lines += [[f"{u} {v}"], [f"{v} {u}"], [f"{u} {v}", f"{v} {u}"],
                      [f"{u} {v}"] * 3][int(rng.integers(4))]
    d = write_tu_files(directory, "rnd", indicator=[str(i) for i in indicator],
                       edges=[lines[i] for i in rng.permutation(len(lines))],
                       graph_labels=[str(x) for x in graph_labels],
                       node_labels=[str(x) for x in node_labels])
    return d, graphs, node_labels


def finite_difference_grad(loss_fn, params: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient estimate of ``loss_fn()`` w.r.t. each array.

    The arrays are perturbed in place and restored; evaluate at float64 for
    meaningful comparisons.
    """
    grads = []
    for arr in params:
        g = np.zeros(arr.shape, dtype=np.float64)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            g.reshape(-1)[i] = (f_plus - f_minus) / (2 * h)
        grads.append(g)
    return grads


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
