"""Multi-scale propagated node features with an on-disk cache.

For a graph with node features X and normalized adjacency At, the augmented
matrix is a plain float64 array that concatenates column blocks in the fixed
order

    [degree, X, At @ X, At^2 @ X, ..., At^K @ X]

where the degree block is one-hot node degrees and each propagated block is
computed iteratively, never by materializing powers of At.
``FeatureSpec.column_names`` is the one place that names these columns.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Dataset, Graph, node_degrees, normalized_adjacency
from .sparse import spmm

# Part of every cache key; bump it when the cached matrices would change.
CACHE_FORMAT = "gfnlab-features-3"


@dataclass(frozen=True)
class FeatureSpec:
    """Which blocks enter the augmented feature matrix: the one-hot degree
    block when ``use_degree``, then X and its propagations up to depth ``K``."""

    use_degree: bool = True
    K: int = 3
    epsilon: float = 1.0

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be nonnegative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def cache_token(self) -> str:
        deg = "deg" if self.use_degree else "nodeg"
        return f"{deg}-k{self.K}-eps{self.epsilon:g}"

    def column_names(self, degree_cap: int, feature_dim: int) -> list[str]:
        """Names of the augmented columns in block order, for graphs whose
        one-hot degrees clamp at ``degree_cap`` and whose X has
        ``feature_dim`` columns."""
        blocks = [("deg", max(degree_cap, 1) + 1)] if self.use_degree else []
        blocks += [("x", feature_dim)] + [(f"a{k}x", feature_dim) for k in range(1, self.K + 1)]
        return [f"{name}_{j}" for name, width in blocks for j in range(width)]


def augment(graph: Graph, rows: list[np.ndarray], spec: FeatureSpec, degree_cap: int) -> np.ndarray:
    """Build the augmented feature matrix for one graph whose X is the row
    blocks ``rows`` in order (a single graph's X is ``[X]``).

    Every block is written straight into the output, so X is never stacked
    into a copy of its own. ``degree_cap`` is the one-hot clamp bucket,
    normally the dataset-wide maximum degree so all graphs share one schema.
    All arithmetic is float64; rows that do not fit raise ``ValueError``.
    """
    n, d = graph.num_nodes, rows[0].shape[1]
    cap = max(degree_cap, 1)
    deg = cap + 1 if spec.use_degree else 0  # width of the degree block
    out = np.zeros((n, deg + (spec.K + 1) * d))
    if spec.use_degree:
        out[np.arange(n), np.minimum(node_degrees(graph), cap)] = 1.0
    np.concatenate(rows, out=out[:, deg : deg + d])
    if spec.K > 0:
        adj = normalized_adjacency(graph, spec.epsilon).matrix
        for lo in range(deg, deg + spec.K * d, d):
            out[:, lo + d : lo + 2 * d] = spmm(adj, out[:, lo : lo + d])
    return out


def default_cache_dir() -> Path:
    env = os.environ.get("GFNLAB_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gfnlab"


def _cache_path(cache_dir: Path, dataset: Dataset, spec: FeatureSpec) -> Path:
    """Cache file named by a sha256 of the format, the exact spec and the dataset's
    fingerprint; the dataset name and the (rounded) spec token are only a readable prefix."""
    key = hashlib.sha256(f"{CACHE_FORMAT}/{spec!r}/{dataset.fingerprint}".encode()).hexdigest()
    return cache_dir / f"{dataset.name}_{spec.cache_token()}_{key}.npy"


def precompute_dataset(
    dataset: Dataset,
    spec: FeatureSpec,
    cache_dir: Path | str | None = None,
) -> list[np.ndarray]:
    """Compute augmented features for every graph, reusing the on-disk cache.

    The cache is one float64 matrix of all graphs' rows, keyed on content; a
    corrupt or mismatched cache file is recomputed, and a cache directory that
    cannot be written is skipped, each with a warning. Results are ordered by
    graph index.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = _cache_path(cache_dir, dataset, spec)
    if path.is_file():
        try:
            width = len(spec.column_names(dataset.degree_cap, dataset.feature_dim))
            return _load_cache(path, dataset.sizes, width)
        except Exception as exc:  # corrupt cache: recompute below
            warnings.warn(f"feature cache {path} unusable ({exc}); recomputing", stacklevel=2)
    # One propagation over the disjoint union: its normalized adjacency is
    # block diagonal and spmm sums each row on its own, so every graph's rows
    # equal those of a per-graph augment bit for bit.
    feats = augment(dataset.union, [g.node_features for g in dataset.graphs], spec,
                    dataset.degree_cap)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            np.save(fh, feats)
        os.replace(tmp, path)
    except OSError as exc:  # the cache only saves time: return the features uncached
        warnings.warn(f"feature cache directory {cache_dir} is not writable ({exc}); "
                      "features not cached", stacklevel=2)
    finally:
        if os.path.lexists(tmp):
            tmp.unlink()
    return np.split(feats, np.cumsum(dataset.sizes)[:-1])


def _load_cache(path: Path, sizes: np.ndarray, width: int) -> list[np.ndarray]:
    """Read the cached matrix straight into one array per graph. Per-graph
    arrays fit in freed heap memory; ``np.load`` of all rows at once can need
    a fresh mapping that adds the whole matrix to the peak resident memory."""
    shape = (int(sizes.sum()), width)
    with open(path, "rb") as fh:
        if np.lib.format.read_magic(fh) != (1, 0):
            raise ValueError("not a version 1.0 .npy file")
        found = np.lib.format.read_array_header_1_0(fh)  # (shape, fortran_order, dtype)
        if found != (shape, False, np.dtype(np.float64)):
            raise ValueError(f"header {found}, expected {(shape, False, 'float64')}")
        feats = [np.empty((n, width)) for n in sizes]
        if any(fh.readinto(f) != f.nbytes for f in feats):
            raise ValueError("file is truncated")
    return feats


def export_csv(
    dataset: Dataset, spec: FeatureSpec, feats: list[np.ndarray], out_dir: Path | str
) -> list[Path]:
    """Write one CSV per graph with a leading column-name comment line."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ",".join(spec.column_names(dataset.degree_cap, dataset.feature_dim))
    written = []
    digits = max(5, len(str(len(dataset))))
    for i, f in enumerate(feats):
        written.append(out_dir / f"{dataset.name}_graph_{i:0{digits}d}.csv")
        np.savetxt(written[-1], f, delimiter=",", fmt="%.17g", header=header, comments="# ")
    return written
