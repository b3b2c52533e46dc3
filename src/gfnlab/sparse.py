"""Compressed sparse row matrices and the sparse-dense product used for propagation."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# block_diag keeps dense blocks, and spmm multiplies them with BLAS instead of
# sweeping, when the blocks hold at most this many cells per stored entry.
# Measured per float32 product at width 128 on a 2-core Xeon, one OpenBLAS
# thread (dense blocks against the planned sweep): 8 generate_dense_synthetic
# graphs (2.6 cells per entry) 0.05 against 0.45 ms; 32 NCI1-like graphs (13)
# 0.17 against 0.47 ms; 4 DD-like graphs 0.33 against 0.57 ms at 25.5, even at
# 44 and 1.5 against 1.3 ms at 54. The margin below that crossover pays for
# building the blocks once per batch (to_dense, 0.05 to 0.27 ms on these
# batches against plan_sweep's 0.05 to 0.13 ms) and for their memory: 4 bytes
# a cell against the plan's 16 or so an entry.
DENSE_CELLS_PER_ENTRY = 32


def _frozen(values, dtype=None) -> np.ndarray:
    """Read-only ``values``, copied if a view: its base could change it after a check."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr = arr if arr.flags.owndata else arr.copy()
    arr.setflags(write=False)
    return arr


def check_pattern(shape: tuple[int, int], indptr, indices) -> tuple[np.ndarray, np.ndarray]:
    """Check that a CSR pattern (``indptr`` and ``indices``, without values)
    describes a matrix of ``shape``, and return both as ``_frozen`` int64 arrays.

    ``indptr`` has one entry per row plus one, starts at 0, never decreases
    and ends at the entry count; every index is a column in range.
    """
    nrows, ncols = shape
    indptr, indices = _frozen(indptr, np.int64), _frozen(indices, np.int64)
    if indptr.shape != (nrows + 1,):
        raise ValueError(f"indptr must have length {nrows + 1}, got {indptr.shape}")
    if indptr[0] != 0 or indptr[-1] != indices.size or (indptr[1:] < indptr[:-1]).any():
        raise ValueError("indptr must start at 0, never decrease and end at the entry count")
    if indices.size and (indices.min() < 0 or indices.max() >= ncols):
        raise ValueError("column index out of range")
    return indptr, indices


@dataclass(eq=False)  # array fields: == compares identity
class CSRMatrix:
    """Immutable CSR matrix.

    ``data[indptr[i]:indptr[i+1]]`` holds row ``i``'s values at columns
    ``indices[indptr[i]:indptr[i+1]]``, column-sorted within each row.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    # read-only dense diagonal blocks, set only by block_diag; () means sweep
    dense_blocks: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False)

    def __post_init__(self):
        self.indptr, self.indices = check_pattern(self.shape, self.indptr, self.indices)
        self.data = _frozen(self.data)
        if self.data.shape != self.indices.shape:
            raise ValueError(f"data must hold one value per entry ({self.nnz}), got {self.data.shape}")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @cached_property
    def sweep(self) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The plan ``spmm`` follows, built on first use by ``plan_sweep`` and
        kept with the matrix, which never changes."""
        return plan_sweep(self)

    def astype(self, dtype) -> "CSRMatrix":
        return CSRMatrix(self.shape, self.indptr, self.indices, self.data.astype(dtype))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(out, (rows, self.indices), self.data)  # duplicates sum, as in spmm
        return out


def plan_sweep(adj: CSRMatrix) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The jagged-diagonal sweep of ``adj``: rows ordered by entry count,
    longest first (stable), so that the rows holding a ``k``-th entry are a
    prefix of that order. Returns the inverse of that order and, for each pass
    ``k``, the column indices and the values (as a column) of those entries.
    """
    lengths = np.diff(adj.indptr)
    order = np.argsort(-lengths, kind="stable")
    starts = adj.indptr[:-1][order]
    # rows_with[k]: how many rows have more than k entries
    rows_with = lengths.size - np.cumsum(np.bincount(lengths))[:-1]
    passes = []
    for k, count in enumerate(rows_with):
        pos = starts[:count] + k
        passes.append((adj.indices[pos], adj.data[pos, None]))
    return np.argsort(order), passes


def spmm(adj: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``adj @ dense``, by one of two kernels.

    A matrix that ``block_diag`` gave ``dense_blocks`` (its blocks hold at most
    ``DENSE_CELLS_PER_ENTRY`` cells per stored entry) is multiplied one block at
    a time with BLAS. That result is reproducible for the same inputs and BLAS
    thread count, but BLAS does not sum a row strictly left to right. The
    feature precompute's disjoint union is never built by ``block_diag``, so it
    never takes this path.

    Every other matrix is swept: each output row is the sum of its stored
    entries' products taken strictly left to right, so a row's result depends
    only on that row and is reproducible bit for bit. The sweep follows
    ``adj.sweep``: pass ``k`` adds the ``k``-th entries into the prefix of a
    row-permuted accumulator. Temporaries stay at ``[rows, width]``, however
    many entries there are. The plan is built on the first call and kept with
    the immutable matrix, at about 16 bytes per stored entry plus 8 per row, so
    later calls only sweep it.
    """
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 2-D, got ndim={dense.ndim}")
    if adj.shape[1] != dense.shape[0]:
        raise ValueError(f"shape mismatch: {adj.shape} @ {dense.shape}")
    dense = dense.astype(np.result_type(adj.data.dtype, dense.dtype), copy=False)
    if adj.dense_blocks:
        out = np.empty((adj.shape[0], dense.shape[1]), dtype=dense.dtype)
        lo = 0
        for block in adj.dense_blocks:
            hi = lo + block.shape[0]
            np.matmul(block, dense[lo:hi], out=out[lo:hi])
            lo = hi
        return out
    inverse, passes = adj.sweep
    acc = np.zeros((adj.shape[0], dense.shape[1]), dtype=dense.dtype)
    for k, (cols, vals) in enumerate(passes):
        if k == 0:  # start at the first entry: 0.0 + -0.0 would lose a sign
            np.multiply(dense[cols], vals, out=acc[: cols.size])
        else:
            term = dense[cols]
            term *= vals
            acc[: cols.size] += term
    return acc[inverse]


def stack_diagonal(
    patterns: list[tuple[int, np.ndarray, np.ndarray]],
) -> tuple[int, np.ndarray, np.ndarray]:
    """Stack square CSR patterns ``(size, indptr, indices)`` along the diagonal.

    Each pattern's rows and columns move down and right by the sizes of the
    patterns before it. Returns the stacked size, ``indptr`` and ``indices``.
    """
    # Concatenating the offset pieces, rather than filling preallocated
    # outputs, kept gfn-nci1's peak RSS 4.6 MB lower (glibc heap layout).
    indptr, indices = [np.zeros(1, dtype=np.int64)], []
    row = pos = 0
    for size, ptr, ix in patterns:
        indptr.append(ptr[1:] + pos)
        indices.append(ix + row)
        row += size
        pos += ix.size
    return row, np.concatenate(indptr), np.concatenate(indices)


def split_diagonal(sizes, indptr, indices):
    """The inverse of ``stack_diagonal``: yields each diagonal block of ``sizes``
    rows as its size, ``indptr`` and ``indices``, and the slice of its entries."""
    row = 0
    for size in sizes:
        a, b = int(indptr[row]), int(indptr[row + size])
        yield size, indptr[row : row + size + 1] - a, indices[a:b] - row, slice(a, b)
        row += size


def block_diag(blocks: list[CSRMatrix]) -> CSRMatrix:
    """Stack square CSR blocks into one block-diagonal CSR matrix. If
    ``sum(n_i**2) <= DENSE_CELLS_PER_ENTRY * nnz``, it also keeps each block's
    read-only ``to_dense()`` as ``dense_blocks``, which ``spmm`` multiplies."""
    if not blocks:
        raise ValueError("need at least one block")
    for b in blocks:
        if b.shape[0] != b.shape[1]:
            raise ValueError(f"blocks must be square, got shape {b.shape}")
    n, indptr, indices = stack_diagonal([(b.shape[0], b.indptr, b.indices) for b in blocks])
    out = CSRMatrix((n, n), indptr, indices, np.concatenate([b.data for b in blocks]))
    if sum(b.shape[0] ** 2 for b in blocks) <= DENSE_CELLS_PER_ENTRY * out.nnz:
        out.dense_blocks = tuple(_frozen(b.to_dense()) for b in blocks)
    return out
