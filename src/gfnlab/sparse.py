"""Compressed sparse row matrices and the sparse-dense product used for propagation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def check_pattern(shape: tuple[int, int], indptr, indices) -> tuple[np.ndarray, np.ndarray]:
    """Check that a CSR pattern (``indptr`` and ``indices``, without values)
    describes a matrix of ``shape``, and return both as read-only int64 arrays.

    ``indptr`` has one entry per row plus one, starts at 0, never decreases
    and ends at the entry count; every index is a column in range.
    """
    nrows, ncols = shape
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if indptr.shape != (nrows + 1,):
        raise ValueError(f"indptr must have length {nrows + 1}, got {indptr.shape}")
    if indptr[0] != 0 or indptr[-1] != indices.size or (indptr[1:] < indptr[:-1]).any():
        raise ValueError("indptr must start at 0, never decrease and end at the entry count")
    if indices.size and (indices.min() < 0 or indices.max() >= ncols):
        raise ValueError("column index out of range")
    indptr.setflags(write=False)
    indices.setflags(write=False)
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

    def __post_init__(self):
        self.indptr, self.indices = check_pattern(self.shape, self.indptr, self.indices)
        if self.data.shape != self.indices.shape:
            raise ValueError(f"data must hold one value per entry ({self.nnz}), got {self.data.shape}")
        self.data.setflags(write=False)

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
    """Sparse-dense product ``adj @ dense``.

    Each output row is the sum of its stored entries' products taken strictly
    left to right, so a row's result depends only on that row and is
    reproducible bit for bit. The sweep follows ``adj.sweep``: pass ``k`` adds
    the ``k``-th entries into the prefix of a row-permuted accumulator.
    Temporaries stay at ``[rows, width]``, however many entries there are. The
    plan is built on the first call and kept with the immutable matrix, at
    about 16 bytes per stored entry plus 8 per row, so later calls only sweep it.
    """
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 2-D, got ndim={dense.ndim}")
    if adj.shape[1] != dense.shape[0]:
        raise ValueError(f"shape mismatch: {adj.shape} @ {dense.shape}")
    dense = dense.astype(np.result_type(adj.data.dtype, dense.dtype), copy=False)
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
    """Stack square CSR blocks into one block-diagonal CSR matrix."""
    if not blocks:
        raise ValueError("need at least one block")
    for b in blocks:
        if b.shape[0] != b.shape[1]:
            raise ValueError(f"blocks must be square, got shape {b.shape}")
    n, indptr, indices = stack_diagonal([(b.shape[0], b.indptr, b.indices) for b in blocks])
    return CSRMatrix((n, n), indptr, indices, np.concatenate([b.data for b in blocks]))
