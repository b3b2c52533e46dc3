"""Compressed sparse row matrices and the sparse-dense product used for propagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
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
        nrows, ncols = self.shape
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if self.indptr.shape != (nrows + 1,):
            raise ValueError(f"indptr must have length {nrows + 1}, got {self.indptr.shape}")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr does not span the stored entries")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= ncols):
            raise ValueError("column index out of range")
        for a in (self.indptr, self.indices, self.data):
            a.setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def astype(self, dtype) -> "CSRMatrix":
        return CSRMatrix(self.shape, self.indptr, self.indices, self.data.astype(dtype))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out


def from_coo(shape: tuple[int, int], rows, cols, vals) -> CSRMatrix:
    """Build a CSR matrix from coordinate triplets (duplicates not merged)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(shape, indptr, cols, vals)


def spmm(adj: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product ``adj @ dense``.

    Each output row is the sum of its stored entries' products taken strictly
    left to right, so a row's result depends only on that row and is
    reproducible bit for bit. The sweep follows the jagged-diagonal scheme:
    rows ordered by entry count, longest first, so that the rows holding a
    ``k``-th entry are a prefix of that order, and pass ``k`` adds those
    entries into the prefix of a row-permuted accumulator. Temporaries stay
    at ``[rows, width]``, however many entries there are.
    """
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 2-D, got ndim={dense.ndim}")
    if adj.shape[1] != dense.shape[0]:
        raise ValueError(f"shape mismatch: {adj.shape} @ {dense.shape}")
    dtype = np.result_type(adj.data.dtype, dense.dtype)
    dense = dense.astype(dtype, copy=False)
    data = adj.data.astype(dtype, copy=False)
    lengths = np.diff(adj.indptr)
    order = np.argsort(-lengths, kind="stable")
    starts = adj.indptr[:-1][order]
    # rows_with[k]: how many rows have more than k entries
    rows_with = lengths.size - np.cumsum(np.bincount(lengths))[:-1]
    acc = np.zeros((adj.shape[0], dense.shape[1]), dtype=dtype)
    for k, count in enumerate(rows_with):
        pos = starts[:count] + k
        term = dense[adj.indices[pos]]
        term *= data[pos, None]
        if k == 0:
            acc[:count] = term  # start at the first entry: 0.0 + -0.0 would lose a sign
        else:
            acc[:count] += term
    out = np.empty_like(acc)
    out[order] = acc
    return out


def block_diag(blocks: list[CSRMatrix]) -> CSRMatrix:
    """Stack square CSR blocks into one block-diagonal CSR matrix."""
    if not blocks:
        raise ValueError("need at least one block")
    sizes = [b.shape for b in blocks]
    nrows = sum(s[0] for s in sizes)
    ncols = sum(s[1] for s in sizes)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    indices = np.empty(sum(b.nnz for b in blocks), dtype=np.int64)
    data = np.empty(indices.size, dtype=np.result_type(*(b.data.dtype for b in blocks)))
    row_off = col_off = nnz_off = 0
    for b in blocks:
        r, c = b.shape
        indptr[row_off + 1 : row_off + r + 1] = b.indptr[1:] + nnz_off
        indices[nnz_off : nnz_off + b.nnz] = b.indices + col_off
        data[nnz_off : nnz_off + b.nnz] = b.data
        row_off += r
        col_off += c
        nnz_off += b.nnz
    return CSRMatrix((nrows, ncols), indptr, indices, data)
