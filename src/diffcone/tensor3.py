"""Sparse rank-3 tensors in coordinate form and the slice-product psi.

A tensor T of dims (rows, cols, slices) represents an expression that is
jointly linear in an augmented variable vector (indexed by cols, last column
constant) and an augmented parameter vector (indexed by slices, last slice
constant).  Entry (i, j, k, v) contributes v * var_j * param_k to row i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["SparseTensor3", "psi_combine"]


@dataclass(frozen=True)
class SparseTensor3:
    dims: tuple[int, int, int]
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    v: np.ndarray

    @staticmethod
    def from_entries(dims, i, j, k, v) -> "SparseTensor3":
        """Build from coordinate lists; duplicates are summed, zeros dropped."""
        i = np.asarray(i, dtype=np.int64).ravel()
        j = np.asarray(j, dtype=np.int64).ravel()
        k = np.asarray(k, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.float64).ravel()
        if not (i.size == j.size == k.size == v.size):
            raise ValueError("coordinate arrays must have equal lengths")
        rows, cols, slices = (int(d) for d in dims)
        if i.size:
            if i.min() < 0 or i.max() >= rows or j.min() < 0 or j.max() >= cols \
                    or k.min() < 0 or k.max() >= slices:
                raise ValueError("tensor entry out of bounds")
            if not np.all(np.isfinite(v)):
                raise ValueError("tensor entries must be finite")
            # Sum duplicate (i, j, k) triples; keep a canonical sort order.
            order = np.lexsort((j, i, k))
            i, j, k, v = i[order], j[order], k[order], v[order]
            boundary = np.empty(i.size, dtype=bool)
            boundary[0] = True
            boundary[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1]) | (k[1:] != k[:-1])
            starts = np.flatnonzero(boundary)
            v = np.add.reduceat(v, starts)
            i, j, k = i[starts], j[starts], k[starts]
            keep = v != 0.0
            i, j, k, v = i[keep], j[keep], k[keep], v[keep]
        return SparseTensor3((rows, cols, slices), i, j, k, v)

    @property
    def nnz(self) -> int:
        return self.v.size

    def is_constant_slice_only(self) -> bool:
        """True when all entries live in the last (constant) slice."""
        return self.nnz == 0 or bool(np.all(self.k == self.dims[2] - 1))

    def add(self, other: "SparseTensor3") -> "SparseTensor3":
        if self.dims != other.dims:
            raise ValueError(f"tensor dims differ: {self.dims} vs {other.dims}")
        return SparseTensor3.from_entries(
            self.dims,
            np.concatenate([self.i, other.i]),
            np.concatenate([self.j, other.j]),
            np.concatenate([self.k, other.k]),
            np.concatenate([self.v, other.v]),
        )

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dims)
        np.add.at(out, (self.i, self.j, self.k), self.v)
        return out


def psi_combine(T: SparseTensor3, S: SparseTensor3) -> SparseTensor3:
    """Slice-wise product of two tensors, one of which must be unparametrized.

    When T has entries only in its constant slice, the result's slice k is
    T[:,:,last] @ S[:,:,k]; symmetrically when S is constant-slice-only.
    Both being parametrized signals an upstream analysis bug and raises.

    All slices go through one sparse product: every (slice, column) pair of
    S that holds an entry becomes one column of a flat matrix (or every
    (slice, row) pair of T one row), and the product's indices decode back
    to (row, column, slice).  Each output entry accumulates its terms in the
    same order as a per-slice product would, so the values are identical.
    """
    if T.dims[1] != S.dims[0]:
        raise ValueError(f"inner dims differ: {T.dims} x {S.dims}")
    if T.dims[2] != S.dims[2]:
        raise ValueError(f"slice counts differ: {T.dims[2]} vs {S.dims[2]}")
    rows, inner, cols = T.dims[0], T.dims[1], S.dims[1]
    out_dims = (rows, cols, T.dims[2])
    if T.is_constant_slice_only():
        # Compressed keys k*cols + j keep scipy's workspace at the number of
        # populated (slice, column) pairs rather than cols * slices.
        keys, flat_col = np.unique(S.k * cols + S.j, return_inverse=True)
        left = sp.csr_matrix((T.v, (T.i, T.j)), shape=(rows, inner))
        flat = sp.csr_matrix((S.v, (S.i, flat_col)), shape=(inner, keys.size))
        prod = (left @ flat).tocoo()
        key = keys[prod.col]
        i, j, k = prod.row, key % cols, key // cols
    elif S.is_constant_slice_only():
        keys, flat_row = np.unique(T.k * rows + T.i, return_inverse=True)
        flat = sp.csr_matrix((T.v, (flat_row, T.j)), shape=(keys.size, inner))
        right = sp.csr_matrix((S.v, (S.i, S.j)), shape=(inner, cols))
        prod = (flat @ right).tocoo()
        key = keys[prod.row]
        i, j, k = key % rows, prod.col, key // rows
    else:
        raise ValueError(
            "psi_combine requires one unparametrized operand; both carry "
            "parameter slices")
    return SparseTensor3.from_entries(out_dims, i, j, k, prod.data)
