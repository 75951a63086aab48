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

    @staticmethod
    def zeros(dims) -> "SparseTensor3":
        e = np.zeros(0)
        return SparseTensor3(tuple(int(d) for d in dims),
                             e.astype(np.int64), e.astype(np.int64),
                             e.astype(np.int64), e)

    @property
    def nnz(self) -> int:
        return self.v.size

    def nonzero_slices(self) -> np.ndarray:
        return np.unique(self.k)

    def is_constant_slice_only(self) -> bool:
        """True when all entries live in the last (constant) slice."""
        return self.nnz == 0 or bool(np.all(self.k == self.dims[2] - 1))

    def slice_coo(self, k: int) -> sp.coo_matrix:
        mask = self.k == k
        return sp.coo_matrix(
            (self.v[mask], (self.i[mask], self.j[mask])),
            shape=(self.dims[0], self.dims[1]),
        )

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
    """
    if T.dims[1] != S.dims[0]:
        raise ValueError(f"inner dims differ: {T.dims} x {S.dims}")
    if T.dims[2] != S.dims[2]:
        raise ValueError(f"slice counts differ: {T.dims[2]} vs {S.dims[2]}")
    n_slices = T.dims[2]
    out_dims = (T.dims[0], S.dims[1], n_slices)
    t_const = T.is_constant_slice_only()
    s_const = S.is_constant_slice_only()
    if not (t_const or s_const):
        raise ValueError(
            "psi_combine requires one unparametrized operand; both carry "
            "parameter slices"
        )
    ii, jj, kk, vv = [], [], [], []
    if t_const:
        left = T.slice_coo(n_slices - 1).tocsr()
        for k in S.nonzero_slices():
            prod = (left @ S.slice_coo(int(k)).tocsc()).tocoo()
            ii.append(prod.row)
            jj.append(prod.col)
            kk.append(np.full(prod.nnz, int(k), dtype=np.int64))
            vv.append(prod.data)
    else:
        right = S.slice_coo(n_slices - 1).tocsc()
        for k in T.nonzero_slices():
            prod = (T.slice_coo(int(k)).tocsr() @ right).tocoo()
            ii.append(prod.row)
            jj.append(prod.col)
            kk.append(np.full(prod.nnz, int(k), dtype=np.int64))
            vv.append(prod.data)
    if not ii:
        return SparseTensor3.zeros(out_dims)
    return SparseTensor3.from_entries(
        out_dims,
        np.concatenate(ii), np.concatenate(jj),
        np.concatenate(kk), np.concatenate(vv),
    )
