"""Cone definitions, Euclidean projections, and projection derivatives.

Supported blocks: the zero cone, free space, the nonnegative orthant, and
second-order cones.  Zero and free are each other's duals; the orthant and
second-order cones are self-dual.  The embedding projection maps onto
R^n x K* x R_+, the set used by the homogeneous self-dual embedding.

At nonsmooth points a deterministic subgradient selection is returned: the
orthant uses the strict mask (v > 0), and a second-order cone point with
||x|| = |t| uses the boundary-formula limit.

Run layout.  The rows of K* are laid out as n_zero free rows, n_nonneg
orthant rows, then the second-order blocks in ``soc_dims`` order.
``ConeSpec.soc_runs`` groups the second-order blocks, once per spec, into
maximal runs of k consecutive blocks that share a dimension d, each stored
as ``(start, stop, k, d)`` with row offsets into the cone vector.  Every
operation over K* is one walk of that table (``_walk_runs``), over one
vector or over a (B, N) stack of them, as the solver's batched iteration
projects its B iterates at once:

* the orthant rows and runs with d == 1 (halflines) are flat slices;
* a run of k >= RUN_MIN_BLOCKS blocks is the view
  ``v[start:stop].reshape(k, d)`` (of a stack, its B k blocks as one
  (B k, d) array) and is handled by one vectorised pass (row norms, then
  masks for the interior, polar, apex and boundary cases);
* the blocks of a shorter run, a lone block above all, keep the scalar
  ``_project_soc``/``_dproject_soc`` in the hot projections.  On a
  2-vCPU x86 host the masked pass costs a fixed ~15-25 us against ~4-8 us
  per block on the scalar path, so it loses below about four blocks, and
  problems with one or two second-order blocks call these functions
  hundreds of thousands of times.  Stacked over B vectors, those blocks
  take the vectorised pass once they number RUN_MIN_BLOCKS, with the
  scalar path's norms (``_block_norms``), so each vector's projection is
  the same, bit for bit, whatever B.

``dproject_embedding_parts`` gives the Jacobian of the embedding
projection as a diagonal plus one rank-two term per second-order block on
the boundary mantle, the form the derivative system is factored in.  The
single-block functions ``project``/``dproject`` stay as the reference the
run kernels are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError

__all__ = [
    "ZERO",
    "FREE",
    "NONNEG",
    "SOC",
    "ConeBlock",
    "ConeSpec",
    "dual_block",
    "project",
    "dproject",
    "project_dual_cone",
    "project_embedding",
    "dproject_embedding",
    "dproject_embedding_parts",
    "smooth_margin",
]

ZERO = "zero"
FREE = "free"
NONNEG = "nonneg"
SOC = "soc"

# Shortest run of equal-dimension second-order blocks that the projections
# handle as one vectorised pass; see the module docstring.
RUN_MIN_BLOCKS = 4


@dataclass(frozen=True)
class ConeBlock:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (ZERO, FREE, NONNEG, SOC):
            raise ShapeError(f"unknown cone kind {self.kind!r}")
        if self.dim < 1:
            raise ShapeError(f"cone block dimension must be >= 1, got {self.dim}")


def dual_block(block: ConeBlock) -> ConeBlock:
    if block.kind == ZERO:
        return ConeBlock(FREE, block.dim)
    if block.kind == FREE:
        return ConeBlock(ZERO, block.dim)
    return block  # nonneg and soc are self-dual


@dataclass(frozen=True)
class ConeSpec:
    """Row counts of the cone K = {0}^n_zero x R^n_nonneg_+ x SOC(d1) x ..."""

    n_zero: int = 0
    n_nonneg: int = 0
    soc_dims: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n_zero < 0 or self.n_nonneg < 0:
            raise ShapeError("cone row counts must be nonnegative")
        if any(d < 1 for d in self.soc_dims):
            raise ShapeError("second-order cone dims must be >= 1")

    @property
    def total_dim(self) -> int:
        return self.n_zero + self.n_nonneg + sum(self.soc_dims)

    @cached_property
    def soc_runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """Maximal runs of equal-dimension second-order blocks.

        One ``(start, stop, k, d)`` per run of k consecutive blocks of
        dimension d, with row offsets into the cone vector.
        """
        runs = []
        start = self.n_zero + self.n_nonneg
        for d, group in itertools.groupby(self.soc_dims):
            k = sum(1 for _ in group)
            runs.append((start, start + k * d, k, d))
            start += k * d
        return tuple(runs)

    def blocks(self) -> list[ConeBlock]:
        out = []
        if self.n_zero:
            out.append(ConeBlock(ZERO, self.n_zero))
        if self.n_nonneg:
            out.append(ConeBlock(NONNEG, self.n_nonneg))
        out.extend(ConeBlock(SOC, d) for d in self.soc_dims)
        return out

    def dual_blocks(self) -> list[ConeBlock]:
        return [dual_block(b) for b in self.blocks()]


# ---------------------------------------------------------------------------
# Single-block projections

def _project_soc(v: np.ndarray) -> np.ndarray:
    t, x = v[0], v[1:]
    nx = np.linalg.norm(x)
    if nx <= t:
        return v.copy()
    if nx <= -t:
        return np.zeros_like(v)
    alpha = 0.5 * (t + nx)
    out = np.empty_like(v)
    out[0] = alpha
    out[1:] = (alpha / nx) * x
    return out


def _dproject_soc(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    t, x = v[0], v[1:]
    nx = np.linalg.norm(x)
    if nx < t:
        return dv.copy()
    if nx < -t:
        return np.zeros_like(dv)
    if nx == 0.0:
        # t == 0 as well: apex of the cone; symmetric deterministic selection.
        return 0.5 * dv
    # Boundary formula, also used as the limit on the nonsmooth set nx == |t|.
    u = x / nx
    dt, dx = dv[0], dv[1:]
    ut_dx = float(u @ dx)
    out = np.empty_like(dv)
    out[0] = 0.5 * (dt + ut_dx)
    out[1:] = 0.5 * (dt + ut_dx) * u + (0.5 * (t + nx) / nx) * (dx - ut_dx * u)
    return out


def project(block: ConeBlock, v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the block's cone."""
    v = np.asarray(v, dtype=float)
    if v.shape != (block.dim,):
        raise ShapeError(f"expected vector of length {block.dim}, got {v.shape}")
    if block.kind == ZERO:
        return np.zeros_like(v)
    if block.kind == FREE:
        return v.copy()
    if block.kind == NONNEG:
        return np.maximum(v, 0.0)
    if block.dim == 1:
        return np.maximum(v, 0.0)  # degenerate second-order cone is a halfline
    return _project_soc(v)


def dproject(block: ConeBlock, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Directional derivative of ``project`` at v along dv."""
    v = np.asarray(v, dtype=float)
    dv = np.asarray(dv, dtype=float)
    if v.shape != (block.dim,) or dv.shape != (block.dim,):
        raise ShapeError(f"expected vectors of length {block.dim}")
    if block.kind == ZERO:
        return np.zeros_like(dv)
    if block.kind == FREE:
        return dv.copy()
    if block.kind == NONNEG or block.dim == 1:
        return np.where(v > 0.0, dv, 0.0)
    return _dproject_soc(v, dv)


# ---------------------------------------------------------------------------
# Run kernels: each takes (k, d) views of a run of k blocks, d >= 2

def _run_norms(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cone coordinate t and ||x|| of every block in a run."""
    X = V[:, 1:]
    return V[:, 0], np.sqrt(np.einsum("ij,ij->i", X, X))


def _block_norms(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_run_norms`` with each ||x|| that of ``np.linalg.norm``, the BLAS
    dot of the scalar path: equal to it bit for bit, as the einsum
    reduction is not."""
    X = V[:, 1:]
    return V[:, 0], np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])


def _project_soc_run(V: np.ndarray, norms=_run_norms) -> np.ndarray:
    t, nx = norms(V)
    inside = nx <= t
    polar = nx <= -t
    alpha = 0.5 * (t + nx)
    # the remaining (boundary) rows have nx > |t| >= 0
    scale = np.where(inside, 1.0,
                     np.where(polar, 0.0,
                              alpha / np.where(inside | polar, 1.0, nx)))
    out = V * scale[:, None]
    out[:, 0] = np.where(inside, t, np.where(polar, 0.0, alpha))
    return out


def _boundary_frame(V: np.ndarray, norms=_run_norms):
    """Masks of the derivative's cases and the boundary-formula terms.

    Returns the interior, polar and apex masks as (k, 1) columns (in that
    order of precedence), the unit vectors u = x / ||x|| and the mantle
    factor beta = (t + ||x||) / (2 ||x||) as a (k, 1) column; u and beta
    are finite placeholders on rows that are not boundary rows.
    """
    t, nx = norms(V)
    inside = nx < t
    polar = nx < -t
    apex = nx == 0.0
    safe = np.where(inside | polar | apex, 1.0, nx)
    U = V[:, 1:] / safe[:, None]
    beta = 0.5 * (t + nx) / safe
    return inside[:, None], polar[:, None], apex[:, None], U, beta[:, None]


def _dproject_soc_run(V: np.ndarray, DV: np.ndarray,
                      norms=_run_norms) -> np.ndarray:
    inside, polar, apex, U, beta = _boundary_frame(V, norms)
    dt, DX = DV[:, :1], DV[:, 1:]
    ut_dx = np.einsum("ij,ij->i", U, DX)[:, None]
    a = 0.5 * (dt + ut_dx)
    out = np.empty_like(DV)
    out[:, :1] = a
    out[:, 1:] = a * U + beta * (DX - ut_dx * U)
    return np.where(inside, DV,
                    np.where(polar, 0.0, np.where(apex, 0.5 * DV, out)))


def _margin_soc_run(V: np.ndarray, norms=_run_norms) -> np.ndarray:
    t, nx = norms(V)
    return np.abs(nx - np.abs(t))[:, None]


# ---------------------------------------------------------------------------
# The run-table walk and the operations built on it

def _walk_runs(spec: ConeSpec, off: int, out: np.ndarray, ins: tuple,
               orthant, run, single=None) -> None:
    """Fill the orthant and second-order rows of ``out`` from ``ins``.

    ``out`` and ``ins`` are vectors, or (B, L) stacks of B vectors that
    are walked as one.  Rows are those of K* shifted by ``off``; the free
    rows are left to the caller.  ``orthant`` gets the orthant rows and
    d == 1 runs, ``run`` gets each run's blocks of every vector stacked as
    a (B k, d) array and the function of its norms, ``norms``.
    ``single``, when given, replaces ``run`` on the blocks of runs shorter
    than RUN_MIN_BLOCKS, one 1-D block at a time, while they number fewer
    than RUN_MIN_BLOCKS over the stack; above that ``run`` takes them with
    ``norms=_block_norms``, so that ``_project_soc_run`` agrees with
    ``_project_soc`` bit for bit.
    """
    lead = out.shape[:-1]  # () for a vector, (B,) for a stack
    rows = lead[0] if lead else 1
    lo = off + spec.n_zero
    hi = lo + spec.n_nonneg
    if hi > lo:
        out[..., lo:hi] = orthant(*(a[..., lo:hi] for a in ins))
    for start, stop, k, d in spec.soc_runs:
        seg = slice(off + start, off + stop)
        if d == 1:
            out[..., seg] = orthant(*(a[..., seg] for a in ins))
            continue
        if k >= RUN_MIN_BLOCKS or single is None:
            norms = _run_norms
        elif rows * k >= RUN_MIN_BLOCKS:
            norms = _block_norms  # the scalar path's norms
        else:
            for r in range(rows):
                row = (r,) if lead else ()
                for b in range(off + start, off + stop, d):
                    block = row + (slice(b, b + d),)
                    out[block] = single(*(a[block] for a in ins))
            continue
        blocks = run(*(a[..., seg].reshape(rows * k, d) for a in ins),
                     norms=norms)
        if lead:
            # splitting the last axis is a view, also of a strided stack
            out[..., seg].reshape(rows, k, d)[...] = blocks.reshape(
                rows, k, -1)
        else:
            out[seg].reshape(k, d)[...] = blocks


def _clamp(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def _dclamp(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    return np.where(v > 0.0, dv, 0.0)


def _check_length(v: np.ndarray, size: int) -> None:
    if v.size != size:
        raise ShapeError(f"expected length {size}, got {v.size}")


def project_dual_cone(v: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """Projection of an m-vector onto K*."""
    v = np.asarray(v, dtype=float)
    _check_length(v, spec.total_dim)
    out = np.empty_like(v)
    out[:spec.n_zero] = v[:spec.n_zero]
    _walk_runs(spec, 0, out, (v,), _clamp, _project_soc_run, _project_soc)
    return out


def project_embedding(z: np.ndarray, spec: ConeSpec, n: int) -> np.ndarray:
    """Projection onto R^n x K* x R_+ (the embedding's product set) of a
    vector, or of each row of a (B, N) stack."""
    z = np.asarray(z, dtype=float)
    m = spec.total_dim
    if z.ndim not in (1, 2) or z.shape[-1] != n + m + 1:
        raise ShapeError(f"expected vectors of length {n + m + 1}, got an "
                         f"array of shape {z.shape}")
    out = np.empty_like(z)
    free = n + spec.n_zero
    out[..., :free] = z[..., :free]
    _walk_runs(spec, n, out, (z,), _clamp, _project_soc_run, _project_soc)
    if z.ndim == 1:
        out[-1] = max(z[-1], 0.0)
    else:
        np.maximum(z[:, -1], 0.0, out=out[:, -1])
    return out


def dproject_embedding(z: np.ndarray, dz: np.ndarray, spec: ConeSpec, n: int) -> np.ndarray:
    """Directional derivative of ``project_embedding`` at z along dz; or,
    for (B, N) stacks z and dz, of each row of z along its row of dz, each
    row's bit for bit whatever the other rows."""
    z = np.asarray(z, dtype=float)
    dz = np.asarray(dz, dtype=float)
    N = n + spec.total_dim + 1
    if z.ndim not in (1, 2) or z.shape[-1] != N or dz.shape != z.shape:
        raise ShapeError(f"expected vectors of length {N}, got arrays of "
                         f"shapes {z.shape} and {dz.shape}")
    out = np.empty_like(dz)
    free = n + spec.n_zero
    out[..., :free] = dz[..., :free]
    _walk_runs(spec, n, out, (z, dz), _dclamp, _dproject_soc_run,
               _dproject_soc)
    out[..., -1] = np.where(z[..., -1] > 0.0, dz[..., -1], 0.0)
    return out


def dproject_embedding_parts(z: np.ndarray, spec: ConeSpec, n: int):
    """DPi(z) = diag(D) + U C U', one rank-two term per second-order block
    on the boundary mantle.

    D is 1 on free rows, the strict mask v > 0 on orthant rows, d == 1
    blocks and w, and on a second-order block 1 (interior), 0 (polar), 1/2
    (apex) or the block's mantle factor beta (boundary, including the limit
    ||x|| = |t|).  U is N x 2k for k boundary blocks, given as COO entries
    ``(rows, cols, vals)``: columns 2j and 2j + 1 are e_t and (0, x/||x||)
    on block j's rows.  C, block diagonal, is given as its (k, 2, 2) blocks
    [[1/2 - beta, 1/2], [1/2, 1/2 - beta]].  z is one vector of length N.
    """
    z = np.asarray(z, dtype=float)
    N = n + spec.total_dim + 1
    if z.shape != (N,):
        raise ShapeError(f"expected a vector of length {N}, got an array of "
                         f"shape {z.shape}")
    D = np.ones(N)
    lo = n + spec.n_zero
    D[lo:lo + spec.n_nonneg] = z[lo:lo + spec.n_nonneg] > 0.0
    D[-1] = z[-1] > 0.0
    # per run: the rows, columns and U values of its boundary blocks, and
    # each block's beta; blocks are numbered run by run
    rows, cols, vals, betas = [np.zeros(0, dtype=np.int64)], [
        np.zeros(0, dtype=np.int64)], [np.zeros(0)], [np.zeros(0)]
    blocks = 0
    for start, stop, run, d in spec.soc_runs:
        seg = slice(n + start, n + stop)
        if d == 1:
            D[seg] = z[seg] > 0.0
            continue
        inside, polar, apex, U, beta = _boundary_frame(z[seg].reshape(run, d))
        D[seg].reshape(run, d)[...] = np.where(
            inside, 1.0, np.where(polar, 0.0, np.where(apex, 0.5, beta)))
        edge = np.flatnonzero(~(inside | polar | apex))
        rows.append((n + start + d * edge)[:, None] + np.arange(d))
        cols.append(2 * (blocks + np.arange(edge.size))[:, None]
                    + (np.arange(d) > 0))
        vals.append(np.concatenate([np.ones((edge.size, 1)), U[edge]], 1))
        betas.append(beta[edge, 0])
        blocks += edge.size
    rows, cols, vals = (np.concatenate([a.ravel() for a in parts])
                        for parts in (rows, cols, vals))
    beta = np.concatenate(betas)
    C = np.full((beta.size, 2, 2), 0.5)
    C[:, 0, 0] = C[:, 1, 1] = 0.5 - beta
    return D, (rows, cols, vals), C


def smooth_margin(z: np.ndarray, spec: ConeSpec, n: int) -> float:
    """Distance of z from the nonsmooth set of the embedding projection.

    Positive margins mean every dual-cone block sits strictly inside a
    differentiability region: orthant entries away from 0, second-order
    blocks away from the ||x|| = |t| boundary pair, and w away from 0.
    """
    z = np.asarray(z, dtype=float)
    m = spec.total_dim
    _check_length(z, n + m + 1)
    rows = np.full(n + m + 1, np.inf)
    rows[n + m] = abs(z[n + m])
    _walk_runs(spec, n, rows, (z,), np.abs, _margin_soc_run)
    return float(rows.min())
