"""Forward and adjoint derivatives of the conic solution map.

Both directions differentiate the normalized residual map of the
homogeneous self-dual embedding implicitly: with z the solver's normalized
point, Pi the projection onto R^n x K* x R_+, and

    M = (Q - I) DPi(z) + I    (``solver.MOperator``),

a forward perturbation (dA, db, dc) induces dz = -M^{-1} (dQ Pi(z)) and an
output cotangent dx induces g = M^{-T} (dx, 0, -x'dx), from which the data
cotangents are read off the skew structure.  At an exact solution M is
singular along z itself (the embedding is scale invariant) but the
reconstruction map is constant along that ray, so least-squares solutions
are always acceptable; they are also the advertised fallback whenever
degeneracy makes M rank deficient in other directions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs

from .canon import ConeProgramData
from .cones import dproject_dual_cone, project_embedding
from .errors import ShapeError, SolveStatusError
from .solver import OPTIMAL, ConeSolution, MOperator, normalized_point, skew_matrix

__all__ = [
    "solve_m_system",
    "adjoint_derivative",
    "forward_derivative",
    "AdjointDerivativeResult",
    "ForwardDerivativeResult",
    "DIRECT_LIMIT",
]

DIRECT_LIMIT = 512  # direct dense solve below this size, LSQR above


def solve_m_system(M: MOperator, rhs: np.ndarray, mode: str = "auto",
                   transpose: bool = False,
                   deflate: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Solve M g = rhs (or M' g = rhs), falling back to least squares.

    Direct mode materializes M and back-solves; a singular factorization or
    an untrustworthy solve triggers a least-squares fallback.  Iterative
    mode runs LSQR, which already minimizes the residual.  Returns the
    solution plus metadata: mode used, fallback flag, and final residual.

    ``deflate`` names a known (near-)null direction of M -- at an exact
    solution M annihilates z itself because the embedding is scale
    invariant.  The system is then solved with M + zz'/|z|^2 instead, which
    is nonsingular in that direction, leaves the reconstruction unchanged,
    and keeps forward and adjoint solves exactly adjoint to each other.
    """
    rhs = np.asarray(rhs, dtype=float)
    N = M.size
    if rhs.shape != (N,):
        raise ShapeError(f"rhs has length {rhs.shape}, expected {N}")
    if mode == "auto":
        mode = "direct" if N <= DIRECT_LIMIT else "iterative"
    if mode not in ("direct", "iterative"):
        raise ShapeError(f"unknown mode {mode!r}")
    zhat = None
    if deflate is not None:
        nz = np.linalg.norm(deflate)
        if nz > 0:
            zhat = deflate / nz

    info: dict = {"mode": mode, "fallback": False}
    if mode == "direct":
        mat = M.materialize()
        if zhat is not None:
            mat = mat + np.outer(zhat, zhat)
        if transpose:
            mat = mat.T
        rhs_norm = np.linalg.norm(rhs)
        g = None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # exact-zero-pivot warning
                lu, piv = sla.lu_factor(mat)
            gecon = get_lapack_funcs("gecon", (mat,))
            rcond = gecon(lu, np.linalg.norm(mat, 1))[0]
            if np.isfinite(rcond) and rcond > 1e-12:
                g = sla.lu_solve((lu, piv), rhs)
        except (np.linalg.LinAlgError, ValueError):
            g = None
        if g is not None:
            res = np.linalg.norm(mat @ g - rhs)
            if not np.all(np.isfinite(g)) or res > 1e-8 * (1.0 + rhs_norm):
                g = None
        if g is None:
            g = np.linalg.lstsq(mat, rhs, rcond=None)[0]
            info["fallback"] = True
        info["residual"] = float(np.linalg.norm(mat @ g - rhs))
        return g, info

    base = M.as_linear_operator(transpose=transpose)
    if zhat is None:
        op = base
    else:
        def mv(u):
            return base.matvec(u) + zhat * (zhat @ u)

        def rmv(u):
            return base.rmatvec(u) + zhat * (zhat @ u)

        op = spla.LinearOperator((N, N), matvec=mv, rmatvec=rmv)
    iter_lim = 10 * N
    result = spla.lsqr(op, rhs, atol=1e-10, btol=1e-10, iter_lim=iter_lim)
    g, istop, itn = result[0], result[1], result[2]
    res = float(np.linalg.norm(op.matvec(g) - rhs))
    # istop 2/5 mean LSQR decided the system is inconsistent and returned a
    # least-squares answer; 7 means the iteration cap was hit.
    info["fallback"] = istop in (2, 5, 7)
    info["converged"] = istop not in (7,)
    info["iterations"] = int(itn)
    info["residual"] = res
    return g, info


def _deflate_along_z(vec: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Remove the component along z; the reconstruction is invariant to it."""
    denom = float(z @ z)
    if denom == 0.0:
        return vec
    return vec - (float(z @ vec) / denom) * z


@dataclass(frozen=True)
class AdjointDerivativeResult:
    dA: sp.csr_matrix
    db: np.ndarray
    dc: np.ndarray
    info: dict = field(default_factory=dict)

    def __iter__(self):
        return iter((self.dA, self.db, self.dc))


@dataclass(frozen=True)
class ForwardDerivativeResult:
    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    info: dict = field(default_factory=dict)

    def __iter__(self):
        return iter((self.dx, self.dy, self.ds))


def _require_optimal(sol: ConeSolution):
    if sol.status != OPTIMAL:
        raise SolveStatusError(
            f"derivatives require an optimal solution, got {sol.status}")


def adjoint_derivative(data: ConeProgramData, sol: ConeSolution,
                       dx: np.ndarray, mode: str = "auto",
                       z: np.ndarray | None = None) -> AdjointDerivativeResult:
    """Cotangent on the primal solution mapped back to (dA, db, dc).

    dA is returned on A's structural sparsity pattern only.  Least-squares
    fallbacks are reported in ``info['fallback']``, never raised.
    """
    _require_optimal(sol)
    m, n = data.A.shape
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (n,):
        raise ShapeError(f"dx has length {dx.shape}, expected {n}")
    if z is None:
        z = normalized_point(sol)
    M = MOperator(skew_matrix(data), data.cones, z)
    pi = project_embedding(z, data.cones, n)
    dz = np.concatenate([dx, np.zeros(m), [-float(sol.x @ dx)]])
    g, info = solve_m_system(M, dz, mode=mode, transpose=True, deflate=z)

    gx, gy, gw = g[:n], g[n:n + m], g[-1]
    px, py = pi[:n], pi[n:n + m]
    rows, cols = data.A.nonzero()
    vals = gy[rows] * px[cols] - py[rows] * gx[cols]
    dA = sp.csr_matrix((vals, (rows, cols)), shape=data.A.shape)
    db = gw * py - gy
    dc = gw * px - gx
    return AdjointDerivativeResult(dA=dA, db=db, dc=dc, info=info)


def forward_derivative(data: ConeProgramData, sol: ConeSolution,
                       dA, db, dc, mode: str = "auto",
                       z: np.ndarray | None = None) -> ForwardDerivativeResult:
    """Directional derivative of (x, y, s) along a data perturbation."""
    _require_optimal(sol)
    m, n = data.A.shape
    dA = dA.tocsr() if sp.issparse(dA) else sp.csr_matrix(np.asarray(dA, dtype=float))
    db = np.asarray(db, dtype=float)
    dc = np.asarray(dc, dtype=float)
    if dA.shape != (m, n) or db.shape != (m,) or dc.shape != (n,):
        raise ShapeError("perturbation dims do not match the problem data")
    if z is None:
        z = normalized_point(sol)
    M = MOperator(skew_matrix(data), data.cones, z)
    pi = project_embedding(z, data.cones, n)

    px, py, pw = pi[:n], pi[n:n + m], pi[-1]
    rhs = np.empty(n + m + 1)
    rhs[:n] = dA.T @ py + dc * pw
    rhs[n:n + m] = -(dA @ px) + db * pw
    rhs[-1] = -(dc @ px) - (db @ py)
    dz, info = solve_m_system(M, -rhs, mode=mode, deflate=z)
    dz = _deflate_along_z(dz, z)

    v = z[n:n + m]
    du, dv, dw = dz[:n], dz[n:n + m], dz[-1]
    dpi_v = dproject_dual_cone(v, dv, data.cones)
    dx = du - sol.x * dw
    dy = dpi_v - sol.y * dw
    ds = (dpi_v - dv) - sol.s * dw
    return ForwardDerivativeResult(dx=dx, dy=dy, ds=ds, info=info)
