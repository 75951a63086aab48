"""Forward and adjoint derivatives of the conic solution map.

Both directions differentiate the normalized residual map of the
homogeneous self-dual embedding implicitly: with z the solver's normalized
point, Pi the projection onto R^n x K* x R_+, and

    M = (Q - I) DPi(z) + I,

a forward perturbation (dA, db, dc) induces dz = -M^{-1} (dQ Pi(z)) and an
output cotangent dx induces g = M^{-T} (dx, 0, -x'dx), from which the data
cotangents are read off the skew structure.  At an exact solution M is
singular along z itself (the embedding is scale invariant) but the
reconstruction map is constant along that ray, so both directions solve
with the exact factor of M + zhat zhat'; least-squares solutions are also
acceptable, and LSQR gives one whenever degeneracy makes M rank deficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .canon import ConeProgramData
from .cones import dproject_embedding, project_embedding
from .errors import ShapeError, SolverInputError, SolveStatusError
from .solver import OPTIMAL, ConeSolution, MFactor, normalized_point

__all__ = [
    "solve_m_system",
    "adjoint_derivative",
    "forward_derivative",
    "AdjointDerivativeResult",
    "ForwardDerivativeResult",
]


def solve_m_system(factor: MFactor, rhs: np.ndarray,
                   transpose: bool = False) -> tuple[np.ndarray, dict]:
    """Solve (M + zhat zhat') g = rhs, or its transpose, with ``factor``.

    M annihilates z at an exact solution (the embedding is scale
    invariant); the deflation zhat zhat' (zhat = z/|z|) removes that null
    direction, leaves the reconstruction unchanged, and keeps forward and
    adjoint solves adjoint to each other.  When the factor failed, or its
    solution leaves a residual above 1e-8 (1 + |rhs|), LSQR on the same
    operator gives a least-squares solution.  ``info`` holds ``mode``
    ("direct" or "lsqr"), ``fallback``, ``residual`` and ``iterations``
    (LSQR's, 0 on the direct path).
    """
    N = factor.size
    rhs = _checked(rhs, (N,), "rhs")
    bound = 1e-8 * (1.0 + np.linalg.norm(rhs))
    info: dict = {"mode": "direct", "fallback": False, "iterations": 0}
    res = np.inf
    if factor.ok:
        g = factor.solve(rhs, transpose)
        res = float(np.linalg.norm(factor.apply(g, transpose) - rhs))
    if not res <= bound:
        op = spla.LinearOperator(
            (N, N), dtype=float, matvec=lambda u: factor.apply(u, transpose),
            rmatvec=lambda u: factor.apply(u, not transpose))
        g, _, itn = spla.lsqr(op, rhs, atol=1e-10, btol=1e-10,
                              iter_lim=10 * N)[:3]
        res = float(np.linalg.norm(factor.apply(g, transpose) - rhs))
        info.update(mode="lsqr", fallback=True, iterations=int(itn))
    info["residual"] = res
    return g, info


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


def _checked(value, shape: tuple, name: str):
    """``value`` as a finite float array (CSR when sparse) of ``shape``."""
    try:
        arr = value.tocsr() if sp.issparse(value) else \
            np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ShapeError(f"{name} is not a numeric array") from None
    if arr.shape != shape:
        raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr.data if sp.issparse(arr) else arr)):
        raise SolverInputError(f"{name} contains NaN/Inf")
    return arr


def adjoint_derivative(data: ConeProgramData, sol: ConeSolution,
                       dx: np.ndarray, z: np.ndarray | None = None,
                       factor: MFactor | None = None
                       ) -> AdjointDerivativeResult:
    """Cotangent on the primal solution mapped back to (dA, db, dc).

    dA is returned on A's structural sparsity pattern only.  ``factor``,
    an ``MFactor(data, z)`` built earlier, is reused instead of a new one.
    Least-squares fallbacks are reported in ``info['fallback']``, never
    raised.  A malformed dx raises ``ShapeError``, a non-finite one
    ``SolverInputError``.
    """
    _require_optimal(sol)
    m, n = data.A.shape
    dx = _checked(dx, (n,), "dx")
    if z is None:
        z = normalized_point(sol)
    if factor is None:
        factor = MFactor(data, z)
    pi = project_embedding(z, data.cones, n)
    dz = np.concatenate([dx, np.zeros(m), [-float(sol.x @ dx)]])
    g, info = solve_m_system(factor, dz, transpose=True)

    gx, gy, gw = g[:n], g[n:n + m], g[-1]
    px, py = pi[:n], pi[n:n + m]
    rows, cols = data.A.nonzero()
    vals = gy[rows] * px[cols] - py[rows] * gx[cols]
    dA = sp.csr_matrix((vals, (rows, cols)), shape=data.A.shape)
    db = gw * py - gy
    dc = gw * px - gx
    return AdjointDerivativeResult(dA=dA, db=db, dc=dc, info=info)


def forward_derivative(data: ConeProgramData, sol: ConeSolution,
                       dA, db, dc, z: np.ndarray | None = None,
                       factor: MFactor | None = None
                       ) -> ForwardDerivativeResult:
    """Directional derivative of (x, y, s) along a data perturbation;
    ``factor`` and the errors are as in ``adjoint_derivative``."""
    _require_optimal(sol)
    m, n = data.A.shape
    dA = sp.csr_matrix(_checked(dA, (m, n), "dA"))
    db = _checked(db, (m,), "db")
    dc = _checked(dc, (n,), "dc")
    if z is None:
        z = normalized_point(sol)
    if factor is None:
        factor = MFactor(data, z)
    pi = project_embedding(z, data.cones, n)

    px, py, pw = pi[:n], pi[n:n + m], pi[-1]
    rhs = np.empty(n + m + 1)
    rhs[:n] = dA.T @ py + dc * pw
    rhs[n:n + m] = -(dA @ px) + db * pw
    rhs[-1] = -(dc @ px) - (db @ py)
    dz, info = solve_m_system(factor, -rhs)
    dz -= (z @ dz) / (z @ z) * z  # the reconstruction is invariant along z

    du, dv, dw = dz[:n], dz[n:n + m], dz[-1]
    dpi_v = dproject_embedding(z, dz, data.cones, n)[n:n + m]
    dx = du - sol.x * dw
    dy = dpi_v - sol.y * dw
    ds = (dpi_v - dv) - sol.s * dw
    return ForwardDerivativeResult(dx=dx, dy=dy, ds=ds, info=info)
