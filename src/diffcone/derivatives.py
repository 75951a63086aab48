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
acceptable, and LSQR gives one whenever degeneracy makes M rank deficient,
or so ill-conditioned that its LAPACK factor is not trusted
(``solver.RCOND_MIN``).

The adjoint direction also runs over a batch of programs of one cone and
one pattern of A, as ``solver.solve`` does over a list: the points are
projected as one (B, N) stack, missing factors are built as one
``MFactor.batch``, each program solves with its own factor, and dA (on
A's stored pattern), db and dc are read off the stacked solutions at
once.  A single program is the batch of one, so a batch element's
cotangents equal its lone call's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .canon import ConeProgramData
from .cones import dproject_embedding, project_embedding
from .errors import ShapeError, SolverInputError, SolveStatusError
from .solver import OPTIMAL, ConeSolution, MFactor, _batch_matrices, \
    normalized_point

__all__ = [
    "solve_m_system",
    "adjoint_derivative",
    "forward_derivative",
    "AdjointDerivativeResult",
    "ForwardDerivativeResult",
]


def solve_m_system(factor, rhs: np.ndarray, transpose: bool = False):
    """Solve (M + zhat zhat') g = rhs, or its transpose, with ``factor``.

    M annihilates z at an exact solution (the embedding is scale
    invariant); the deflation zhat zhat' (zhat = z/|z|) removes that null
    direction, leaves the reconstruction unchanged, and keeps forward and
    adjoint solves adjoint to each other.  When the factor failed (``ok``
    False: an exact zero pivot, or a LAPACK factor too ill-conditioned to
    trust, see ``solver.RCOND_MIN``), or its solution leaves a residual
    above 1e-8 (1 + |rhs|), LSQR on the same operator gives a
    least-squares solution.  Returns (g, info); ``info`` holds ``mode``
    ("direct" or "lsqr"), ``fallback``, ``residual`` and ``iterations``
    (LSQR's, 0 on the direct path).

    ``factor`` may also be a list of B factors of one size, with ``rhs`` a
    (B, N) stack: a (B, N) stack of solutions and a list of infos come
    back, row j as ``solve_m_system(factor[j], rhs[j], transpose)``.
    """
    if isinstance(factor, MFactor):
        return _solve(factor, _checked(rhs, (factor.size,), "rhs"),
                      transpose)
    factors = list(factor)
    N = factors[0].size if factors else 0
    if any(f.size != N for f in factors):
        raise ShapeError("the factors of a batch must share their size")
    rhs = _checked(rhs, (len(factors), N), "rhs")
    solved = [_solve(f, r, transpose) for f, r in zip(factors, rhs)]
    return (np.array([g for g, _ in solved]).reshape(rhs.shape),
            [info for _, info in solved])


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a vector, sqrt(v @ v), without its argument
    handling."""
    return math.sqrt(v @ v)


def _solve(factor: MFactor, rhs: np.ndarray, transpose: bool):
    """``solve_m_system`` of one checked right-hand side."""
    N = factor.size
    bound = 1e-8 * (1.0 + _norm(rhs))
    info: dict = {"mode": "direct", "fallback": False, "iterations": 0}
    res = np.inf
    if factor.ok:
        g = factor.solve(rhs, transpose)
        res = _norm(factor.apply(g, transpose) - rhs)
    if not res <= bound:
        op = spla.LinearOperator(
            (N, N), dtype=float, matvec=lambda u: factor.apply(u, transpose),
            rmatvec=lambda u: factor.apply(u, not transpose))
        g, _, itn = spla.lsqr(op, rhs, atol=1e-10, btol=1e-10,
                              iter_lim=10 * N)[:3]
        res = _norm(factor.apply(g, transpose) - rhs)
        info.update(mode="lsqr", fallback=True, iterations=int(itn))
    info["residual"] = res
    return g, info


@dataclass(frozen=True)
class AdjointDerivativeResult:
    """Cotangents on the program data: dA's values on A's stored pattern
    (``dA_data``, in the order of A's stored entries), db and dc.  ``dA``
    is dA as a CSR matrix of that pattern."""

    dA_data: np.ndarray
    db: np.ndarray
    dc: np.ndarray
    info: dict = field(default_factory=dict)
    _pattern: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def dA(self) -> sp.csr_matrix:
        A = self._pattern
        return sp.csr_matrix((self.dA_data, A.indices.copy(),
                              A.indptr.copy()), shape=A.shape)

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


def adjoint_derivative(data, sol, dx: np.ndarray, z=None, factor=None):
    """Cotangent on the primal solution mapped back to (dA, db, dc).

    dA is returned on A's stored pattern.  ``factor``, an ``MFactor(data,
    z)`` built earlier, is reused instead of a new one.  Least-squares
    fallbacks are reported in ``info['fallback']``, never raised.  A
    malformed dx raises ``ShapeError``, a non-finite one
    ``SolverInputError``.

    ``data`` may also be a list of B programs of one cone and one pattern
    of A, with ``sol`` their solutions, ``dx`` a (B, n) stack, and ``z``
    and ``factor`` lists (or None); a list of results comes back, result j
    equal to ``adjoint_derivative(data[j], sol[j], dx[j], z[j],
    factor[j])``.  The batch projects its points once, builds its missing
    factors as one ``MFactor.batch``, solves each program with its own
    factor, and reads dA, db and dc off the stacked solutions at once.
    """
    if isinstance(data, ConeProgramData):
        _require_optimal(sol)
        dx = _checked(dx, (data.A.shape[1],), "dx")
        return adjoint_derivative(
            [data], [sol], dx[None], None if z is None else [z],
            None if factor is None else [factor])[0]
    datas, sols = list(data), list(sol)
    count = len(datas)
    zs = [None] * count if z is None else list(z)
    factors = [None] * count if factor is None else list(factor)
    if not len(sols) == len(zs) == len(factors) == count:
        raise ShapeError(f"{count} programs given with {len(sols)} "
                         f"solutions, {len(zs)} points and {len(factors)} "
                         f"factors")
    if not count:
        return []
    for s in sols:
        _require_optimal(s)
    A = _batch_matrices(datas)[0]
    m, n = A.shape
    # contiguous rows: each x'dx below is the BLAS dot of a lone vector
    dx = np.ascontiguousarray(_checked(dx, (count, n), "dx"))
    Z = np.array([normalized_point(s) if p is None else p
                  for s, p in zip(sols, zs)], dtype=float)
    missing = [j for j, f in enumerate(factors) if f is None]
    for j, f in zip(missing, MFactor.batch([datas[j] for j in missing],
                                           Z[missing])):
        factors[j] = f
    pi = project_embedding(Z, datas[0].cones, n)
    dz = np.zeros(Z.shape)
    dz[:, :n] = dx
    dz[:, -1] = [-float(s.x @ d) for s, d in zip(sols, dx)]
    g, infos = solve_m_system(factors, dz, transpose=True)

    gx, gy, gw = g[:, :n], g[:, n:n + m], g[:, -1:]
    px, py = pi[:, :n], pi[:, n:n + m]
    rows = np.repeat(np.arange(m), np.diff(A.indptr))
    dA = gy[:, rows] * px[:, A.indices] - py[:, rows] * gx[:, A.indices]
    db = gw * py - gy
    dc = gw * px - gx
    return [AdjointDerivativeResult(dA[j], db[j], dc[j], infos[j], A)
            for j in range(count)]


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
