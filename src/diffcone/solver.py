"""Embedded conic solver for problems minimize c'x s.t. b - Ax in K.

The algorithm is operator splitting on the homogeneous self-dual embedding:
each iteration solves (I + Q) u~ = u + v and projects onto R^n x K* x R_+.
With h = (c, b) and Q = [[0, A', c], [-A, 0, b], [-c', -b', 0]],

    I + Q = [[K, h], [-h', 1]],    K = [[I, A'], [-A, I]],

so the system is solved with K alone (SCS's two-solve identity): for
u + v = (w_xi, w_tau),

    tau = (w_tau + h' K^{-1} w_xi) / (1 + h' K^{-1} h),
    xi  = K^{-1} w_xi - tau K^{-1} h,

where h' K^{-1} h = |K^{-1} h|^2 (K = I + skew), so the denominator is at
least 1.  K^{-1} h costs one solve per call.  After Ruiz scaling, A and
hence K depend on A alone, so ``IterationFactor`` (the scaling D, E and
the LU of K) is built once per layer when A does not depend on the
parameters, and once per call otherwise; b, c and h are scaled per call.

K's pattern is symmetric, and every Schur complement of I + skew has
symmetric part >= I, so diagonal pivots are safe: K is factored with a
symmetric minimum-degree ordering of K' + K and no pivoting.  SuperLU's
default COLAMD orders for K'K; on the benchmark's sparse QP (n + m = 1795)
its factors of I + Q held 6.6x the nonzeros.

Because splitting iterations gain accuracy slowly, candidate solutions are
periodically polished by damped Gauss-Newton steps on the normalized
residual map

    N(z) = ((Q - I) Pi + I)(z / |w|),

whose root encodes an exact primal-dual solution; on well-behaved problems
this reaches residuals near machine precision in a few steps.  The
Jacobian of the residual map, M = (Q - I) DPi(z) + I, is ``MOperator``;
the polish and the derivatives module both solve with it.  Statuses for
infeasible and unbounded problems come from certificate residuals on the
embedding iterates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .canon import ConeProgramData
from .cones import (
    dproject_embedding,
    embedding_jacobian,
    embedding_jacobian_diagonal,
    project_dual_cone,
    project_embedding,
)
from .errors import ShapeError, SolverInputError, SolveStatusError

__all__ = [
    "SolverSettings",
    "ConeSolution",
    "MOperator",
    "IterationFactor",
    "solve",
    "normalized_point",
    "residuals",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class SolverSettings:
    max_iters: int = 100_000
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    over_relax: float = 1.5
    normalize: bool = True
    refine: bool = True
    check_interval: int = 25
    refine_interval: int = 250
    refine_steps: int = 10

    def __post_init__(self):
        if self.max_iters <= 0:
            raise ShapeError("max_iters must be positive")
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ShapeError("tolerances must be positive")
        if not 0.0 < self.over_relax < 2.0:
            raise ShapeError("over_relax must lie in (0, 2)")


@dataclass(frozen=True)
class ConeSolution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    info: dict = field(default_factory=dict)


def _block_row_scales(scales: np.ndarray, spec) -> np.ndarray:
    """Make second-order-cone rows share one scale; cone membership of a
    scaled slack requires a uniform positive factor per block."""
    out = scales.copy()
    for start, stop, k, d in spec.soc_runs:
        block = out[start:stop].reshape(k, d)
        block[...] = block.max(axis=1, keepdims=True)
    return out


def _ruiz(A: sp.spmatrix, spec, passes: int = 10):
    """Ruiz equilibration: A_hat = D A E with the row and column scales
    (d, e) that bring A's row and column max-norms near one."""
    A = A.tocoo()
    m, n = A.shape
    d = np.ones(m)
    e = np.ones(n)
    absdata = np.abs(A.data)
    for _ in range(passes):
        scaled = absdata * d[A.row] * e[A.col]
        row_max = np.zeros(m)
        np.maximum.at(row_max, A.row, scaled)
        row_max = _block_row_scales(row_max, spec)
        col_max = np.zeros(n)
        np.maximum.at(col_max, A.col, scaled)
        d /= np.sqrt(np.where(row_max > 0, row_max, 1.0))
        e /= np.sqrt(np.where(col_max > 0, col_max, 1.0))
    A_hat = sp.csr_matrix((A.data * d[A.row] * e[A.col], (A.row, A.col)),
                          shape=(m, n))
    return A_hat, d, e


def _splu_symmetric(S: sp.spmatrix, pivot_threshold: float):
    """splu under a minimum-degree ordering of S' + S with diagonal pivots
    preferred; a zero threshold never pivots off the diagonal."""
    return spla.splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=pivot_threshold,
                     options=dict(SymmetricMode=True))


class IterationFactor:
    """The part of the iteration system that depends on A alone: the Ruiz
    scaling A_hat = D A E (identity scales without ``normalize``) and the LU
    of K = [[I, A_hat'], [-A_hat, I]].

    ``seconds`` holds the build time of the scaling (``equilibrate``) and of
    the LU (``factorize``).
    """

    def __init__(self, A: sp.spmatrix, spec, normalize: bool = True):
        m, n = A.shape
        start = time.perf_counter()
        if normalize:
            self.A, self.d, self.e = _ruiz(A, spec)
        else:
            self.A, self.d, self.e = sp.csr_matrix(A), np.ones(m), np.ones(n)
        scaled = time.perf_counter()
        coo = self.A.tocoo()
        diag = np.arange(n + m)
        K = sp.csc_matrix(
            (np.concatenate([coo.data, -coo.data, np.ones(n + m)]),
             (np.concatenate([coo.col, n + coo.row, diag]),
              np.concatenate([n + coo.row, coo.col, diag]))),
            shape=(n + m, n + m))
        self.lu = _splu_symmetric(K, 0.0)
        self.seconds = {"equilibrate": scaled - start,
                        "factorize": time.perf_counter() - scaled}

    def system(self, h: np.ndarray):
        """The map w -> (I + Q)^{-1} w for Q = [[0, A', c], [-A, 0, b],
        [-c', -b', 0]] with scaled data A_hat and h = (c, b)."""
        lu = self.lu
        kh = lu.solve(h)
        denom = 1.0 + kh @ kh

        def apply(w):
            kw = lu.solve(w[:-1])
            tau = (w[-1] + h @ kw) / denom
            out = np.empty(w.size)
            out[:-1] = kw - tau * kh
            out[-1] = tau
            return out

        return apply


def skew_matrix(data: ConeProgramData) -> sp.csc_matrix:
    """Q = [[0, A', c], [-A, 0, b], [-c', -b', 0]].

    Q = U - U' for the strict upper triangle U = [[0, A', c], [0, 0, b],
    [0, 0, 0]], which is built from A's stored entries and the nonzeros of
    b and c in one sparse constructor call.
    """
    m, n = data.A.shape
    N = n + m + 1
    A = data.A.tocoo()
    ic = np.flatnonzero(data.c)
    ib = np.flatnonzero(data.b)
    rows = np.concatenate([A.col, ic, n + ib])
    cols = np.concatenate([n + A.row, np.full(ic.size + ib.size, N - 1)])
    vals = np.concatenate([A.data, data.c[ic], data.b[ib]])
    return sp.csc_matrix((np.concatenate([vals, -vals]),
                          (np.concatenate([rows, cols]),
                           np.concatenate([cols, rows]))), shape=(N, N))


def residuals(data: ConeProgramData, sol: ConeSolution) -> tuple[float, float, float]:
    """Primal, dual, and gap residual norms of a primal-dual point."""
    pri = float(np.linalg.norm(data.A @ sol.x + sol.s - data.b))
    dua = float(np.linalg.norm(data.A.T @ sol.y + data.c))
    gap = float(abs(data.c @ sol.x + data.b @ sol.y))
    return pri, dua, gap


def _within_tolerance(data, At, x, y, s, eps_abs, eps_rel):
    pri = np.linalg.norm(data.A @ x + s - data.b)
    dua = np.linalg.norm(At @ y + data.c)
    ctx = float(data.c @ x)
    bty = float(data.b @ y)
    gap = abs(ctx + bty)
    ok = (pri <= eps_abs + eps_rel * (1.0 + np.linalg.norm(data.b))
          and dua <= eps_abs + eps_rel * (1.0 + np.linalg.norm(data.c))
          and gap <= eps_abs + eps_rel * (1.0 + abs(ctx) + abs(bty)))
    return ok, (float(pri), float(dua), float(gap))


def _residual_map(z, Q, spec, n):
    zn = z / abs(z[-1]) if z[-1] != 0 else z
    pi = project_embedding(zn, spec, n)
    return Q @ pi - pi + zn


def _jacobian_preconditioner(zc, Q, spec, n):
    """splu of the sparse part of the residual-map Jacobian.

    The full Jacobian is (Q - I) DPi(z) + I minus a rank-one normalization
    term; SOC boundary blocks make DPi dense, but only by a rank-two
    correction per block, so factorizing the diagonal-DPi part gives a
    right preconditioner under which LSQR needs few iterations.
    """
    N = zc.size
    try:
        diag = embedding_jacobian_diagonal(zc, spec, n)
        S = (Q - sp.identity(N)) @ sp.diags(diag) + sp.identity(N)
        # zero diagonals wherever DPi = 1, so pivoting stays possible
        return _splu_symmetric(S, 0.01)
    except (RuntimeError, ValueError):
        return None


class MOperator:
    """Action and adjoint action of M = (Q - I) DPi(z) + I, the Jacobian of
    the residual map u -> Q Pi(u) - Pi(u) + u at z."""

    def __init__(self, Q: sp.spmatrix, spec, z: np.ndarray):
        self.Q = Q
        self.spec = spec
        self.z = np.asarray(z, dtype=float)
        self.size = Q.shape[0]
        self.n = self.size - spec.total_dim - 1
        if self.z.size != self.size:
            raise ShapeError(
                f"z has length {self.z.size}, expected {self.size}")

    def matvec(self, u: np.ndarray) -> np.ndarray:
        p = dproject_embedding(self.z, u, self.spec, self.n)
        return self.Q @ p - p + u

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        # DPi is symmetric and Q' = -Q, so M' u = DPi (-Q u - u) + u.
        w = -(self.Q @ u) - u
        return dproject_embedding(self.z, w, self.spec, self.n) + u

    def materialize(self) -> np.ndarray:
        dpi = embedding_jacobian(self.z, self.spec, self.n)
        eye = np.eye(self.size)
        return (self.Q.toarray() - eye) @ dpi + eye

    def as_linear_operator(self, transpose: bool = False) -> spla.LinearOperator:
        mv = self.rmatvec if transpose else self.matvec
        rmv = self.matvec if transpose else self.rmatvec
        return spla.LinearOperator((self.size, self.size), matvec=mv, rmatvec=rmv)


def _normalized_jacobian(M: MOperator) -> spla.LinearOperator:
    """Jacobian of the normalized residual map z -> N(z / |w|) at a point
    with w = 1: M composed with the normalization I - z e_N'."""
    z = M.z

    def matvec(dz):
        return M.matvec(dz - z * dz[-1])

    def rmatvec(u):
        w = M.rmatvec(u)
        w[-1] -= z @ w
        return w

    return spla.LinearOperator((M.size, M.size), matvec=matvec,
                               rmatvec=rmatvec)


def _refine(z, Q, spec, n, steps, lsqr_iters):
    """Damped Gauss-Newton on the normalized residual map; keeps the best z."""
    z = z / abs(z[-1])
    best = z
    best_norm = np.linalg.norm(_residual_map(z, Q, spec, n))
    N = z.size
    for _ in range(steps):
        r = _residual_map(best, Q, spec, n)
        if best_norm <= 1e-15:
            break
        J = _normalized_jacobian(MOperator(Q, spec, best))
        prec = _jacobian_preconditioner(best, Q, spec, n)
        if prec is None:
            step = spla.lsqr(J, r, atol=1e-14, btol=1e-14,
                             iter_lim=min(lsqr_iters, 1500))[0]
        else:
            op = spla.LinearOperator(
                (N, N),
                matvec=lambda w: J.matvec(prec.solve(w)),
                rmatvec=lambda u: prec.solve(J.rmatvec(u), trans="T"))
            w_sol = spla.lsqr(op, r, atol=1e-14, btol=1e-14, iter_lim=300)[0]
            step = prec.solve(w_sol)
        improved = False
        scale = 1.0
        for _ in range(5):
            cand = best - scale * step
            if cand[-1] <= 1e-12:
                scale *= 0.5
                continue
            cand = cand / abs(cand[-1])
            norm = np.linalg.norm(_residual_map(cand, Q, spec, n))
            if norm < best_norm:
                best, best_norm = cand, norm
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return best


def _solution_from_z(z, spec, n):
    m = spec.total_dim
    w = z[-1]
    u, v = z[:n] / w, z[n:n + m] / w
    y = project_dual_cone(v, spec)
    return u, y, y - v


def _warm_start_point(warm_start, n: int, m: int) -> list[np.ndarray]:
    """A warm start as finite float vectors (x, y, s) of lengths (n, m, m)."""
    try:
        parts = tuple(warm_start)
    except TypeError:
        parts = ()
    if len(parts) != 3:
        raise SolverInputError(
            f"warm start must be an (x, y, s) triple, got {warm_start!r}")
    out = []
    for name, part, size in zip("xys", parts, (n, m, m)):
        try:
            arr = np.asarray(part, dtype=float)
        except (TypeError, ValueError):
            raise SolverInputError(
                f"warm start {name} is not numeric: {part!r}") from None
        if arr.shape != (size,):
            raise SolverInputError(
                f"warm start {name} has shape {arr.shape}, expected ({size},)")
        if not np.all(np.isfinite(arr)):
            raise SolverInputError(f"warm start {name} contains NaN/Inf")
        out.append(arr)
    return out


def solve(data: ConeProgramData, settings: SolverSettings | None = None,
          warm_start: tuple | None = None,
          factor: IterationFactor | None = None) -> ConeSolution:
    """Solve a cone program; never raises on non-optimal outcomes.

    Returns a primal-dual-slack triple with status optimal/infeasible/
    unbounded/max_iters, KKT residuals, iteration counts and per-stage
    ``timings`` in ``info``.  ``factor`` is an ``IterationFactor`` of
    ``data.A`` built earlier by a caller whose A does not change; without
    it one is built here.  A malformed warm start raises
    ``SolverInputError``.  Deterministic given (data, settings, warm_start).
    """
    if settings is None:
        settings = SolverSettings()
    m, n = data.A.shape
    N = n + m + 1
    if warm_start is not None:
        warm_start = _warm_start_point(warm_start, n, m)
    At = data.A.T  # one transpose per solve, shared by every residual check
    spec = data.cones
    clock = time.perf_counter
    start = clock()

    if factor is None:
        factor = IterationFactor(data.A, spec, settings.normalize)
        timings = dict(factor.seconds)
    elif factor.A.shape != (m, n):
        raise ShapeError(f"iteration factor of a {factor.A.shape} matrix "
                         f"given for A of shape {(m, n)}")
    else:
        timings = {"equilibrate": 0.0, "factorize": 0.0}
    scaled = clock()
    dscale, escale = factor.d, factor.e
    b_hat = dscale * data.b
    c_hat = escale * data.c
    sigma = rho = 1.0
    if settings.normalize:
        sigma = max(1.0, float(np.linalg.norm(b_hat)))
        rho = max(1.0, float(np.linalg.norm(c_hat)))
    b_hat = b_hat / sigma
    c_hat = c_hat / rho
    timings["equilibrate"] += clock() - scaled
    looping = clock()

    def unscale(xh, yh, sh):
        return sigma * escale * xh, rho * dscale * yh, sigma * sh / dscale

    lin = factor.system(np.concatenate([c_hat, b_hat]))
    Q = None  # the skew matrix, built when a polish first needs it
    polish_s = 0.0

    u = np.zeros(N)
    v = np.zeros(N)
    u[-1] = 1.0
    if warm_start is not None:
        x0, y0, s0 = warm_start
        u[:n] = x0 / (sigma * escale)
        u[n:n + m] = y0 / (rho * dscale)
        v[n:n + m] = s0 * dscale / sigma

    alpha = settings.over_relax
    best = None  # (residual score, x, y, s, res) in original units
    status = MAX_ITERS
    iters = 0
    polishes = 0
    # polish attempts are exponentially spaced so their total cost stays
    # logarithmic in the iteration count
    next_refine = settings.refine_interval

    def consider(xh, yh, sh):
        nonlocal best, status
        x, y, s = unscale(xh, yh, sh)
        ok, res = _within_tolerance(data, At, x, y, s,
                                    settings.eps_abs, settings.eps_rel)
        score = max(res[0], res[1], res[2])
        if best is None or score < best[0]:
            best = (score, x, y, s, res)
        return ok

    for it in range(1, settings.max_iters + 1):
        iters = it
        u_tilde = lin(u + v)
        u_tilde = alpha * u_tilde + (1 - alpha) * u
        u_new = project_embedding(u_tilde - v, spec, n)
        v = v - u_tilde + u_new
        u = u_new

        if it % settings.check_interval != 0 and it != settings.max_iters:
            continue

        tau = u[-1]
        if tau > 1e-9 * max(1.0, np.linalg.norm(u)):
            xh, yh, sh = u[:n] / tau, u[n:n + m] / tau, v[n:n + m] / tau
            if consider(xh, yh, sh):
                status = OPTIMAL
                break
            do_refine = settings.refine and (
                it >= next_refine or it == settings.max_iters)
            if do_refine:
                polishing = clock()
                next_refine = 2 * it
                if Q is None:
                    Q = skew_matrix(
                        ConeProgramData(factor.A, b_hat, c_hat, spec))
                z = np.concatenate([xh, yh - sh, [1.0]])
                z = _refine(z, Q, spec, n, settings.refine_steps, 4 * N)
                polishes += 1
                polished = consider(*_solution_from_z(z, spec, n))
                polish_s += clock() - polishing
                if polished:
                    status = OPTIMAL
                    break

        # Certificate checks for infeasibility/unboundedness, evaluated in
        # the original units.
        y_cert = rho * dscale * u[n:n + m]
        bty = data.b @ y_cert
        if bty < -1e-12:
            y_cert = y_cert / (-bty)
            if np.linalg.norm(At @ y_cert) <= settings.eps_abs:
                status = INFEASIBLE
                best = (np.inf, np.zeros(n), y_cert, np.zeros(m),
                        (np.nan, np.nan, np.nan))
                break
        x_cert = sigma * escale * u[:n]
        s_cert = sigma * v[n:n + m] / dscale
        ctx = data.c @ x_cert
        if ctx < -1e-12:
            x_cert, s_cert = x_cert / (-ctx), s_cert / (-ctx)
            if np.linalg.norm(data.A @ x_cert + s_cert) <= settings.eps_abs:
                status = UNBOUNDED
                best = (np.inf, x_cert, np.zeros(m), s_cert,
                        (np.nan, np.nan, np.nan))
                break

    timings["iterate"] = clock() - looping - polish_s
    timings["polish"] = polish_s
    if best is None:
        best = (np.inf, np.zeros(n), np.zeros(m), np.zeros(m),
                (np.nan, np.nan, np.nan))
    _, x, y, s, res = best
    elapsed = clock() - start
    info = {"iterations": iters, "solve_time": elapsed, "polishes": polishes,
            "timings": timings}
    if status in (INFEASIBLE, UNBOUNDED):
        return ConeSolution(x=x, y=y, s=s, status=status, info=info)
    sol = ConeSolution(x=x, y=y, s=s, status=status, info={})
    pri, dua, gap = residuals(data, sol)
    info.update(primal_residual=pri, dual_residual=dua, gap_residual=gap)
    return ConeSolution(x=x, y=y, s=s, status=status, info=info)


def normalized_point(sol: ConeSolution) -> np.ndarray:
    """The embedding point z = (x, y - s, 1) of an optimal solution.

    Feeding z through the reconstruction (u, Pi(v), Pi(v) - v) / w recovers
    (x, y, s) because y and s are the Moreau pair of v = y - s.
    """
    if sol.status != OPTIMAL:
        raise SolveStatusError(
            f"normalized point requires an optimal solution, got {sol.status}")
    return np.concatenate([sol.x, sol.y - sol.s, [1.0]])
