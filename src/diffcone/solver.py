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
its factors of I + Q held 6.6x the nonzeros.  That order depends on A's
pattern alone, which a layer fixes, so ``IterationFactor`` keeps it, and
the lifted M system below is factored under it, extended by a fixed rule,
with no ordering pass of its own.

Because splitting iterations gain accuracy slowly, candidate solutions are
periodically polished by damped Gauss-Newton steps on the normalized
residual map

    N(z) = ((Q - I) Pi + I)(z / |w|),

whose root encodes an exact primal-dual solution; on well-behaved problems
this reaches residuals near machine precision in a few steps.  The
Jacobian of the residual map is M = (Q - I) DPi(z) + I; ``MFactor``
applies and exactly factors its deflated form M + zhat zhat' for the
polish (as a right preconditioner) and for the derivatives module.  A
polish factors it once, at its first point: each later step applies M at
its own point, unfactored, and keeps the first factor as preconditioner,
so the step is still exact Gauss-Newton and only LSQR's iteration count
grows.  It factors again only when that factor is singular or LSQR stops
at its iteration limit on it.
Statuses for infeasible and unbounded problems come from certificate
residuals on the embedding iterates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .canon import ConeProgramData
from .cones import (
    dproject_embedding_parts,
    project_dual_cone,
    project_embedding,
)
from .errors import ShapeError, SolverInputError, SolveStatusError

__all__ = [
    "SolverSettings",
    "ConeSolution",
    "MFactor",
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


def _factor_k(A: sp.spmatrix):
    """The LU of K = [[I, A'], [-A, I]] under a symmetric minimum-degree
    ordering of K' + K with no pivoting, and that order: K's rows in the
    order they are eliminated.  The order is a copy, since ``perm_c`` is a
    view that keeps the whole factor alive."""
    m, n = A.shape
    coo = A.tocoo()
    diag = np.arange(n + m)
    K = sp.csc_matrix(
        (np.concatenate([coo.data, -coo.data, np.ones(n + m)]),
         (np.concatenate([coo.col, n + coo.row, diag]),
          np.concatenate([n + coo.row, coo.col, diag]))),
        shape=(n + m, n + m))
    lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    return lu, np.argsort(lu.perm_c)


class IterationFactor:
    """The part of the iteration system that depends on A alone: the Ruiz
    scaling A_hat = D A E (identity scales without ``normalize``), the LU
    of K = [[I, A_hat'], [-A_hat, I]] and its symmetric elimination
    ``order``, which ``MFactor`` extends to the lifted M system.

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
        self.lu, self.order = _factor_k(self.A)
        self.seconds = {"equilibrate": scaled - start,
                        "factorize": time.perf_counter() - scaled}

    def system(self, h: np.ndarray):
        """The map (w, out) -> (I + Q)^{-1} w, written into ``out``, for
        Q = [[0, A', c], [-A, 0, b], [-c', -b', 0]] with scaled data A_hat
        and h = (c, b)."""
        lu = self.lu
        kh = lu.solve(h)
        denom = 1.0 + kh @ kh

        def apply(w, out):
            kw = lu.solve(w[:-1])
            tau = (w[-1] + h @ kw) / denom
            xi = out[:-1]
            np.multiply(kh, tau, out=xi)
            np.subtract(kw, xi, out=xi)
            out[-1] = tau
            return out

        return apply


def _skew_entries(data: ConeProgramData):
    """(rows, cols, vals) of Q = [[0, A', c], [-A, 0, b], [-c', -b', 0]].

    Q = U - U' for the strict upper triangle U = [[0, A', c], [0, 0, b],
    [0, 0, 0]], taken from A's stored entries and the nonzeros of b and c.
    """
    m, n = data.A.shape
    A = data.A.tocsr()
    ic = np.flatnonzero(data.c)
    ib = np.flatnonzero(data.b)
    rows = np.concatenate([A.indices, ic, n + ib])
    cols = np.concatenate([n + np.repeat(np.arange(m), np.diff(A.indptr)),
                           np.full(ic.size + ib.size, n + m)])
    vals = np.concatenate([A.data, data.c[ic], data.b[ib]])
    return (np.concatenate([rows, cols]), np.concatenate([cols, rows]),
            np.concatenate([vals, -vals]))


def skew_matrix(data: ConeProgramData) -> sp.csc_matrix:
    """Q (see ``_skew_entries``) in one sparse constructor call."""
    rows, cols, vals = _skew_entries(data)
    N = sum(data.A.shape) + 1
    return sp.csc_matrix((vals, (rows, cols)), shape=(N, N))


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


def _splu_lifted(S: sp.csc_matrix):
    """splu of a lifted M system already permuted into its elimination
    order, with diagonal pivots preferred."""
    return spla.splu(S, permc_spec="NATURAL", diag_pivot_thresh=0.01,
                     options=dict(SymmetricMode=True))


def _lifted_places(order, urow, ucol, N, blocks):
    """Position of each row of the lifted matrix (see ``MFactor``) in its
    elimination order: the rows of K keep K's ``order``, the two lift rows
    of a boundary block go right after the last of the block's rows, and
    tau and the zhat edge go last.  Putting every lift row last instead
    raised the fill of a sum of 200 norms tenfold."""
    nk = N - 1
    pos = np.empty(nk, dtype=np.int64)
    pos[order] = np.arange(nk)
    last = np.full(blocks, -1)
    np.maximum.at(last, ucol // 2, pos[urow])
    key = np.concatenate([2 * pos, [2 * nk], 2 * np.repeat(last, 2) + 1,
                          [2 * nk + 1]])
    places = np.empty(key.size, dtype=np.int64)
    places[np.argsort(key, kind="stable")] = np.arange(key.size)
    return places


# LAPACK factors lifted systems up to this order, SuperLU larger ones.  On
# a 2-vCPU x86 host (OpenBLAS on one thread) assembly, factor and one solve
# took 0.24-0.43 ms dense against 0.60-0.86 ms sparse at orders 19-25 (the
# fixture layers); on sums of norms, 0.48-0.81 against 0.57-0.89 ms at
# order 180, 1.12-1.27 against 0.97-1.05 ms at 215, 1.51-1.85 against
# 1.05-1.08 ms at 250 and 2.8-3.2 against 0.94-1.14 ms at 355.
DENSE_ORDER = 200


class MFactor:
    """M + zhat zhat' at z, zhat = z / |z|, for the program ``data``, and
    its exact factor; M = (Q - I) DPi(z) + I is the Jacobian of the
    residual map u -> Q Pi(u) - Pi(u) + u at z.

    With DPi(z) = diag(D) + U C U' (``cones.dproject_embedding_parts``),
    the lifted matrix

        L = [[(Q - I) D + I, (Q - I) U, zhat],
             [C U',          -I,        0   ],
             [zhat',          0,       -1   ]]

    has M + zhat zhat' as the Schur complement of its trailing -I, so a
    solve of L, or of L', gives one with M + zhat zhat', or its transpose.
    L's entries are index arithmetic on those of A, b, c and U: (Q - I) D
    scales Q's entries by D at their column, and (Q - I) U gathers rows of
    A, with no sparse product.

    Orders up to ``DENSE_ORDER`` are factored by LAPACK.  Larger ones are
    factored by SuperLU with no ordering pass: L is assembled already
    permuted, row i at ``places[i]``, under ``order``, the elimination
    order of K = [[I, A'], [-A, I]] that ``IterationFactor`` keeps, which
    depends on A's pattern alone (from ``_factor_k`` when not given); see
    ``_lifted_places``.  ``nnz`` is the factor's stored entries, order**2
    on LAPACK and 0 when SuperLU found an exactly zero pivot.  ``ok`` is
    False when the factor has an exactly zero pivot (either backend);
    callers then fall back to least squares on ``apply``.  The factor
    keeps no pivot-ratio guard: reading U's diagonal out of SuperLU caches
    CSC copies of L and U on the factor.

    With ``factorize`` False, L is only assembled, sparse and unpermuted,
    for ``apply`` (``ok`` False, ``nnz`` 0): the polish applies M at each
    later point of its Gauss-Newton steps this way and preconditions with
    the factor of its first point.
    """

    def __init__(self, data: ConeProgramData, z: np.ndarray,
                 order: np.ndarray | None = None, factorize: bool = True):
        m, n = data.A.shape
        N = self.size = n + m + 1
        self.z = z = np.asarray(z, dtype=float)
        self.zhat = zhat = z / np.linalg.norm(z)
        A = data.A.tocsr()
        D, (urow, ucol, uval), C = dproject_embedding_parts(z, data.cones, n)
        r = 2 * len(C)
        qrow, qcol, qval = _skew_entries(data)
        # (Q - I) U: U's rows are second-order rows n + i, whose columns of
        # Q hold row i of A above -b_i
        i = urow - n
        starts, counts = A.indptr[i], np.diff(A.indptr)[i]
        ends = np.cumsum(counts)
        gather = np.repeat(starts - ends + counts, counts) + np.arange(
            ends[-1] if ends.size else 0)
        # C U': U's entry (j, c) meets both rows of c's 2 x 2 block of C
        block = N + ucol - ucol % 2
        diag, lift, edge = np.arange(N), np.arange(N, N + r), N + r
        rows, cols, vals = (np.concatenate(a) for a in zip(
            (qrow, qcol, qval * D[qcol]),
            (diag, diag, 1.0 - D),
            (A.indices[gather], N + np.repeat(ucol, counts),
             A.data[gather] * np.repeat(uval, counts)),
            (np.full(i.size, N - 1), N + ucol, -data.b[i] * uval),
            (urow, N + ucol, -uval),
            ((block[:, None] + [0, 1]).ravel(), np.repeat(urow, 2),
             (uval[:, None] * C[ucol // 2, :, ucol % 2]).ravel()),
            (lift, lift, np.full(r, -1.0)),
            (diag, np.full(N, edge), zhat),
            (np.full(N, edge), diag, zhat),
            ([edge], [edge], [-1.0])))
        size = self.order = edge + 1
        # _head and _tail: where the rows of M + zhat zhat' and the lift
        # rows sit in the factored matrix
        self._head, self._tail = slice(0, N), slice(N, size)
        if not factorize:
            self._L = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
            self.ok, self.nnz = False, 0
        elif size <= DENSE_ORDER:
            # scattered as L' in C order: L itself in Fortran order
            self._L = np.bincount(cols * size + rows, vals,
                                  size * size).reshape(size, size).T
            lu, piv, info = sla.lapack.dgetrf(self._L)
            self.ok = info == 0  # info > 0: U has an exact zero pivot
            self.nnz = size * size
            self._solve = lambda b, trans: sla.lapack.dgetrs(
                lu, piv, b, trans=int(trans))[0]
        else:
            if order is None:
                order = _factor_k(A)[1]
            elif len(order) != N - 1:
                raise ShapeError(f"order of length {len(order)} given for a "
                                 f"K of order {N - 1}")
            places = self.places = _lifted_places(order, urow, ucol, N,
                                                  len(C))
            self._head, self._tail = places[:N], places[N:]
            self._L = sp.csc_matrix((vals, (places[rows], places[cols])),
                                    shape=(size, size))
            try:
                lu = _splu_lifted(self._L)
            except RuntimeError:  # the factor is exactly singular
                lu = None
            self.ok = lu is not None
            self.nnz = lu.nnz if self.ok else 0
            self._solve = lambda b, trans: lu.solve(b, "T" if trans else "N")

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """g with (M + zhat zhat') g = rhs, or its transpose; needs ``ok``."""
        b = np.zeros(self.order)
        b[self._head] = rhs
        return self._solve(b, transpose)[self._head]

    def apply(self, u: np.ndarray, transpose: bool = False) -> np.ndarray:
        """(M + zhat zhat') u, or its transpose, as L11 u + L12 (L21 u)."""
        head, tail = self._head, self._tail
        L = self._L.T if transpose else self._L
        x = np.zeros(self.order)
        x[head] = u
        y = L @ x
        x[head] = 0.0
        x[tail] = y[tail]
        return y[head] + (L @ x)[head]


def _normalized_jacobian(P: MFactor) -> spla.LinearOperator:
    """Jacobian of the normalized residual map z -> N(z / |w|) at P's point,
    which has w = 1: M composed with the normalization I - z e_N'."""
    z, zhat = P.z, P.zhat

    def matvec(dz):
        v = dz - z * dz[-1]
        return P.apply(v) - zhat * (zhat @ v)

    def rmatvec(u):
        w = P.apply(u, transpose=True) - zhat * (zhat @ u)
        w[-1] -= z @ w
        return w

    return spla.LinearOperator((z.size, z.size), matvec=matvec,
                               rmatvec=rmatvec, dtype=float)


def _gauss_newton_step(J, P, r, lsqr_iters):
    """LSQR's step for the normalized Jacobian J at a point z and residual
    r, and LSQR's stop code (7: iteration limit).  LSQR runs on J P^{-1}
    for the polish's lifted factor P, or on J alone when P is not ``ok``.
    P comes from the polish's first point and preconditions its later
    steps too: J = M (I - z e_N') is P at z up to low rank, and the step
    is the same for any P, up to a multiple of z (J z = 0) that the
    polish's normalization of its candidates removes; only LSQR's
    iteration count depends on how far P's point is from z."""
    if not P.ok:
        return spla.lsqr(J, r, atol=1e-14, btol=1e-14,
                         iter_lim=min(lsqr_iters, 1500))[:2]
    op = spla.LinearOperator(
        J.shape, dtype=float, matvec=lambda w: J.matvec(P.solve(w)),
        rmatvec=lambda u: P.solve(J.rmatvec(u), transpose=True))
    y, istop = spla.lsqr(op, r, atol=1e-14, btol=1e-14, iter_lim=300)[:2]
    return P.solve(y), istop


def _refine(z, data, Q, steps, lsqr_iters, order):
    """Damped Gauss-Newton on the normalized residual map of ``data``
    (whose skew matrix is Q, and K's elimination order ``order``); keeps
    the best z.

    The lifted M factor is built once, at the first point, and kept as the
    preconditioner of every later step, which applies M at its own point
    unfactored.  It is built again, at the current point, only when it is
    not ``ok`` or LSQR stops at its iteration limit on it, and the old one
    is dropped first, so one factor is alive at a time."""
    spec = data.cones
    n = data.A.shape[1]
    z = z / abs(z[-1])
    best = z
    r = _residual_map(z, Q, spec, n)
    best_norm = np.linalg.norm(r)
    P = None  # the polish's lifted factor
    for _ in range(steps):
        if best_norm <= 1e-15:
            break
        istop = 7  # LSQR's code for its iteration limit: factor below
        if P is not None and P.ok:
            J = _normalized_jacobian(MFactor(data, best, factorize=False))
            step, istop = _gauss_newton_step(J, P, r, lsqr_iters)
        if istop == 7:
            P = None  # freed before the next one is built
            P = MFactor(data, best, order)
            step = _gauss_newton_step(_normalized_jacobian(P), P, r,
                                      lsqr_iters)[0]
        improved = False
        scale = 1.0
        for _ in range(5):
            cand = best - scale * step
            if cand[-1] <= 1e-12:
                scale *= 0.5
                continue
            cand = cand / abs(cand[-1])
            r_cand = _residual_map(cand, Q, spec, n)
            norm = np.linalg.norm(r_cand)
            if norm < best_norm:
                best, best_norm, r = cand, norm, r_cand
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
    unbounded/max_iters, KKT residuals, iteration counts, per-stage
    ``timings`` and the program's ``sizes`` in ``info``.  ``factor`` is an
    ``IterationFactor`` of ``data.A`` built earlier by a caller whose A
    does not change; without it one is built here.  A malformed warm
    start raises ``SolverInputError``.  Deterministic given (data,
    settings, warm_start).
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

    # the iteration's vector updates, in place: u_tilde and one buffer
    u_tilde = np.empty(N)
    buf = np.empty(N)
    for it in range(1, settings.max_iters + 1):
        iters = it
        lin(np.add(u, v, out=buf), u_tilde)
        np.multiply(u_tilde, alpha, out=u_tilde)
        np.add(u_tilde, np.multiply(u, 1 - alpha, out=buf), out=u_tilde)
        u_new = project_embedding(np.subtract(u_tilde, v, out=buf), spec, n)
        np.subtract(v, u_tilde, out=v)
        np.add(v, u_new, out=v)
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
                    program = ConeProgramData(factor.A, b_hat, c_hat, spec)
                    Q = skew_matrix(program)
                z = np.concatenate([xh, yh - sh, [1.0]])
                z = _refine(z, program, Q, settings.refine_steps, 4 * N,
                            factor.order)
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
            "timings": timings,
            "sizes": {"n": n, "m": m, "N": N, "zero": spec.n_zero,
                      "nonneg": spec.n_nonneg,
                      "soc_blocks": len(spec.soc_dims),
                      "soc_rows": sum(spec.soc_dims)}}
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
