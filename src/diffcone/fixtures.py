"""Fixture problems, a random program generator, and independent oracles.

Every oracle here is implemented without touching the solver or the
differentiation code: the simplex projections use the sorted-threshold /
bisection algorithms, equality-constrained QPs solve their KKT system
densely, and small LPs enumerate candidate vertices.  Fixtures carry a
``provenance`` string naming the oracle that pins their expected behavior.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .canon import ConeProgramData
from .cones import ConeSpec
from .errors import DiffconeError, ShapeError
from .expressions import (
    Expression,
    absval,
    constant,
    matmul,
    maximum,
    multiply,
    norm2,
    parameter,
    sum_entries,
    sum_squares,
    variable,
)
from .problem import Problem, eq, ge, le

__all__ = [
    "Fixture",
    "relu_fixture",
    "sparsemax_fixture",
    "constrained_sparsemax_fixture",
    "optnet_qp_fixture",
    "nonneg_least_squares_fixture",
    "ball_constrained_policy_fixture",
    "gradient_fixtures",
    "gen_random_dpp",
    "oracle_simplex_projection",
    "oracle_eq_qp",
    "oracle_lp_vertex",
]


@dataclass(frozen=True)
class Fixture:
    """A named problem plus a sampler and (optionally) an output oracle."""

    name: str
    problem: Problem
    provenance: str
    sample: Callable[[np.random.Generator], dict]
    oracle: Callable[[dict], dict] | None = None
    output: str = ""


# ---------------------------------------------------------------------------
# Oracles

def oracle_simplex_projection(x: np.ndarray, u: np.ndarray | None = None,
                              total: float = 1.0) -> np.ndarray:
    """argmin ||y - x||^2 s.t. sum(y) = total, 0 <= y (<= u when given).

    Unbounded case: sorted-threshold algorithm.  Bounded case: bisection on
    the multiplier of the sum constraint, with y(tau) = clip(x - tau, 0, u).
    """
    x = np.asarray(x, dtype=float).ravel()
    if u is None:
        srt = np.sort(x)[::-1]
        css = np.cumsum(srt) - total
        idx = np.arange(1, x.size + 1)
        cond = srt - css / idx > 0
        rho = int(np.max(idx[cond]))
        tau = css[rho - 1] / rho
        return np.maximum(x - tau, 0.0)
    u = np.asarray(u, dtype=float).ravel()
    if u.shape != x.shape or np.any(u < 0):
        raise ShapeError("bounds must be nonnegative and match x")
    if float(np.sum(u)) < total:
        raise DiffconeError("infeasible bounds: sum(u) < total")
    lo = float(np.min(x - u)) - 1.0
    hi = float(np.max(x)) + 1.0

    def mass(tau):
        return float(np.sum(np.clip(x - tau, 0.0, u)))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) > total:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return np.clip(x - tau, 0.0, u)


def oracle_eq_qp(Q: np.ndarray, q: np.ndarray, A: np.ndarray | None,
                 b: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Equality-constrained QP via a dense KKT solve.

    minimize 0.5 x'Qx + q'x s.t. Ax = b; returns (x, multipliers).
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    if A is None or np.size(A) == 0:
        x = np.linalg.solve(Q, -q)
        return x, np.zeros(0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    meq = A.shape[0]
    kkt = np.block([[Q, A.T], [A, np.zeros((meq, meq))]])
    rhs = np.concatenate([-q, b])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise DiffconeError("singular KKT system") from exc
    return sol[:n], sol[n:]


def oracle_lp_vertex(c: np.ndarray, G: np.ndarray, h: np.ndarray,
                     A: np.ndarray | None = None,
                     b: np.ndarray | None = None) -> np.ndarray:
    """Small-LP oracle: enumerate basic feasible points of

        minimize c'x  s.t.  Gx <= h  (and Ax = b when given)

    by solving every n-subset of active constraints and keeping the best
    feasible candidate.  Intended for a handful of constraints only.
    """
    c = np.asarray(c, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    n = c.size
    rows = [(G[i], h[i]) for i in range(G.shape[0])]
    fixed = []
    if A is not None and np.size(A):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        fixed = [(A[i], b[i]) for i in range(A.shape[0])]
    need = n - len(fixed)
    if need < 0:
        raise DiffconeError("more equalities than variables")
    best, best_val = None, np.inf
    for combo in itertools.combinations(range(len(rows)), need):
        M = np.array([r for r, _ in fixed] + [rows[i][0] for i in combo])
        rhs = np.array([v for _, v in fixed] + [rows[i][1] for i in combo])
        if M.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(G @ x <= h + 1e-9) and (
                not fixed or np.allclose(A @ x, b, atol=1e-9)):
            val = c @ x
            if val < best_val - 1e-12:
                best, best_val = x, val
    if best is None:
        raise DiffconeError("no feasible vertex found")
    return best


# ---------------------------------------------------------------------------
# Fixture problems

def relu_fixture(n: int = 4) -> Fixture:
    x = parameter("x", n)
    y = variable("y", n)
    prob = Problem("minimize", sum_squares(x - y), [ge(y, 0)])

    def sample(rng: np.random.Generator) -> dict:
        # keep entries away from the kink at 0
        v = rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)
        return {"x": v}

    def oracle(values: dict) -> dict:
        return {"y": np.maximum(values["x"], 0.0)}

    return Fixture("relu", prob, "analytic projection onto the orthant",
                   sample, oracle, output="y")


def sparsemax_fixture(n: int = 4) -> Fixture:
    x = parameter("x", n)
    y = variable("y", n)
    prob = Problem("minimize", sum_squares(x - y),
                   [eq(sum_entries(y), 1.0), ge(y, 0), le(y, 1.0)])

    def sample(rng: np.random.Generator) -> dict:
        while True:
            v = rng.normal(0.0, 1.0, n)
            yv = oracle_simplex_projection(v)
            support = yv > 1e-12
            tau = float(np.mean((v - yv)[support]))
            # every coordinate clearly inside or clearly outside the support
            if np.all(np.where(support, yv > 5e-2, v - tau < -5e-2)) \
                    and np.all(yv < 1.0 - 5e-2):
                return {"x": v}

    def oracle(values: dict) -> dict:
        return {"y": oracle_simplex_projection(values["x"])}

    return Fixture("sparsemax", prob, "sorted-threshold simplex projection",
                   sample, oracle, output="y")


def constrained_sparsemax_fixture(n: int = 4) -> Fixture:
    x = parameter("x", n)
    u = parameter("u", n, nonneg=True)
    y = variable("y", n)
    prob = Problem("minimize", sum_squares(x - y),
                   [eq(sum_entries(y), 1.0), ge(y, 0), le(y, u)])

    def sample(rng: np.random.Generator) -> dict:
        while True:
            xv = rng.normal(0.0, 1.0, n)
            uv = rng.uniform(0.3, 0.9, n)
            if np.sum(uv) < 1.2:
                continue
            yv = oracle_simplex_projection(xv, uv)
            onb_low = np.min(np.abs(yv))
            onb_high = np.min(np.abs(uv - yv))
            if min(onb_low, onb_high) > 2e-2:
                return {"x": xv, "u": uv}

    def oracle(values: dict) -> dict:
        return {"y": oracle_simplex_projection(values["x"], values["u"])}

    return Fixture("constrained_sparsemax", prob,
                   "bisection on the bounded simplex projection",
                   sample, oracle, output="y")


def optnet_qp_fixture(n: int = 3, m_eq: int = 1, m_ineq: int = 2) -> Fixture:
    """QP layer: minimize 0.5||Q_sqrt x||^2 + q'x s.t. Ax = b, Gx <= h."""
    q_sqrt = parameter("Q_sqrt", (n, n))
    qv = parameter("q", n)
    a = parameter("A", (m_eq, n))
    b = parameter("b", m_eq)
    g = parameter("G", (m_ineq, n))
    h = parameter("h", m_ineq)
    x = variable("x", n)
    objective = multiply(0.5, sum_squares(q_sqrt @ x)) + matmul(qv, x)
    prob = Problem("minimize", objective, [eq(a @ x, b), le(g @ x, h)])

    def sample(rng: np.random.Generator) -> dict:
        while True:
            qs = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            qvv = rng.standard_normal(n)
            av = rng.standard_normal((m_eq, n))
            bv = rng.standard_normal(m_eq)
            gv = rng.standard_normal((m_ineq, n))
            hv = rng.standard_normal(m_ineq) + 1.0
            vals = {"Q_sqrt": qs, "q": qvv, "A": av, "b": bv, "G": gv, "h": hv}
            Qm = qs.T @ qs
            x0, _ = oracle_eq_qp(Qm, qvv, av, bv)
            slack = hv - gv @ x0
            # want each inequality clearly active or clearly inactive
            if np.min(np.abs(slack)) > 5e-2:
                return vals

    return Fixture("optnet_qp", prob,
                   "KKT solve for the equality-constrained relaxation",
                   sample, None, output="x")


def nonneg_least_squares_fixture(n: int = 2, m: int = 3) -> Fixture:
    """minimize ||Fx - g|| + lam ||x|| s.t. x >= 0."""
    F = parameter("F", (m, n))
    g = parameter("g", m)
    lam = parameter("lam", nonneg=True)
    x = variable("x", n)
    prob = Problem("minimize", norm2(F @ x - g) + lam * norm2(x), [ge(x, 0)])

    def sample(rng: np.random.Generator) -> dict:
        return {
            "F": np.eye(m, n) + 0.3 * rng.standard_normal((m, n)),
            "g": rng.standard_normal(m) + 1.0,
            "lam": float(rng.uniform(0.1, 0.8)),
        }

    return Fixture("nonneg_least_squares", prob,
                   "normal equations at lam = 0 on the free pattern",
                   sample, None, output="x")


def ball_constrained_policy_fixture(n: int = 2, m: int = 3) -> Fixture:
    """Control policy: minimize 0.5||P_sqrt u||^2 + x'y + q'u
    s.t. ||u|| <= 0.5, y = P21 u."""
    xs = parameter("x", n)
    p_sqrt = parameter("P_sqrt", (m, m))
    p21 = parameter("P_21", (n, m))
    qv = parameter("q", m)
    u = variable("u", m)
    y = variable("y", n)
    objective = multiply(0.5, sum_squares(p_sqrt @ u)) + matmul(xs, y) \
        + matmul(qv, u)
    prob = Problem("minimize", objective,
                   [le(norm2(u), 0.5), eq(y, p21 @ u)])

    def sample(rng: np.random.Generator) -> dict:
        while True:
            vals = {
                "x": rng.standard_normal(n),
                "P_sqrt": np.eye(m) + 0.2 * rng.standard_normal((m, m)),
                "P_21": 0.5 * rng.standard_normal((n, m)),
                "q": rng.standard_normal(m),
            }
            Pm = vals["P_sqrt"].T @ vals["P_sqrt"]
            lin = vals["q"] + vals["P_21"].T @ vals["x"]
            u0 = np.linalg.solve(Pm, -lin)
            # keep the ball constraint clearly active or clearly inactive
            if abs(np.linalg.norm(u0) - 0.5) > 5e-2:
                return vals

    return Fixture("ball_constrained_policy", prob,
                   "unconstrained KKT solve to classify the ball constraint",
                   sample, None, output="u")


def gradient_fixtures() -> list[Fixture]:
    """The fixture suite exercised by the gradient acceptance checks."""
    return [
        relu_fixture(),
        sparsemax_fixture(),
        constrained_sparsemax_fixture(),
        optnet_qp_fixture(),
        nonneg_least_squares_fixture(),
        ball_constrained_policy_fixture(),
    ]


def sparse_qp_data(n: int = 1024, m_eq: int | None = None,
                   m_ineq: int | None = None, density: float = 0.01,
                   seed: int = 0) -> ConeProgramData:
    """A feasible sparse QP in cone form, for the sparse smoke tests.

    minimize 0.5 ||R x||^2 + p'x  s.t.  Ax = b, Gx <= h, with R, A, G
    sparse at the given density.  Built at the data level so the large
    instance never routes through the expression tree.
    """
    rng = np.random.default_rng(seed)
    m_eq = n if m_eq is None else m_eq
    m_ineq = n if m_ineq is None else m_ineq
    sampler = rng.standard_normal

    def sprand(rows, cols):
        """1% random entries plus a dominant staggered diagonal.

        The diagonal guarantees row coverage and keeps singular values
        O(1); purely random sparse matrices are badly conditioned and turn
        a smoke fixture into a stress test.
        """
        mat = 0.2 * sp.random(rows, cols, density=density, random_state=rng,
                              data_rvs=sampler, format="csr")
        cover = sp.csr_matrix(
            (rng.uniform(0.9, 1.1, rows) * rng.choice([-1.0, 1.0], rows),
             (np.arange(rows), np.arange(rows) % cols)),
            shape=(rows, cols))
        return (mat + cover).tocsr()

    R = sprand(n, n)
    A = sprand(m_eq, n)
    G = sprand(m_ineq, n)
    # O(1) solution and cost norms keep the homogeneous embedding
    # well-normalized at this scale
    p = rng.standard_normal(n) / np.sqrt(n)
    x0 = rng.standard_normal(n) / np.sqrt(n)
    b = A @ x0
    h = G @ x0 + rng.uniform(0.1, 1.0, m_ineq)
    t_col = n
    eq_rows = sp.hstack([A, sp.csr_matrix((m_eq, 1))])
    ineq_rows = sp.hstack([G, sp.csr_matrix((m_ineq, 1))])
    e_t = sp.csr_matrix(([1.0], ([0], [t_col])), shape=(1, n + 1))
    soc_rows = sp.vstack([-e_t, e_t,
                          sp.hstack([-2.0 * R, sp.csr_matrix((n, 1))])])
    data_A = sp.vstack([eq_rows, ineq_rows, soc_rows]).tocsr()
    data_b = np.concatenate([b, h, [1.0, 1.0], np.zeros(n)])
    c = np.concatenate([p, [0.5]])
    return ConeProgramData(data_A, data_b, c,
                           ConeSpec(m_eq, m_ineq, (2 + n,)))


# ---------------------------------------------------------------------------
# Random program generator

def _random_affine(rng: np.random.Generator, var: Expression,
                   params: list[Expression], depth: int) -> Expression:
    """A random affine expression in one variable with optional parameters."""
    n = var.shape.dims[0]
    choice = rng.integers(0, 5 if depth > 0 else 2)
    if choice == 0:
        M = rng.standard_normal((rng.integers(1, 4), n))
        return constant(M) @ var
    if choice == 1:
        usable = [p for p in params if p.shape.dims == (n,)]
        if usable:
            base = constant(rng.standard_normal((2, n))) @ var
            off = usable[rng.integers(0, len(usable))]
            return base + constant(rng.standard_normal((2, n))) @ off
        return constant(rng.standard_normal(n)) * var
    if choice == 2:
        matp = [p for p in params if p.shape.rank == 2 and p.shape.dims[1] == n]
        if matp:
            return matp[rng.integers(0, len(matp))] @ var
        return constant(rng.standard_normal((2, n))) @ var
    if choice == 3:
        inner = _random_affine(rng, var, params, depth - 1)
        return -inner
    inner = _random_affine(rng, var, params, depth - 1)
    return inner + constant(rng.standard_normal(inner.shape.dims))


def _random_convex_term(rng: np.random.Generator, var: Expression,
                        params: list[Expression], scalars: list[Expression],
                        depth: int) -> Expression:
    affine = _random_affine(rng, var, params, depth)
    kind = rng.integers(0, 4)
    if kind == 0:
        term = norm2(affine)
    elif kind == 1:
        term = sum_squares(affine)
    elif kind == 2:
        term = sum_entries(absval(affine))
    else:
        d = affine.shape.dims if affine.shape.dims else ()
        other = constant(rng.standard_normal(d))
        term = sum_entries(maximum(affine, other))
    scale = rng.integers(0, 3)
    if scale == 0 and scalars and term.parameter_free:
        lam = scalars[rng.integers(0, len(scalars))]
        return lam * term
    if scale == 1:
        return float(rng.uniform(0.1, 2.0)) * term
    return term


def gen_random_dpp(seed: int, n_vars: int = 2, n_params: int = 2,
                   max_terms: int = 3, every_variable: bool = False
                   ) -> Problem:
    """A random valid parametrized program; deterministic per seed.

    Bounded sizes keep dense cross-checks cheap: at most 4 variables,
    3 parameters, and short atom chains.  The objective's terms each take
    a random variable, so a variable may appear nowhere.  With
    ``every_variable`` the objective also holds |F v - g|^2 for each
    declared variable v, with a random square F (of full rank almost
    surely) and g, drawn after the rest of the program, which is the same
    draw as without it: every variable is used, and the objective is
    strictly convex in it.
    """
    rng = np.random.default_rng(seed)
    n_vars = min(max(1, n_vars), 4)
    n_params = min(max(0, n_params), 3)
    variables = [variable(f"v{i}", int(rng.integers(1, 4)))
                 for i in range(n_vars)]
    params: list[Expression] = []
    scalars: list[Expression] = []
    for i in range(n_params):
        k = rng.integers(0, 3)
        if k == 0:
            p = parameter(f"p{i}", nonneg=True)
            scalars.append(p)
        elif k == 1:
            p = parameter(f"p{i}", int(rng.integers(1, 4)))
        else:
            p = parameter(f"p{i}", (int(rng.integers(1, 3)),
                                    int(rng.integers(1, 4))))
        params.append(p)

    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        var = variables[rng.integers(0, len(variables))]
        terms.append(_random_convex_term(rng, var, params, scalars, depth=2))
    objective = terms[0]
    for t in terms[1:]:
        objective = objective + t

    constraints = []
    for _ in range(int(rng.integers(0, 3))):
        var = variables[rng.integers(0, len(variables))]
        affine = _random_affine(rng, var, params, depth=1)
        kind = rng.integers(0, 3)
        d = affine.shape.dims if affine.shape.dims else ()
        rhs = constant(rng.standard_normal(d))
        if kind == 0:
            constraints.append(eq(affine, rhs))
        elif kind == 1:
            constraints.append(le(affine, rhs))
        else:
            cvx = _random_convex_term(rng, var, params, scalars, depth=1)
            constraints.append(le(cvx, float(rng.uniform(0.5, 2.0))))
    if every_variable:
        for var in variables:
            n = var.shape.dims[0]
            objective = objective + sum_squares(
                constant(rng.standard_normal((n, n))) @ var
                - constant(rng.standard_normal(n)))
    return Problem("minimize", objective, constraints,
                   variables=variables, parameters=params)
