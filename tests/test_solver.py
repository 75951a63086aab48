"""Solver correctness against analytic and enumeration oracles."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TIGHT, assert_same_solve
from diffcone import Layer, solver
from diffcone.canon import ConeProgramData
from diffcone.cones import (
    ConeSpec,
    project_dual_cone,
    project_embedding,
    smooth_margin,
)
from diffcone.errors import ShapeError, SolveStatusError, SolverInputError
from diffcone.fixtures import (
    gen_random_dpp,
    gradient_fixtures,
    nonneg_least_squares_fixture,
    oracle_eq_qp,
    oracle_lp_vertex,
    relu_fixture,
    sparse_qp_data,
)
from diffcone.solver import (
    IterationFactor,
    MFactor,
    Pattern,
    SolverSettings,
    normalized_point,
    residuals,
    skew_matrix,
    solve,
)


def lp_data(c, G, h, A=None, b=None):
    """Cone data for minimize c'x s.t. Gx <= h (, Ax = b)."""
    G = np.atleast_2d(G)
    parts_A, parts_b = [], []
    n_zero = 0
    if A is not None and np.size(A):
        A = np.atleast_2d(A)
        parts_A.append(A)
        parts_b.append(np.atleast_1d(b))
        n_zero = A.shape[0]
    parts_A.append(G)
    parts_b.append(np.atleast_1d(h))
    data_A = sp.csr_matrix(np.vstack(parts_A))
    return ConeProgramData(data_A, np.concatenate(parts_b),
                           np.asarray(c, dtype=float),
                           ConeSpec(n_zero, G.shape[0], ()))


class TestOneDimensionalLp:
    """minimize x s.t. x >= 2: solution x = 2 with multiplier 1."""

    def data(self):
        return ConeProgramData(sp.csr_matrix(np.array([[-1.0]])),
                               np.array([-2.0]), np.array([1.0]),
                               ConeSpec(0, 1, ()))

    def test_solution_and_dual(self):
        sol = solve(self.data(), TIGHT)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [2.0], atol=1e-8)
        np.testing.assert_allclose(sol.y, [1.0], atol=1e-8)
        np.testing.assert_allclose(sol.s, [0.0], atol=1e-8)

    def test_normalized_point(self):
        sol = solve(self.data(), TIGHT)
        z = normalized_point(sol)
        np.testing.assert_allclose(z, [2.0, 1.0, 1.0], atol=1e-8)

    def test_reconstruction_roundtrip(self):
        sol = solve(self.data(), TIGHT)
        z = normalized_point(sol)
        spec = self.data().cones
        pz = project_embedding(z, spec, 1)
        x = z[:1]
        y = pz[1:2]
        s = pz[1:2] - z[1:2]
        np.testing.assert_allclose(x, sol.x, atol=1e-9)
        np.testing.assert_allclose(y, sol.y, atol=1e-9)
        np.testing.assert_allclose(s, sol.s, atol=1e-9)


class TestLpAgainstVertexOracle:
    def test_random_small_lps(self, rng):
        solved = 0
        attempts = 0
        while solved < 8 and attempts < 60:
            attempts += 1
            n, mi = 2, 5
            G = rng.standard_normal((mi, n))
            h = G @ rng.standard_normal(n) + rng.uniform(0.2, 1.5, mi)
            c = rng.standard_normal(n)
            # box the problem so it is bounded
            G = np.vstack([G, np.eye(n), -np.eye(n)])
            h = np.concatenate([h, np.full(2 * n, 10.0)])
            data = lp_data(c, G, h)
            sol = solve(data, TIGHT)
            if sol.status != "optimal":
                continue
            want = oracle_lp_vertex(c, G, h)
            np.testing.assert_allclose(sol.x, want, atol=1e-5)
            solved += 1
        assert solved == 8

    def test_lp_with_equality(self, rng):
        c = np.array([1.0, 2.0, -1.0])
        A = np.array([[1.0, 1.0, 1.0]])
        b = np.array([1.0])
        G = np.vstack([np.eye(3), -np.eye(3)])
        h = np.concatenate([np.full(3, 2.0), np.full(3, 2.0)])
        data = lp_data(c, G, h, A, b)
        sol = solve(data, TIGHT)
        assert sol.status == "optimal"
        want = oracle_lp_vertex(c, G, h, A, b)
        np.testing.assert_allclose(sol.x, want, atol=1e-5)


class TestQpAgainstKktOracle:
    def test_equality_constrained_qps(self, rng):
        """minimize 0.5||x||^2 - q'x s.t. Ax = b via second-order encoding."""
        for _ in range(5):
            n, meq = 3, 1
            q = rng.standard_normal(n)
            A = rng.standard_normal((meq, n))
            b = rng.standard_normal(meq)
            x_want, _ = oracle_eq_qp(np.eye(n), -q, A, b)
            # cone form: minimize t s.t. Ax = b, (1+t, 1-t, 2(x-q)/sqrt2...)
            # use t >= ||x - q||^2 so argmin matches the KKT oracle
            t_col = n
            rows_eq = np.hstack([A, np.zeros((meq, 1))])
            soc = np.zeros((2 + n, n + 1))
            soc[0, t_col] = -1.0
            soc[1, t_col] = 1.0
            soc[2:, :n] = -2.0 * np.eye(n)
            bvec = np.concatenate([b, [1.0, 1.0], -2.0 * q])
            data = ConeProgramData(
                sp.csr_matrix(np.vstack([rows_eq, soc])), bvec,
                np.concatenate([np.zeros(n), [1.0]]),
                ConeSpec(meq, 0, (2 + n,)))
            sol = solve(data, TIGHT)
            assert sol.status == "optimal"
            np.testing.assert_allclose(sol.x[:n], x_want, atol=1e-5)

    def test_nonneg_least_squares_special_case(self):
        """Identity design with positive targets: x* equals the target."""
        F = np.eye(2)
        g = np.ones(2)
        # minimize ||Fx - g||^2 s.t. x >= 0 via epigraph
        n = 2
        soc = np.zeros((2 + n, n + 1))
        soc[0, n] = -1.0
        soc[1, n] = 1.0
        soc[2:, :n] = -2.0 * F
        A = sp.csr_matrix(np.vstack([np.hstack([-np.eye(n), np.zeros((n, 1))]),
                                     soc]))
        b = np.concatenate([np.zeros(n), [1.0, 1.0], -2.0 * g])
        c = np.concatenate([np.zeros(n), [1.0]])
        data = ConeProgramData(A, b, c, ConeSpec(0, n, (2 + n,)))
        sol = solve(data, TIGHT)
        np.testing.assert_allclose(sol.x[:n], [1.0, 1.0], atol=1e-6)
        assert sol.info["primal_residual"] <= 1e-9


class TestStatuses:
    def test_infeasible(self):
        # x >= 1 and x <= 0
        data = lp_data(np.array([0.0]), np.array([[-1.0], [1.0]]),
                       np.array([-1.0, 0.0]))
        assert solve(data, TIGHT).status == "infeasible"

    def test_unbounded(self):
        data = lp_data(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]))
        assert solve(data, TIGHT).status == "unbounded"

    def test_nan_rejected(self):
        with pytest.raises(SolverInputError):
            ConeProgramData(sp.csr_matrix(np.array([[1.0]])),
                            np.array([np.nan]), np.array([1.0]),
                            ConeSpec(0, 1, ()))

    def test_normalized_point_requires_optimal(self):
        data = lp_data(np.array([0.0]), np.array([[-1.0], [1.0]]),
                       np.array([-1.0, 0.0]))
        sol = solve(data, TIGHT)
        with pytest.raises(SolveStatusError):
            normalized_point(sol)


class TestResiduals:
    def test_exact_solution_near_zero(self):
        from diffcone.solver import ConeSolution
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        exact = ConeSolution(x=np.array([2.0]), y=np.array([1.0]),
                             s=np.array([0.0]), status="optimal")
        pri, dua, gap = residuals(data, exact)
        assert max(pri, dua, gap) <= 1e-12

    def test_perturbation_grows_like_a_delta(self, rng):
        from diffcone.solver import ConeSolution
        n, mi = 3, 4
        G = rng.standard_normal((mi, n))
        data = lp_data(rng.standard_normal(n), G, rng.standard_normal(mi))
        x = rng.standard_normal(n)
        delta = rng.standard_normal(n) * 1e-3
        base = ConeSolution(x=x, y=np.zeros(mi), s=data.b - G @ x,
                            status="optimal")
        moved = ConeSolution(x=x + delta, y=np.zeros(mi), s=base.s,
                             status="optimal")
        pri0 = residuals(data, base)[0]
        pri1 = residuals(data, moved)[0]
        np.testing.assert_allclose(pri1 - pri0,
                                   np.linalg.norm(G @ delta), atol=1e-9)

    @pytest.mark.parametrize("name", ["x", "y", "s"])
    @pytest.mark.parametrize("size", [0, 2])
    def test_wrong_length_raises_shape_error(self, name, size):
        from diffcone.solver import ConeSolution
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        parts = {"x": np.array([2.0]), "y": np.array([1.0]),
                 "s": np.array([0.0]), name: np.zeros(size)}
        with pytest.raises(ShapeError, match=f"^{name} has shape"):
            residuals(data, ConeSolution(**parts, status="optimal"))

    def test_zero_data_zero_point(self):
        from diffcone.solver import ConeSolution
        data = ConeProgramData(sp.csr_matrix((2, 2)), np.zeros(2),
                               np.zeros(2), ConeSpec(0, 2, ()))
        sol = ConeSolution(x=np.zeros(2), y=np.zeros(2), s=np.zeros(2),
                           status="optimal")
        assert residuals(data, sol) == (0.0, 0.0, 0.0)


class TestInvariances:
    def test_cost_scaling_keeps_argmin(self, rng):
        n, mi = 2, 4
        G = np.vstack([rng.standard_normal((mi, n)), np.eye(n), -np.eye(n)])
        h = np.concatenate([G[:mi] @ np.zeros(n) + rng.uniform(0.5, 1.5, mi),
                            np.full(2 * n, 5.0)])
        c = rng.standard_normal(n)
        base = solve(lp_data(c, G, h), TIGHT)
        scaled = solve(lp_data(3.7 * c, G, h), TIGHT)
        assert base.status == scaled.status == "optimal"
        np.testing.assert_allclose(base.x, scaled.x, atol=1e-5)

    def test_deterministic(self):
        data = lp_data(np.array([1.0, 0.3]),
                       np.vstack([-np.eye(2), np.eye(2)]),
                       np.array([0.0, 0.0, 3.0, 3.0]))
        a = solve(data, TIGHT)
        b = solve(data, TIGHT)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert a.info["iterations"] == b.info["iterations"]

    def test_warm_start_converges(self):
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        cold = solve(data, TIGHT)
        warm = solve(data, TIGHT, warm_start=(cold.x, cold.y, cold.s))
        assert warm.status == "optimal"
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)
        assert warm.info["iterations"] <= cold.info["iterations"]

    def test_skew_matrix_is_skew(self, rng):
        n, mi = 3, 4
        G = rng.standard_normal((mi, n))
        data = lp_data(rng.standard_normal(n), G, rng.standard_normal(mi))
        Q = skew_matrix(data).toarray()
        np.testing.assert_allclose(Q, -Q.T, atol=0)

    def test_skew_matrix_matches_block_definition(self):
        # exact zeros in b and c, an empty row (1) and column (2) of A
        A = np.array([[1.5, -2.0, 0.0, 0.5],
                      [0.0, 0.0, 0.0, 0.0],
                      [-0.25, 3.0, 0.0, 7.0]])
        b = np.array([0.0, 2.0, -1.0])
        c = np.array([0.0, 0.0, 4.0, -0.5])
        data = ConeProgramData(sp.csr_matrix(A), b, c, ConeSpec(0, 3, ()))
        want = np.block([
            [np.zeros((4, 4)), A.T, c[:, None]],
            [-A, np.zeros((3, 3)), b[:, None]],
            [-c[None, :], -b[None, :], np.zeros((1, 1))],
        ])
        Q = skew_matrix(data)
        np.testing.assert_array_equal(Q.toarray(), want)
        assert Q.nnz == np.count_nonzero(want)


class TestNormalizedResidual:
    def test_residual_map_small_at_solution(self, rng):
        """||N(z)|| stays within a small multiple of the solve tolerance."""
        n = 3
        cvec = rng.standard_normal(n)
        A = sp.csr_matrix(np.vstack([np.zeros((1, n)), -np.eye(n)]))
        b = np.concatenate([[1.0], np.zeros(n)])
        data = ConeProgramData(A, b, cvec, ConeSpec(0, 0, (n + 1,)))
        sol = solve(data, TIGHT)
        assert sol.status == "optimal"
        z = normalized_point(sol)
        Q = skew_matrix(data)
        pz = project_embedding(z, data.cones, n)
        residual = Q @ pz - pz + z
        assert np.linalg.norm(residual) <= 10 * 1e-8


class TestNormalizedJacobian:
    """M = (Q - I) DPi(z) + I, the Jacobian of the residual map u -> (Q -
    I) Pi(u) + u that the polish's normalized Jacobian M (I - z e_N') and
    the derivatives build on, as ``MFactor.apply`` holds it (less zhat
    zhat'), on both backends: dense (N up to ``DENSE_ORDER``) and
    SuperLU's lifted matrix (above it)."""

    # (n, nonneg rows, second-order block): N 13 and N 96
    SIZES = [(3, 4, 5), (30, 40, 25)]

    def operators(self, rng):
        """(M's product, the residual map, z) of a random program with an
        orthant and a second-order block at a random point z, for each
        size."""
        for n, mi, d in self.SIZES:
            A = sp.csr_matrix(rng.standard_normal((mi + d, n)))
            data = ConeProgramData(A, rng.standard_normal(mi + d),
                                   rng.standard_normal(n),
                                   ConeSpec(0, mi, (d,)))
            z = rng.standard_normal(n + mi + d + 1)
            z[-1] = 1.0
            while smooth_margin(z, data.cones, n) <= 1e-3:
                z[:-1] = rng.standard_normal(z.size - 1)
            QI = skew_matrix(data) - sp.identity(z.size)
            P = MFactor(data, z)
            assert (z.size <= solver.DENSE_ORDER) == (P.order == z.size)

            def apply(u, transpose=False, P=P):
                return P.apply(u, transpose) - P.zhat * (P.zhat @ u)

            def residual(u, QI=QI, spec=data.cones, n=n):
                return QI @ project_embedding(u, spec, n) + u

            yield apply, residual, z

    def test_matches_central_difference_of_residual_map(self, rng):
        h = 1e-6
        for apply, residual, z in self.operators(rng):
            for _ in range(10):
                dz = rng.standard_normal(z.size)
                fd = (residual(z + h * dz) - residual(z - h * dz)) / (2 * h)
                np.testing.assert_allclose(apply(dz), fd, rtol=1e-6,
                                           atol=1e-8)

    def test_adjoint_pairing(self, rng):
        for apply, _, z in self.operators(rng):
            for _ in range(20):
                a = rng.standard_normal(z.size)
                b = rng.standard_normal(z.size)
                lhs = apply(a) @ b
                rhs = a @ apply(b, transpose=True)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestCertificates:
    """Generated infeasible and unbounded programs over an orthant and one
    second-order block (a self-dual cone K = K*); the returned certificate
    is checked, not only the status."""

    SETTINGS = SolverSettings()
    SPEC = ConeSpec(0, 3, (3,))
    N_VARS = 3

    @staticmethod
    def interior_point(rng):
        return np.concatenate([rng.uniform(0.5, 1.5, 3), [2.0],
                               rng.uniform(-0.5, 0.5, 2)])

    def assert_in_cone(self, v):
        dist = np.linalg.norm(project_dual_cone(v, self.SPEC) - v)
        assert dist <= 1e-12 * np.linalg.norm(v)

    @classmethod
    def infeasible_program(cls, seed, scale=1.0):
        rng = np.random.default_rng([seed, 1])
        y0 = cls.interior_point(rng)
        # y0 in int K* with A'y0 = 0 and b'y0 = -1 proves infeasibility
        A = rng.standard_normal((y0.size, cls.N_VARS))
        A -= np.outer(y0, y0 @ A) / (y0 @ y0)
        b = rng.standard_normal(y0.size)
        b -= (b @ y0 + 1.0) * y0 / (y0 @ y0)
        return scale * A, b, rng.standard_normal(cls.N_VARS)

    @classmethod
    def unbounded_program(cls, seed, scale=1.0):
        rng = np.random.default_rng([seed, 2])
        s0 = cls.interior_point(rng)
        # a ray x0 with A x0 = -s0 (s0 in int K) and c'x0 = -1, from the
        # feasible point b = A xf + sf, makes the program unbounded
        x0 = rng.standard_normal(cls.N_VARS)
        A = rng.standard_normal((s0.size, cls.N_VARS))
        A += np.outer(-s0 - A @ x0, x0) / (x0 @ x0)
        c = rng.standard_normal(cls.N_VARS)
        c -= (c @ x0 + 1.0) * x0 / (x0 @ x0)
        b = A @ rng.standard_normal(cls.N_VARS) + cls.interior_point(rng)
        return scale * A, scale * b, c

    def check_infeasible(self, A, b, c):
        sol = solve(ConeProgramData(sp.csr_matrix(A), b, c, self.SPEC),
                    self.SETTINGS)
        assert sol.status == "infeasible"
        assert b @ sol.y == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(A.T @ sol.y) <= self.SETTINGS.eps_abs
        self.assert_in_cone(sol.y)

    def check_unbounded(self, A, b, c):
        sol = solve(ConeProgramData(sp.csr_matrix(A), b, c, self.SPEC),
                    self.SETTINGS)
        assert sol.status == "unbounded"
        assert c @ sol.x == pytest.approx(-1.0, abs=1e-12)
        assert np.linalg.norm(A @ sol.x + sol.s) <= self.SETTINGS.eps_abs
        self.assert_in_cone(sol.s)

    @pytest.mark.parametrize("seed", range(40))
    def test_infeasible_certificate(self, seed):
        self.check_infeasible(*self.infeasible_program(seed))

    @pytest.mark.parametrize("seed", range(40))
    def test_unbounded_certificate(self, seed):
        self.check_unbounded(*self.unbounded_program(seed))

    # badly scaled data: A alone for infeasibility (A'y0 = 0 and b'y0 = -1
    # still hold), A and b together for unboundedness (A x0 = -scale s0)
    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e5])
    @pytest.mark.parametrize("seed", range(40))
    def test_infeasible_certificate_scaled(self, seed, scale):
        self.check_infeasible(*self.infeasible_program(seed, scale))

    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e5])
    @pytest.mark.parametrize("seed", range(40))
    def test_unbounded_certificate_scaled(self, seed, scale):
        self.check_unbounded(*self.unbounded_program(seed, scale))


@st.composite
def iteration_programs(draw):
    """(A, b, c, spec) with orthant and SOC rows; A may have empty rows and
    columns, and b, c and m may be zero."""
    n = draw(st.integers(1, 6))
    n_zero = draw(st.integers(0, 2))
    n_nonneg = draw(st.integers(0, 3))
    soc_dims = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    spec = ConeSpec(n_zero, n_nonneg, soc_dims)
    m = spec.total_dim
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    if m and draw(st.booleans()):
        A[rng.integers(m)] = 0.0
    if draw(st.booleans()):
        A[:, rng.integers(n)] = 0.0
    b = np.zeros(m) if draw(st.booleans()) else rng.standard_normal(m)
    c = np.zeros(n) if draw(st.booleans()) else rng.standard_normal(n)
    return A, b, c, spec, rng.standard_normal(n + m + 1)


# K_DENSE_ORDER and REDUCED_ORDER that send every K to one K solve
K_SOLVES = {"dense": (10 ** 6, 0), "reduced": (0, 10 ** 6),
            "superlu": (0, 0)}


@settings(max_examples=150, deadline=None)
@given(iteration_programs(), st.sampled_from(sorted(K_SOLVES)),
       st.integers(0, 2 ** 32 - 1))
def test_iteration_system_matches_direct_solve(program, kind, seed):
    """The iteration map, each row's T = (I + Q)^{-1} built from the dense
    inverse of K, or the two-solve identity on K with dense inverses of
    S = I + A'A or SuperLU factors, equals a direct solve with I + Q, Q
    the skew matrix of the scaled A with the given b and c, on every row
    of a batch that shares one program's factor and of a batch that holds
    one per program; and each row equals its batch of one, bit for bit."""
    A, b, c, spec, w = program
    A = sp.csr_matrix(A)
    # a second program on A's pattern
    other = sp.csr_matrix((np.random.default_rng(seed).standard_normal(
        A.nnz), A.indices, A.indptr), shape=A.shape)
    hs = np.stack([np.concatenate([c, b]), np.concatenate([c, -b])])
    ws = np.stack([w, w[::-1]])
    with pytest.MonkeyPatch.context() as mp:
        dense_order, reduced_order = K_SOLVES[kind]
        mp.setattr(solver, "K_DENSE_ORDER", dense_order)
        mp.setattr(solver, "REDUCED_ORDER", reduced_order)
        shared = IterationFactor(A, spec)
        each = IterationFactor(A, spec, np.stack([A.data, other.data]))
        assert shared.kind == each.kind == kind
        assert (shared.lus is None) == (kind != "superlu")
        for factor, rows in ((shared, [0, 0]), (each, [0, 1])):
            got = solver._IterationSystem(factor, np.array(rows), hs)(
                ws, np.empty(ws.shape))
            for h, w_row, row, j in zip(hs, ws, got, rows):
                Q = skew_matrix(ConeProgramData(
                    factor.scaled(j), h[c.size:], h[:c.size], spec))
                want = spla.spsolve((sp.identity(w.size) + Q).tocsc(), w_row)
                assert np.linalg.norm(row - want) <= \
                    1e-12 * np.linalg.norm(want)
                lone = IterationFactor((A, other)[j], spec)
                alone = solver._IterationSystem(lone, np.array([0]), h)(
                    w_row, np.empty(w.size))
                assert np.array_equal(alone, row)


def _ruiz_loop(A, spec, passes=10):
    """Ruiz equilibration of one program as it was written before the
    batched pass: ten passes of ``np.maximum.at``.  The reference of
    ``test_batched_ruiz_equals_the_loop``."""
    A = A.tocoo()
    m, n = A.shape
    d = np.ones(m)
    e = np.ones(n)
    absdata = np.abs(A.data)
    for _ in range(passes):
        scaled = absdata * d[A.row] * e[A.col]
        row_max = np.zeros(m)
        np.maximum.at(row_max, A.row, scaled)
        for start, stop, k, dim in spec.soc_runs:
            block = row_max[start:stop].reshape(k, dim)
            block[...] = block.max(axis=1, keepdims=True)
        col_max = np.zeros(n)
        np.maximum.at(col_max, A.col, scaled)
        d /= np.sqrt(np.where(row_max > 0, row_max, 1.0))
        e /= np.sqrt(np.where(col_max > 0, col_max, 1.0))
    A_hat = sp.csr_matrix((A.data * d[A.row] * e[A.col], (A.row, A.col)),
                          shape=(m, n))
    return A_hat, d, e


@st.composite
def ruiz_batches(draw):
    """A cone, a pattern of A with an empty row and an empty column when
    drawn, and a stack of 1-4 programs' entries on it, of many scales;
    some entries are stored zeros."""
    n = draw(st.integers(1, 6))
    spec = ConeSpec(draw(st.integers(0, 2)), draw(st.integers(0, 3)),
                    tuple(draw(st.lists(st.integers(1, 4), max_size=3))))
    m = spec.total_dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mask = rng.random((m, n)) < 0.6
    if m and draw(st.booleans()):
        mask[rng.integers(m)] = False
    if draw(st.booleans()):
        mask[:, rng.integers(n)] = False
    rows, cols = np.nonzero(mask)
    count = draw(st.integers(1, 4))
    a_data = rng.standard_normal((count, rows.size)) * 10.0 ** rng.integers(
        -4, 5, (count, rows.size))
    a_data[rng.random(a_data.shape) < 0.1] = 0.0
    pattern = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(m, n))
    return pattern, spec, a_data


@settings(max_examples=200, deadline=None)
@given(ruiz_batches())
def test_batched_ruiz_equals_the_loop(batch):
    """One Ruiz pass over a (B, nnz) stack gives each program the scales
    and scaled entries of the ``np.maximum.at`` loop, bit for bit: row
    maxima by ``reduceat`` in CSR order and column maxima in CSC order,
    with empty rows and columns masked and one scale per second-order
    block."""
    pattern, spec, a_data = batch
    factor = IterationFactor(pattern, spec, a_data)
    for j, entries in enumerate(a_data):
        A = sp.csr_matrix((entries, pattern.indices, pattern.indptr),
                          shape=pattern.shape)
        A_hat, d, e = _ruiz_loop(A, spec)
        assert np.array_equal(factor.d[j], d)
        assert np.array_equal(factor.e[j], e)
        assert np.array_equal(factor.scaled(j).toarray(), A_hat.toarray())


def _uv_iterate(cols, batch):
    """The splitting loop as it was written before it kept one state w:
    the (B, N) stacks of u and v, each iteration u_tilde = lin(u + v),
    over-relaxed, then u <- Pi(u_tilde - v) and v <- v - u_tilde + u.
    The reference of ``TestOneStateLoop``."""
    settings, spec, n = batch.settings, batch.spec, batch.n
    row = slice(None) if len(cols) > 1 else 0
    U = batch.U0[row].copy()
    V = batch.V0[row].copy()
    lin = solver._IterationSystem(batch.factor, batch.rows, batch.H[row])
    alpha = solver.OVER_RELAX
    u_tilde = np.empty(U.shape)
    buf = np.empty(U.shape)
    active = cols
    for it in range(1, settings.max_iters + 1):
        lin(np.add(U, V, out=buf), u_tilde)
        np.multiply(u_tilde, alpha, out=u_tilde)
        np.add(u_tilde, np.multiply(U, 1 - alpha, out=buf), out=u_tilde)
        U_new = project_embedding(np.subtract(u_tilde, V, out=buf), spec, n)
        np.subtract(V, u_tilde, out=V)
        np.add(V, U_new, out=V)
        U = U_new
        if it % solver.CHECK_INTERVAL != 0 and it != settings.max_iters:
            continue
        N = U.shape[-1]
        keep = batch.check(it, active, U.reshape(-1, N), V.reshape(-1, N))
        if not keep.all():
            if not keep.any():
                return
            active = [c for c, k in zip(active, keep) if k]
            U, V, lin = U[keep], V[keep], lin.subset(keep)
            u_tilde, buf = u_tilde[:len(active)], buf[:len(active)]


class TestOneStateLoop:
    """``_iterate`` keeps one state w per column; every check receives the
    u and v of the (u, v) recurrence (``_uv_iterate``) within 1e-12
    relative, on a program of each K solve: from the cold start, from a
    warm start that is not a Moreau pair (whose w0 = u0 - v0 must not be
    projected before the first step), and in a batch whose first column
    leaves 325 iterations before the second.  They pin the plain
    splitting, so its Anderson acceleration is off, and run without the
    polish, which would end every column at the first check."""

    @pytest.fixture(autouse=True)
    def plain_splitting(self, monkeypatch):
        monkeypatch.setattr(solver, "ANDERSON_MEMORY", 0)

    # ends optimal at 75 iterations
    DATA = sparse_qp_data(n=12, seed=0)
    # its costs scaled by 1e-2: ends optimal at 400
    SLOW = ConeProgramData(DATA.A, DATA.b, 1e-2 * DATA.c, DATA.cones)

    @staticmethod
    def checks(loop, datas, warm_starts, kind):
        """The (iteration, u, v) of every check of each column of
        ``solve(datas)`` run by ``loop`` under the K solve ``kind``, and
        the solutions."""
        seen = {}
        check = solver._Batch.check

        def record(batch, it, cols, U, V):
            for col, u, v in zip(cols, U, V):
                seen.setdefault(col.index, []).append(
                    (it, u.copy(), v.copy()))
            return check(batch, it, cols, U, V)

        with pytest.MonkeyPatch.context() as mp:
            dense_order, reduced_order = K_SOLVES[kind]
            mp.setattr(solver, "K_DENSE_ORDER", dense_order)
            mp.setattr(solver, "REDUCED_ORDER", reduced_order)
            mp.setattr(solver._Batch, "check", record)
            mp.setattr(solver, "_iterate", loop)
            sols = solve(datas, SolverSettings(refine=False), warm_starts)
        assert {s.info["iteration_system"] for s in sols} == {kind}
        return seen, sols

    @pytest.mark.parametrize("kind", sorted(K_SOLVES))
    @pytest.mark.parametrize("case", ["cold", "warm", "batch"])
    def test_checks_see_the_uv_iterates(self, kind, case):
        datas, warm = [self.DATA], [None]
        if case == "batch":
            datas, warm = [self.DATA, self.SLOW], [None, None]
        elif case == "warm":
            m, n = self.DATA.A.shape
            rng = np.random.default_rng(5)
            # y0 and s0 leave their cones and are not complementary
            warm = [(rng.standard_normal(n), rng.standard_normal(m),
                     rng.standard_normal(m))]
        got, got_sols = self.checks(solver._iterate, datas, warm, kind)
        want, want_sols = self.checks(_uv_iterate, datas, warm, kind)
        iterations = [s.info["iterations"] for s in want_sols]
        assert [s.info["iterations"] for s in got_sols] == iterations
        assert [s.status for s in got_sols] == ["optimal"] * len(datas)
        if case == "batch":
            assert iterations == [75, 400]
        assert got.keys() == want.keys() == set(range(len(datas)))
        for row in got:
            assert [it for it, *_ in got[row]] == [it for it, *_ in want[row]]
            for (_, u, v), (_, u_ref, v_ref) in zip(got[row], want[row]):
                assert np.linalg.norm(u - u_ref) <= \
                    1e-12 * np.linalg.norm(u_ref)
                assert np.linalg.norm(v - v_ref) <= \
                    1e-12 * np.linalg.norm(v_ref)


def _signed_values(problem, rng):
    """Parameter values from N(0, 1) with their declared signs."""
    out = {}
    for p in problem.parameters:
        v = rng.standard_normal(p.shape.dims)
        out[p.name] = np.abs(v) if p.nonneg else (
            -np.abs(v) if p.nonpos else v)
    return out


class TestAnderson:
    """The splitting of the ``"reduced"`` and ``"superlu"`` K solves is
    Anderson accelerated (``_Anderson``), with two guards; ``"dense"``'s
    is not."""

    # each ends optimal; lone and under TIGHT each ends at its polish at 25;
    # without the polish they take 50, 125, 50 and 100 iterations, and the
    # guards reject 6-7 points of the second alone
    DATA = sparse_qp_data(n=12, seed=0)

    @classmethod
    def programs(cls):
        """DATA, its costs scaled by 1e-2, its b perturbed, and its A's
        entries perturbed: the first three share A."""
        data = cls.DATA
        rng = np.random.default_rng(3)
        A = data.A.tocsr()
        return [data,
                ConeProgramData(A, data.b, 1e-2 * data.c, data.cones),
                ConeProgramData(A, data.b + 0.1 * rng.standard_normal(
                    data.b.size), data.c, data.cones),
                ConeProgramData(sp.csr_matrix(
                    (A.data * (1 + 0.2 * rng.standard_normal(A.nnz)),
                     A.indices, A.indptr), shape=A.shape),
                    data.b, data.c, data.cones)]

    @staticmethod
    def force(monkeypatch, kind):
        dense_order, reduced_order = K_SOLVES[kind]
        monkeypatch.setattr(solver, "K_DENSE_ORDER", dense_order)
        monkeypatch.setattr(solver, "REDUCED_ORDER", reduced_order)

    @pytest.mark.parametrize("kind", ["reduced", "superlu"])
    def test_batch_equals_lone_solves(self, kind, monkeypatch):
        """A batch whose rows leave at different iterations, and in which
        the safeguard sends one row back to its plain point at iterations
        where the others keep their accelerated points, is its lone solves
        bit for bit: with one factor per program, and with one shared.  It
        runs without the polish, which would end every row at the first
        check."""
        self.force(monkeypatch, kind)
        datas = self.programs()
        settings = dataclasses.replace(TIGHT, refine=False)
        lone = [solve(data, settings) for data in datas]
        assert len({s.info["iterations"] for s in lone}) > 1
        rejected = [s.info["acceleration"]["rejected"] for s in lone]
        assert rejected[1] > 0 and rejected.count(0) == 3
        shared = IterationFactor(datas[0].A, datas[0].cones)
        for batch, factor in ((datas, None), (datas[:3], shared)):
            for got, want in zip(solve(batch, settings, factor=factor),
                                 lone):
                assert got.info["iteration_system"] == kind
                for key in ("iterations", "polishes", "acceleration"):
                    assert got.info[key] == want.info[key]
                assert got.status == want.status == "optimal"
                for part in "xys":
                    assert np.array_equal(getattr(got, part),
                                          getattr(want, part))

    @pytest.mark.parametrize("max_iters", [1, 2, 25])
    def test_row_leaving_before_the_first_point(self, max_iters,
                                                monkeypatch):
        """A batch whose infeasible row leaves at a check before, or right
        after, the accelerator's first point equals its lone solves."""
        self.force(monkeypatch, "reduced")
        A = sp.csr_matrix(np.array([[-1.0], [1.0]]))
        spec = ConeSpec(0, 2, ())
        datas = [ConeProgramData(A, np.array([-1.0, 0.0]), np.zeros(1),
                                 spec),  # x >= 1 and x <= 0
                 ConeProgramData(A, np.array([-1.0, 5.0]), np.ones(1),
                                 spec)]
        settings = SolverSettings(max_iters=max_iters)
        lone = [solve(data, settings) for data in datas]
        for got, want in zip(solve(datas, settings), lone):
            assert (got.status, got.info["iterations"]) == \
                (want.status, want.info["iterations"])
            assert np.array_equal(got.x, want.x)

    def test_fewer_iterations_and_the_same_point(self, monkeypatch):
        """On the reduced K solve the accelerated splitting ends in fewer
        iterations than the plain one, at a point within 1e-6, without
        the polish, which would end both at the first check."""
        self.force(monkeypatch, "reduced")
        memory = solver.ANDERSON_MEMORY
        settings = dataclasses.replace(TIGHT, refine=False)
        for data in self.programs():
            fast = solve(data, settings)
            monkeypatch.setattr(solver, "ANDERSON_MEMORY", 0)
            plain = solve(data, settings)
            monkeypatch.setattr(solver, "ANDERSON_MEMORY", memory)
            assert plain.info["acceleration"] == {"accepted": 0,
                                                  "rejected": 0}
            assert fast.info["acceleration"]["accepted"] > 0
            assert fast.info["iterations"] < plain.info["iterations"]
            assert np.linalg.norm(fast.x - plain.x) <= \
                1e-6 * np.linalg.norm(plain.x)

    def test_dense_is_not_accelerated(self, monkeypatch):
        self.force(monkeypatch, "dense")
        sol = solve(self.DATA, TIGHT)
        assert sol.info["iteration_system"] == "dense"
        assert sol.info["acceleration"] == {"accepted": 0, "rejected": 0}

    # w -> w / 2 and w -> (w + 1) / 2 from w0 = (1, 2, 3, -4): the last
    # entry, tau - kappa in the embedding, stays negative on the way to
    # 0, so the tau entry's guard leaves the first map to the norm's
    TO_ZERO = (0.5 * np.eye(4), np.zeros(4), np.array([1.0, 2.0, 3.0, -4.0]))
    TO_ONE = (0.5 * np.eye(4), 0.5 * np.ones(4), np.arange(1.0, 5.0))

    @staticmethod
    def run(maps, steps=6, memory=3):
        """Accelerate the affine maps w -> M w + t of the rows, (M, t,
        w0) each, as one ``_Anderson`` stack for ``steps`` steps; the
        states of each step and the accelerator."""
        N = len(maps[0][2])
        accel = solver._Anderson(len(maps), N, memory)
        W = np.array([w for *_, w in maps])
        states = []
        for _ in range(steps):
            F = np.array([M @ w + t - w for (M, t, _), w in zip(maps, W)])
            norms = [float(f @ f) for f in F]
            back = accel.rejects(norms)
            if back.any():
                W = np.where(back[:, None], accel.g, W)
            F = np.array([M @ w + t - w for (M, t, _), w in zip(maps, W)])
            W = accel.point(W, F, [float(f @ f) for f in F])
            states.append(W.copy())
        return states, accel

    def test_collapse_guard(self):
        """A history that heads for w = 0 (a contraction to 0, whose
        fixed point is the embedding's trivial one) is rejected: the row
        takes its plain point g and empties its history, while a row that
        heads for a nonzero fixed point keeps its accelerated point; each
        row of the stack is its lone run, bit for bit."""
        to_zero, to_one = self.TO_ZERO, self.TO_ONE
        N = len(to_zero[2])
        states, accel = self.run([to_zero, to_one])
        assert accel.rejected[0] > 0 and accel.accepted[0] == 0
        assert accel.rejected[1] == 0 and accel.accepted[1] > 0
        # the plain map halves w at every step: no point jumped to 0
        assert np.array_equal(states[-1][0], 0.5 ** 6 * to_zero[2])
        assert np.allclose(states[-1][1], np.ones(N))
        for row, spec in enumerate((to_zero, to_one)):
            alone, _ = self.run([spec])
            for got, want in zip(states, alone):
                assert np.array_equal(got[row], want[0])

    def test_safeguard_rejects_a_longer_step(self):
        """A row whose state is an accelerated point and whose step there
        is longer than the step before is rejected, and its history
        emptied; a row whose state is a plain point is not, however long
        its step."""
        _, accel = self.run([self.TO_ONE, self.TO_ONE], steps=4)
        assert all(accel.taken) and accel.gram.any()
        accepted = list(accel.accepted)
        longer = [norm + 1.0 for norm in accel.norm]
        accel.taken[1] = False
        assert list(accel.rejects(longer)) == [True, False]
        assert not accel.gram[0].any() and not accel.dF[0].any()
        assert not accel.dG[0].any() and accel.gram[1].any()
        assert accel.rejected == [1, 0]
        assert accel.accepted == [accepted[0] - 1, accepted[1]]
        assert not accel.rejects(accel.norm).any()

    @pytest.mark.parametrize("accepted, deferred, it, last, q, more", [
        (40, 0, 150, (125, 1.5), 0.9, True),      # fell 1.7-fold
        (40, 0, 150, (125, 85.0), 0.9, True),     # fell 94-fold
        (40, 0, 150, (125, 200.0), 0.9, False),   # fell 220-fold
        (40, 0, 25, None, 0.9, False),            # no check before
        (40, 1, 175, (150, 0.9), 0.5, True),      # ran one interval on
        (40, 1, 175, (150, 0.9), 0.005, False),   # ... and fell 180-fold
        (40, 2, 200, (175, 0.5), 0.3, False),     # ran two intervals on
        (40, 0, 1000, (975, 1.5), 0.9, False),    # at max_iters
        (0, 0, 150, (125, 1.5), 0.9, False),      # not accelerated
    ])
    def test_runs_another_interval(self, accepted, deferred, it, last, q,
                                   more):
        column = dataclasses.make_dataclass("Column", [
            "acceleration", "deferred", "settings", "last_check"])(
            {"accepted": accepted, "rejected": 0}, deferred,
            SolverSettings(max_iters=1000), last)
        assert solver._Column._runs_another_interval(column, it, q) is more

    def test_slow_accelerated_solve_runs_on(self, monkeypatch):
        """A QP whose accelerated splitting converges only linearly meets
        the tolerance at 125 iterations and runs two more intervals, to
        175; it ends optimal either way."""
        self.force(monkeypatch, "reduced")
        data = sparse_qp_data(n=256, seed=0)
        settled = solve(data)
        monkeypatch.setattr(solver, "SETTLE_DROP", 0.0)
        first = solve(data)
        assert (settled.status, first.status) == ("optimal", "optimal")
        assert (first.info["iterations"], settled.info["iterations"]) == \
            (125, 175)
        assert settled.info["acceleration"]["accepted"] > 0

    @pytest.mark.parametrize("max_iters", [75, 1000])
    def test_check_after_running_on_ends_optimal(self, max_iters,
                                                 monkeypatch):
        """A check that meets the tolerance and runs on (its ratio fell
        less than ``SETTLE_DROP``-fold), followed by one that does not,
        ends the solve optimal at the second, at its best point, before
        ``max_iters`` and at it, without a polish: on a QP above
        ``DENSE_ORDER``, which is never polished."""
        self.force(monkeypatch, "reduced")
        data = sparse_qp_data(n=64, seed=0)
        assert sum(data.A.shape) + 1 > solver.DENSE_ORDER
        ratios = iter([50.0, 0.9, 2.0])
        evaluate = solver._Batch.evaluate

        def stub(batch, rows, U, V):
            checked = evaluate(batch, rows, U, V)
            checked.q = [next(ratios)]
            checked.ok = [checked.q[0] <= 1.0]
            return checked

        monkeypatch.setattr(solver._Batch, "evaluate", stub)
        sol = solve(data, SolverSettings(max_iters=max_iters))
        assert (sol.status, sol.info["iterations"], sol.info["polishes"]) \
            == ("optimal", 75, 0)
        assert sol.info["acceleration"]["accepted"] > 0

    @pytest.mark.parametrize("kind", ["reduced", "superlu"])
    @pytest.mark.parametrize("seed", [30, 344, 407, 508])
    def test_guarded_corpus_programs_end_optimal(self, seed, kind,
                                                monkeypatch):
        """``gen_random_dpp(seed, 1 + seed % 3, seed % 4)`` at its corpus
        parameters ends optimal, as the plain splitting does, where an
        unguarded acceleration stopped at ``max_iters``: at 508 its
        points shrank to w = 0, at 407 its tau entry fell from 0.28 to
        5e-3 in one step and on to the tau = 0 face, and at 344 the
        state's scale slid below the checks' absolute thresholds (2675
        iterations on the reduced K solve, against 3875 plain).  At 30
        the guards reject points that shrink below half of g."""
        self.force(monkeypatch, kind)
        problem = gen_random_dpp(seed, 1 + seed % 3, seed % 4)
        res = Layer.compile(problem, SolverSettings(max_iters=20_000)).forward(
            _signed_values(problem, np.random.default_rng(seed)))
        assert res.status == "optimal"
        assert res.info["acceleration"]["rejected"] > 0

    @pytest.mark.parametrize("kind", ["reduced", "superlu"])
    def test_corpus_statuses_match_the_plain_splitting(self, kind,
                                                       monkeypatch):
        """The random corpus ``gen_random_dpp(seed, 1 + seed % 3, seed %
        4)``, seeds 0-99 with N(0, 1) parameters of their declared signs,
        ends in the statuses of the plain splitting, in no more iterations
        in all."""
        self.force(monkeypatch, kind)
        memory = solver.ANDERSON_MEMORY
        got, want = {}, {}
        for seed in range(100):
            problem = gen_random_dpp(seed, 1 + seed % 3, seed % 4)
            values = _signed_values(problem, np.random.default_rng(seed))
            layer = Layer.compile(problem)
            for kept, out in ((memory, got), (0, want)):
                monkeypatch.setattr(solver, "ANDERSON_MEMORY", kept)
                res = layer.forward(values)
                out[seed] = res.status, res.info["iterations"]
            monkeypatch.setattr(solver, "ANDERSON_MEMORY", memory)
        assert {s: st for s, (st, _) in got.items()} == \
            {s: st for s, (st, _) in want.items()}
        assert sum(it for _, it in got.values()) < \
            sum(it for _, it in want.values())


class TestCholeskyInverse:
    """The reduced K solve inverts S = I + A_hat'A_hat by its Cholesky
    factor (``_spd_inverses``)."""

    @staticmethod
    def reduced(A, spec, a_data=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "K_DENSE_ORDER", 0)
            mp.setattr(solver, "REDUCED_ORDER", 10 ** 6)
            factor = IterationFactor(A, spec, a_data)
        assert factor.kind == "reduced"
        return factor

    def test_matches_the_lu_inverse(self):
        """The lower triangle of the C-ordered inverse, diagonal included,
        is the one the K solve reads (``dsymv`` on its transpose); the
        strict upper triangle keeps S."""
        data = sparse_qp_data(n=48, seed=2)
        factor = self.reduced(data.A, data.cones)
        A_hat = factor.scaled(0).toarray()
        S = np.eye(A_hat.shape[1]) + A_hat.T @ A_hat
        lower = np.tril_indices(S.shape[0])
        upper = np.triu_indices(S.shape[0], 1)
        assert np.max(np.abs(factor.inverse[0][lower]
                             - np.linalg.inv(S)[lower])) <= 1e-13
        assert np.max(np.abs(factor.inverse[0][upper] - S[upper])) <= 1e-13

    def test_batch_equals_lone_builds(self, rng):
        data = sparse_qp_data(n=48, seed=2)
        A = data.A.tocsr()
        a_data = np.stack([A.data, rng.standard_normal(A.nnz),
                           rng.standard_normal(A.nnz)])
        batch = self.reduced(A, data.cones, a_data)
        for j, entries in enumerate(a_data):
            lone = self.reduced(sp.csr_matrix(
                (entries, A.indices, A.indptr), shape=A.shape), data.cones)
            assert np.array_equal(batch.inverse[j], lone.inverse[0])

    def test_failure_raises(self):
        S = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])
        with pytest.raises(SolverInputError, match="program 1"):
            solver._spd_inverses(S)


class TestReducedKSolve:
    """The reduced K solve (one ``dsymv`` per row with one triangle of its
    S^{-1}) equals a dense solve with K = [[I, A_hat'], [-A_hat, I]], for
    a lone program, a stack whose rows share one program's inverse and a
    stack with one inverse per row; each stack row equals its lone solve
    bit for bit."""

    @staticmethod
    def system(factor, index, H):
        return solver._IterationSystem(factor, np.array(index), H)

    @pytest.mark.parametrize("n", [48, 130])
    def test_matches_the_dense_k_solve(self, n, rng):
        data = sparse_qp_data(n=n, seed=3)
        A = data.A.tocsr()
        As = [A] + [sp.csr_matrix((rng.standard_normal(A.nnz), A.indices,
                                   A.indptr), shape=A.shape)
                    for _ in range(2)]
        size = sum(A.shape)
        H = rng.standard_normal((3, size))
        R = rng.standard_normal((3, size))
        lones = [TestCholeskyInverse.reduced(a, data.cones) for a in As]

        def dense_k_solve(factor, j, r):
            A_hat = factor.scaled(j).toarray()
            K = np.block([[np.eye(A.shape[1]), A_hat.T],
                          [-A_hat, np.eye(A.shape[0])]])
            return np.linalg.solve(K, r)

        alone = []
        for j, lone in enumerate(lones):
            got = self.system(lone, [0], H[j])._solve(R[j])
            want = dense_k_solve(lone, 0, R[j])
            assert np.linalg.norm(got - want) <= \
                1e-12 * np.linalg.norm(want)
            alone.append(got)

        # three rows sharing the first program's inverse
        shared = self.system(lones[0], [0, 0, 0], H)._solve(R)
        for r in range(3):
            want = dense_k_solve(lones[0], 0, R[r])
            assert np.linalg.norm(shared[r] - want) <= \
                1e-12 * np.linalg.norm(want)
            assert np.array_equal(
                shared[r], self.system(lones[0], [0], H[r])._solve(R[r]))

        # one inverse per row, the rows out of the factor's order
        each = TestCholeskyInverse.reduced(
            A, data.cones, np.stack([a.data for a in As]))
        index = [2, 0, 1]
        got = self.system(each, index, H[index])._solve(R[index])
        for r, j in enumerate(index):
            assert np.array_equal(got[r], alone[j])


class TestTimings:
    KEYS = {"equilibrate", "factorize", "iterate", "polish"}

    @pytest.mark.parametrize("data, status", [
        (lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0])),
         "optimal"),
        (lp_data(np.array([0.0]), np.array([[-1.0], [1.0]]),
                 np.array([-1.0, 0.0])), "infeasible"),
        (lp_data(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0])),
         "unbounded"),
    ], ids=["optimal", "infeasible", "unbounded"])
    def test_keys_on_every_status(self, data, status):
        sol = solve(data, TIGHT)
        assert sol.status == status
        timings = sol.info["timings"]
        assert set(timings) == self.KEYS
        assert all(isinstance(t, float) and t >= 0.0
                   for t in timings.values())
        assert sum(timings.values()) <= sol.info["solve_time"]
        assert timings["factorize"] > 0.0

    def test_keys_at_max_iters(self):
        data = lp_data(np.array([1.0, 0.3]),
                       np.vstack([-np.eye(2), np.eye(2)]),
                       np.array([0.0, 0.0, 3.0, 3.0]))
        sol = solve(data, SolverSettings(max_iters=3, refine=False))
        assert sol.status == "max_iters"
        assert set(sol.info["timings"]) == self.KEYS

    def test_given_factor_is_not_rebuilt(self):
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        factor = IterationFactor(data.A, data.cones)
        sol = solve(data, TIGHT, factor=factor)
        assert sol.info["timings"]["factorize"] == 0.0
        fresh = solve(data, TIGHT)
        assert np.array_equal(sol.x, fresh.x)
        assert sol.info["iterations"] == fresh.info["iterations"]

    def test_factor_of_another_shape_rejected(self):
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        factor = IterationFactor(sp.csr_matrix(np.ones((2, 1))),
                                 ConeSpec(0, 2, ()))
        with pytest.raises(ShapeError):
            solve(data, TIGHT, factor=factor)

    @pytest.mark.parametrize("fixture", [relu_fixture,
                                         nonneg_least_squares_fixture],
                             ids=["fixed_a", "theta_dependent"])
    def test_layer_stages_within_solve_time(self, fixture, rng):
        """A layer forward's ``solve_time`` holds its share of the
        iteration factor's build, as its stage timings do: the first
        element of a layer whose A is fixed, which builds the layer's
        factor, and later ones; every element of a batch whose A depends
        on theta, each with its share of the batch's factor."""
        fx = fixture()
        layer = Layer.compile(fx.problem, TIGHT)
        assert layer._a_fixed == (fixture is relu_fixture)
        results = layer.forward_batch([fx.sample(rng) for _ in range(4)])
        results.append(layer.forward(fx.sample(rng)))
        assert results[0].info["timings"]["factorize"] > 0.0
        for res in results:
            assert res.ok
            timings = res.info["timings"]
            assert sum(timings[k] for k in self.KEYS) <= \
                res.info["solve_time"]


class TestSettings:
    """``SolverSettings`` holds the knobs a caller sets, and rejects a
    malformed one when it is built, before any solve."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SolverSettings)] == [
            "max_iters", "eps_abs", "eps_rel", "refine"]

    def test_numpy_scalars_accepted(self):
        settings = SolverSettings(max_iters=np.int64(50),
                                  eps_abs=np.float64(1e-6), eps_rel=1e-6,
                                  refine=np.bool_(True))
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        assert solve(data, settings).status == "optimal"

    @pytest.mark.parametrize("value", [2.5, "100", True, 0, -3])
    def test_max_iters_must_be_a_positive_integer(self, value):
        with pytest.raises(ShapeError, match="max_iters"):
            SolverSettings(max_iters=value)

    @pytest.mark.parametrize("value", ["no", None, 1, 0, 1.0])
    def test_refine_must_be_a_bool(self, value):
        with pytest.raises(ShapeError, match="refine"):
            SolverSettings(refine=value)

    @pytest.mark.parametrize("name", ["eps_abs", "eps_rel"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e-8, "1e-8"])
    def test_tolerances_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ShapeError, match=name):
            SolverSettings(**{name: value})

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("value", ["x", {}])
    def test_solve_takes_only_solver_settings(self, value, batch):
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        with pytest.raises(ShapeError, match="SolverSettings"):
            solve([data] if batch else data, value)


class TestSolveInputs:
    """``solve`` takes one ``ConeProgramData`` or a list of them."""

    @pytest.mark.parametrize("data", [5, [1, 2], None])
    def test_other_data_raises_shape_error(self, data):
        with pytest.raises(ShapeError, match="ConeProgramData"):
            solve(data)

    def test_list_with_another_entry_raises_shape_error(self):
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        with pytest.raises(ShapeError, match="got str"):
            solve([data, "program"])


class TestIterationOrder:
    """A SuperLU ``IterationFactor`` leaves K's symmetric elimination order
    in its ``Pattern``, which the lifted M factor extends."""

    # K of order 195, above K_DENSE_ORDER: SuperLU factors it when
    # REDUCED_ORDER is below its 49 columns
    N_ABOVE = 48

    def test_order_is_owned(self, monkeypatch):
        monkeypatch.setattr(solver, "REDUCED_ORDER", 0)
        data = sparse_qp_data(n=self.N_ABOVE, seed=2)
        factor = IterationFactor(data.A, data.cones)
        order = factor.pattern.elimination_order()
        # a view of perm_c would keep the whole SuperLU factor alive
        assert order.base is None
        assert np.array_equal(order, np.argsort(factor.lus[0].perm_c))
        assert np.array_equal(np.sort(order), np.arange(sum(data.A.shape)))

    def test_order_depends_on_the_pattern_alone(self, rng):
        """One order serves every binding of a layer, whose A keeps its
        pattern and changes its values."""
        data = sparse_qp_data(n=self.N_ABOVE, seed=2)
        A, spec = data.A.tocsr(), data.cones
        other = sp.csr_matrix((rng.standard_normal(A.nnz), A.indices,
                               A.indptr), shape=A.shape)
        orders = [IterationFactor(B, spec).pattern.elimination_order()
                  for B in (A, other)]
        assert np.array_equal(*orders)


class TestIterationSystem:
    """``info["iteration_system"]`` names the K solve a solve ran."""

    @pytest.mark.parametrize("kind, reduced_order", [
        ("reduced", solver.REDUCED_ORDER), ("superlu", 0)])
    def test_large_k(self, kind, reduced_order, monkeypatch):
        # K of order 195, above K_DENSE_ORDER, and A of 49 columns
        monkeypatch.setattr(solver, "REDUCED_ORDER", reduced_order)
        sol = solve(sparse_qp_data(n=48, seed=2), TIGHT)
        assert sol.status == "optimal"
        assert sol.info["iteration_system"] == kind

    def test_small_k(self):
        data = lp_data(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        assert solve(data, TIGHT).info["iteration_system"] == "dense"

    def test_dense_rows_stay_on_superlu(self):
        """A pattern whose pairs of entries in a row outnumber both n^2
        and 8 nnz is not reduced: its pair table would outgrow S."""
        rng = np.random.default_rng(0)
        n, m = 20, 200
        A = sp.csr_matrix(rng.standard_normal((m, n)))
        factor = IterationFactor(A, ConeSpec(0, m, ()))
        assert factor.pattern.pairs == m * n * n
        assert factor.kind == "superlu"

    def test_pair_count_does_not_overflow(self, monkeypatch):
        """The pairs of entries in a row are counted in 64 bits: two full
        rows of 46341 entries hold 2 * 46341^2 > 2^32 pairs, which scipy's
        int32 indptr would wrap to 9266 and so pass the guard against a
        dense A.  The pattern alone decides; no factor is built."""
        monkeypatch.setattr(solver, "REDUCED_ORDER", 46341)
        m, n = 2, 46341
        A = sp.csr_matrix((np.ones(m * n), np.tile(np.arange(n), m),
                           np.arange(m + 1) * n), shape=(m, n))
        assert A.indptr.dtype == np.int32
        pattern = Pattern(A, ConeSpec(0, m, ()))
        assert pattern.pairs == m * n * n
        assert pattern.k_solve() == "superlu"


class TestBatchCheck:
    """A batch's programs must share their cone and A's pattern; the check
    compares every pattern with the first's at once."""

    @staticmethod
    def _programs():
        data = sparse_qp_data(n=8, seed=2)
        A = data.A.tocsr()
        # the same counts per row, one entry moved to another column
        indices = A.indices.copy()
        indices[0] = np.setdiff1d(np.arange(A.shape[1]),
                                  A.indices[:A.indptr[1]])[0]
        moved = sp.csr_matrix((A.data, indices, A.indptr), shape=A.shape)
        # the same entries in all, one moved to another row
        indptr = A.indptr.copy()
        indptr[1] += 1
        shifted = sp.csr_matrix((A.data, A.indices, indptr), shape=A.shape)
        wider = sp.csr_matrix((A.data, A.indices, A.indptr),
                              shape=(A.shape[0], A.shape[1] + 1))
        return data, [
            ConeProgramData(moved, data.b, data.c, data.cones),
            ConeProgramData(shifted, data.b, data.c, data.cones),
            ConeProgramData(wider, data.b, np.append(data.c, 0.0),
                            data.cones),
            ConeProgramData(A, data.b, data.c,
                            ConeSpec(data.cones.n_zero + 1,
                                     data.cones.n_nonneg - 1,
                                     data.cones.soc_dims))]

    def test_mismatched_batch_raises(self):
        data, others = self._programs()
        assert not np.array_equal(others[0].A.indices, data.A.indices)
        for other in others:
            for batch in ([data, other], [data, data, other]):
                with pytest.raises(ShapeError, match="share their cone"):
                    solve(batch, TIGHT)
                with pytest.raises(ShapeError, match="share their cone"):
                    solve(batch, TIGHT,
                          factor=IterationFactor(data.A, data.cones))


class TestPolishSchedule:
    """The polish schedule of a program up to ``DENSE_ORDER``: a polish is
    due at the first check whose iterate misses the tolerance, then from
    twice the iteration of the last polish on, never stepping over
    ``REFINE_CAP``, and always at ``max_iters``."""

    # N = n + m + 1 = 84; it ends optimal at its polish at 25
    QP = sparse_qp_data(n=20, seed=0)
    # its costs scaled by 1e-3: the splitting converges slowly, and it
    # polishes six times, to 500
    SLOW = ConeProgramData(QP.A, QP.b, 1e-3 * QP.c, QP.cones)

    @staticmethod
    def record_polishes(monkeypatch):
        """The iteration of each column's polish, in order."""
        calls = []
        polish = solver._Batch.polish

        def wrapper(batch, it, cols, U, V):
            calls.extend([it] * len(cols))
            return polish(batch, it, cols, U, V)

        monkeypatch.setattr(solver._Batch, "polish", wrapper)
        return calls

    def test_small_program_polishes_on_schedule(self, monkeypatch):
        """A program whose M system is held dense polishes at every due
        check: a polish of one Gauss-Newton step fails at 25, and the next
        is due at 50, where it ends."""
        monkeypatch.setattr(solver, "REFINE_STEPS", 1)
        data = self.QP
        assert sum(data.A.shape) + 1 <= solver.DENSE_ORDER
        calls = self.record_polishes(monkeypatch)
        sol = solve(data, SolverSettings(eps_abs=1e-11, eps_rel=1e-11))
        assert sol.status == "optimal"
        assert (sol.info["iterations"], sol.info["polishes"]) == (50, 2)
        assert calls == [25, 50]

    def test_max_iters_polishes(self, monkeypatch):
        """The polish at max_iters runs, though none is due before it: at
        10, before the first check."""
        calls = self.record_polishes(monkeypatch)
        sol = solve(self.QP, SolverSettings(max_iters=10))
        assert (sol.status, sol.info["iterations"], sol.info["polishes"]) \
            == ("optimal", 10, 1)
        assert calls == [10]

    def test_batch_of_a_polishing_and_a_plain_column_equals_lone_solves(
            self):
        """The QP warm-started at its solution ends at 25 without a
        polish, and the slow QP polishes at 25, 50, 100, 200, 250 and 500:
        together they are their lone solves bit for bit."""
        sol = solve(self.QP)
        warm_starts = [(sol.x, sol.y, sol.s), None]
        lone = [solve(data, warm_start=warm) for data, warm in
                zip((self.QP, self.SLOW), warm_starts)]
        assert [(s.info["iterations"], s.info["polishes"]) for s in lone] \
            == [(25, 0), (500, 6)]
        for got, want in zip(solve([self.QP, self.SLOW],
                                   warm_start=warm_starts), lone):
            assert (got.status, got.info["iterations"],
                    got.info["polishes"]) == \
                (want.status, want.info["iterations"], want.info["polishes"])
            for part in "xys":
                assert np.array_equal(getattr(got, part), getattr(want, part))

    def test_polish_candidate_stays_out_of_the_history(self, monkeypatch):
        """On the accelerated splitting (the ``"reduced"`` K solve, forced),
        a polish of one Gauss-Newton step fails at 25, and the iterate
        meets the tolerance at 50.  Whether the solve runs on there
        (``_Column._runs_another_interval``) is read from the ratio of
        residual to tolerance of the iterate checked at 25, which fell
        more than ``SETTLE_DROP``-fold, so it ends; the failed polish's
        better candidate would have run it on."""
        TestAnderson.force(monkeypatch, "reduced")
        monkeypatch.setattr(solver, "REFINE_STEPS", 1)
        ratios, calls = [], []
        evaluate = solver._Batch.evaluate
        runs_on = solver._Column._runs_another_interval

        def record_ratios(batch, rows, U, V):
            checked = evaluate(batch, rows, U, V)
            ratios.extend(checked.q)
            return checked

        def record_history(column, it, q):
            calls.append((it, q, column.last_check))
            return runs_on(column, it, q)

        monkeypatch.setattr(solver._Batch, "evaluate", record_ratios)
        monkeypatch.setattr(solver._Column, "_runs_another_interval",
                            record_history)
        sol = solve(self.QP, SolverSettings(eps_abs=1e-10, eps_rel=1e-10))
        assert sol.info["iteration_system"] == "reduced"
        assert (sol.status, sol.info["iterations"], sol.info["polishes"]) \
            == ("optimal", 50, 1)
        assert sol.info["acceleration"]["accepted"] > 0
        at_25, candidate, at_50 = ratios
        assert candidate < solver.SETTLE_DROP * at_50 < at_25
        assert calls == [(50, at_50, (25, at_25))]


def _binding(seed: int, stream: int, index: int):
    """perfbench's fixture-train binding (stream, index) at ``seed``: the
    stream-th gradient fixture's sample from default_rng([seed, stream,
    index]), and that fixture."""
    fx = gradient_fixtures()[stream]
    return fx, fx.sample(np.random.default_rng([seed, stream, index]))


class TestDensePolish:
    """Programs up to ``DENSE_ORDER`` take one stacked dense Gauss-Newton
    polish per check round (``_dense_refine``), due from the first check
    on and never later than ``REFINE_CAP``; larger ones are never
    polished."""

    @staticmethod
    def record_polishes(monkeypatch, clock=None):
        """(iteration, the polished columns' indices, the clock's ticks
        during the polish) of each ``_Batch.polish``."""
        calls = []
        polish = solver._Batch.polish

        def wrapper(batch, it, cols, U, V):
            start = clock[0] if clock else 0.0
            out = polish(batch, it, cols, U, V)
            calls.append((it, [c.index for c in cols],
                          (clock[0] if clock else 0.0) - start))
            return out

        monkeypatch.setattr(solver._Batch, "polish", wrapper)
        return calls

    # nonneg_least_squares at seed 68 (perfbench's stream 4), N 14: binding
    # 1 ends at its polish at 25; binding 0's normalized Jacobian has rank
    # 11, two below the 13 of a regular point, and it ends at 25; binding
    # 55's first polish fails, and it ends at its second, at 50
    BATCH = [1, 0, 55]

    def test_mixed_batch_equals_lone_solves(self, monkeypatch):
        """One stacked polish per round, over the columns due: all three at
        25, binding 55 alone at 50.  Each column's first step at 25 is the
        least-squares step of least norm (``np.linalg.lstsq``) of its
        normalized Jacobian J = M (I - z e_N'), rank-deficient or not, with
        M formed from ``MFactor.apply``.  Every column is its lone solve
        bit for bit, polish counts and timings' keys included."""
        fx, _ = _binding(68, 4, 0)
        assert fx.name == "nonneg_least_squares"
        values = [_binding(68, 4, i)[1] for i in self.BATCH]
        layer = Layer.compile(fx.problem)
        rounds, steps = [], []
        polish = solver._Batch.polish
        gauss_newton = solver._dense_gauss_newton_steps

        def record_round(batch, it, cols, U, V):
            rounds.append((batch, [c.index for c in cols], len(steps)))
            return polish(batch, it, cols, U, V)

        def record_steps(M, Z, R):
            out = gauss_newton(M, Z, R)
            steps.append((Z, R, out))
            return out

        monkeypatch.setattr(solver._Batch, "polish", record_round)
        monkeypatch.setattr(solver, "_dense_gauss_newton_steps",
                            record_steps)
        calls = self.record_polishes(monkeypatch)
        results = layer.forward_batch(values)
        assert [(it, cols) for it, cols, _ in calls] == [
            (25, [0, 1, 2]), (50, [2])]
        assert [(r.status, r.info["iterations"], r.info["polishes"])
                for r in results] == [("optimal", 25, 1), ("optimal", 25, 1),
                                      ("optimal", 50, 2)]
        batch, cols, first = rounds[0]
        Z, R, got = steps[first]
        ranks = []
        for r, j in enumerate(cols):
            program = ConeProgramData(
                batch.factor.scaled(batch.rows[j]), batch.b_hat[j],
                batch.c_hat[j], batch.spec)
            P = solver.MFactor(program, Z[r])
            eye = np.eye(Z.shape[1])
            M = np.column_stack([P.apply(e) for e in eye]) \
                - np.outer(P.zhat, P.zhat)
            J = M @ (eye - np.outer(Z[r], eye[-1]))
            ranks.append(np.linalg.matrix_rank(
                J, tol=solver.RCOND_MIN * np.linalg.norm(J, 2)))
            want = np.linalg.lstsq(J, R[r], rcond=solver.RCOND_MIN)[0]
            assert np.linalg.norm(got[r] - want) <= \
                1e-10 * np.linalg.norm(want)
        assert ranks == [13, 11, 13]
        monkeypatch.undo()
        for res, v in zip(results, values):
            alone = layer.forward(v)
            assert_same_solve(alone, res)

    @pytest.mark.parametrize("stream, index", [(5, 103), (5, 60), (4, 5)])
    def test_degenerate_bindings_end_at_one_polish(self, stream, index):
        """Bindings near degenerate points where a Gauss-Newton step
        preconditioned by its own factor of M stalled after one step, and
        polished again at 50: the dense polish ends them at 25."""
        fx, values = _binding(68, stream, index)
        res = Layer.compile(fx.problem).forward(values)
        assert (res.status, res.info["iterations"], res.info["polishes"]) \
            == ("optimal", 25, 1)

    @staticmethod
    def stalling_program():
        """``gen_random_dpp`` seed 199 (N 26) and its parameter values: its
        polishes at 25, 50, 100 and 200 stall at a point where the residual
        norm is stationary (8.83e-3 from 50 on), and the one at 250 ends
        it."""
        problem = gen_random_dpp(199, n_vars=1 + 199 % 3, n_params=199 % 4)
        rng = np.random.default_rng(199)
        values = {}
        for p in problem.parameters:
            v = rng.standard_normal(p.shape.dims)
            values[p.name] = np.abs(v) if p.nonneg else \
                (-np.abs(v) if p.nonpos else v)
        return problem, values

    def test_failing_polishes_reach_refine_interval(self, monkeypatch):
        """A random program (``stalling_program``) whose polish stalls at a
        point of nonzero residual at 25, 50, 100 and 200 polishes again at
        ``REFINE_CAP`` (250), where it ends; the doubling from 200 would
        have run it to 400, and the splitting alone runs it to 525, to the
        same solution within 1e-6."""
        problem, values = self.stalling_program()
        plain = Layer.compile(problem, SolverSettings(refine=False)).forward(
            values)
        assert (plain.status, plain.info["iterations"],
                plain.info["polishes"]) == ("optimal", 525, 0)
        calls = self.record_polishes(monkeypatch)
        res = Layer.compile(problem).forward(values)
        assert res.info["sizes"]["N"] == 26
        assert [it for it, _, _ in calls] == [25, 50, 100, 200, 250]
        assert (res.status, res.info["iterations"], res.info["polishes"]) \
            == ("optimal", 250, 5)
        assert res.outputs.keys() == plain.outputs.keys()
        for name, want in plain.outputs.items():
            assert np.linalg.norm(res.outputs[name] - want) <= \
                1e-6 * max(1.0, np.linalg.norm(want))

    def test_stalled_polish_stops_stepping(self, monkeypatch):
        """A polish stops once a step lowers the residual norm by less than
        a thousandth: each stalled polish of ``stalling_program`` takes
        three Gauss-Newton steps, where running on to ``REFINE_STEPS`` or
        to a step no halving improves took 8, 6, 6 and 6.  The polishes
        and the iterations stay as they were."""
        problem, values = self.stalling_program()
        steps = []
        step = solver._dense_gauss_newton_steps
        monkeypatch.setattr(solver, "_dense_gauss_newton_steps", lambda *a: (
            steps.append(None), step(*a))[1])
        counts_at = []
        polish = solver._Batch.polish

        def counted(batch, it, cols, U, V):
            start = len(steps)
            out = polish(batch, it, cols, U, V)
            counts_at.append(len(steps) - start)
            return out

        monkeypatch.setattr(solver._Batch, "polish", counted)
        res = Layer.compile(problem).forward(values)
        assert counts_at == [3, 3, 3, 3, 3]
        assert (res.status, res.info["iterations"], res.info["polishes"]) \
            == ("optimal", 250, 5)

    @pytest.mark.parametrize("max_iters", [30, 100_000])
    def test_no_polish_above_dense_order(self, monkeypatch, max_iters):
        """A QP of N 164, above ``DENSE_ORDER``, is never polished: its
        solve is bit for bit its solve with ``refine=False``, one that ends
        at ``max_iters`` included, with no polish and no polish time."""
        calls = self.record_polishes(monkeypatch)
        data = sparse_qp_data(n=40)
        assert sum(data.A.shape) + 1 == 164
        sol = solve(data, SolverSettings(max_iters=max_iters))
        plain = solve(data, SolverSettings(max_iters=max_iters,
                                           refine=False))
        assert sol.status == ("max_iters" if max_iters == 30 else "optimal")
        assert (sol.status, sol.info["iterations"]) == \
            (plain.status, plain.info["iterations"])
        for part in "xys":
            assert np.array_equal(getattr(sol, part), getattr(plain, part))
        assert (sol.info["polishes"], sol.info["timings"]["polish"]) == \
            (0, 0.0)
        assert calls == []

    def test_polish_time_is_shared_out(self, monkeypatch):
        """Each densely polished column's ``timings["polish"]`` is an equal
        share of the wall time of the stacked polishes it took part in, so
        the shares add up to them.  The solver's clock ticks once per
        embedding projection."""
        clock = [0.0]
        project = solver.project_embedding

        def ticking(*args):
            clock[0] += 1.0
            return project(*args)

        monkeypatch.setattr(solver, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(solver, "project_embedding", ticking)
        calls = self.record_polishes(monkeypatch, clock)
        fx, _ = _binding(68, 4, 0)
        results = Layer.compile(fx.problem).forward_batch(
            [_binding(68, 4, i)[1] for i in self.BATCH])
        assert [len(cols) for _, cols, _ in calls] == [3, 1]
        (_, _, first), (_, _, second) = calls
        assert first > 0.0 and second > 0.0
        polish = [r.info["timings"]["polish"] for r in results]
        assert polish[:2] == [first / 3] * 2
        assert polish[2] == pytest.approx(first / 3 + second, rel=1e-12)
        assert sum(polish) == pytest.approx(first + second, rel=1e-12)
