"""Implicit-differentiation tests: M systems, adjoints, finite differences."""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import TIGHT
from diffcone.canon import ConeProgramData
from diffcone.cones import ConeSpec, dproject_embedding, smooth_margin
from diffcone.derivatives import (
    adjoint_derivative,
    forward_derivative,
    solve_m_system,
)
from diffcone.errors import SolveStatusError
from diffcone.solver import MOperator, normalized_point, skew_matrix, solve


def socp_ball_data(rng, n=4, mi=3):
    """Random LP-with-ball problem: Gx <= h, ||x|| <= 2, random cost."""
    G = rng.standard_normal((mi, n))
    h = G @ rng.standard_normal(n) + rng.uniform(0.5, 1.5, mi)
    c = rng.standard_normal(n)
    A = sp.csr_matrix(np.vstack([G, np.zeros((1, n)), -np.eye(n)]))
    b = np.concatenate([h, [2.0], np.zeros(n)])
    return ConeProgramData(A, b, c, ConeSpec(0, mi, (n + 1,)))


def one_d_lp():
    return ConeProgramData(sp.csr_matrix(np.array([[-1.0]])),
                           np.array([-2.0]), np.array([1.0]),
                           ConeSpec(0, 1, ()))


def m_operator(data, z):
    return MOperator(skew_matrix(data), data.cones, z)


class TestMOperator:
    def test_action_matches_definition(self, rng):
        data = socp_ball_data(rng)
        N = sum(data.A.shape) + 1
        z = rng.standard_normal(N)
        M = m_operator(data, z)
        Q = skew_matrix(data).toarray()
        for _ in range(20):
            u = rng.standard_normal(N)
            dpi = dproject_embedding(z, u, data.cones, data.A.shape[1])
            want = (Q - np.eye(N)) @ dpi + u
            np.testing.assert_allclose(M.matvec(u), want, atol=1e-12)

    def test_adjoint_pairing(self, rng):
        data = socp_ball_data(rng)
        N = sum(data.A.shape) + 1
        z = rng.standard_normal(N)
        M = m_operator(data, z)
        for _ in range(20):
            a = rng.standard_normal(N)
            b = rng.standard_normal(N)
            lhs = np.dot(M.matvec(a), b)
            rhs = np.dot(a, M.rmatvec(b))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_materialized_agrees_with_action(self, rng):
        data = socp_ball_data(rng)
        N = sum(data.A.shape) + 1
        z = rng.standard_normal(N)
        M = m_operator(data, z)
        dense = M.materialize()
        u = rng.standard_normal(N)
        np.testing.assert_allclose(dense @ u, M.matvec(u), atol=1e-12)


class TestSolveMSystem:
    def test_identity_operator_returns_rhs(self):
        """All-polar point: DPi = 0 so M = I regardless of the skew part."""
        data = ConeProgramData(sp.csr_matrix((2, 0)), np.zeros(2),
                               np.zeros(0), ConeSpec(0, 2, ()))
        z = np.array([-1.0, -2.0, -3.0])  # strictly inside the polar regions
        M = m_operator(data, z)
        rhs = np.array([1.0, 2.0, 3.0])
        for mode in ("direct", "iterative"):
            g, info = solve_m_system(M, rhs, mode=mode)
            np.testing.assert_allclose(g, rhs, atol=1e-9)
            assert not info["fallback"]

    def test_modes_agree_on_nonsingular_system(self, rng):
        data = socp_ball_data(rng, n=6, mi=5)
        N = sum(data.A.shape) + 1
        z = np.abs(rng.standard_normal(N)) + 0.5
        M = m_operator(data, z)
        rhs = rng.standard_normal(N)
        gd, i1 = solve_m_system(M, rhs, mode="direct")
        gi, i2 = solve_m_system(M, rhs, mode="iterative")
        np.testing.assert_allclose(gd, gi, atol=1e-8, rtol=1e-6)

    def test_transpose_solves(self, rng):
        data = socp_ball_data(rng)
        N = sum(data.A.shape) + 1
        z = np.abs(rng.standard_normal(N)) + 0.5
        M = m_operator(data, z)
        rhs = rng.standard_normal(N)
        g, _ = solve_m_system(M, rhs, mode="direct", transpose=True)
        np.testing.assert_allclose(M.rmatvec(g), rhs, atol=1e-8)

    def test_singular_system_falls_back(self):
        """A rank-deficient M yields a finite answer and sets the flag."""
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])

        class FakeM:
            size = 2

            def materialize(self):
                return mat

            def as_linear_operator(self, transpose=False):
                import scipy.sparse.linalg as spla
                m = mat.T if transpose else mat
                return spla.LinearOperator((2, 2), matvec=lambda u: m @ u,
                                           rmatvec=lambda u: m.T @ u)

        rhs = np.array([1.0, 1.0])
        g, info = solve_m_system(FakeM(), rhs, mode="direct")
        assert info["fallback"]
        assert np.all(np.isfinite(g))
        g2, info2 = solve_m_system(FakeM(), rhs, mode="iterative")
        assert info2["fallback"]
        assert np.all(np.isfinite(g2))
        np.testing.assert_allclose(g, g2, atol=1e-6)


class TestAdjointDerivative:
    def test_zero_cotangent(self, rng):
        data = socp_ball_data(rng)
        sol = solve(data, TIGHT)
        adj = adjoint_derivative(data, sol, np.zeros(data.A.shape[1]))
        assert adj.dA.nnz == 0 or np.allclose(adj.dA.data, 0, atol=1e-12)
        np.testing.assert_allclose(adj.db, 0, atol=1e-12)
        np.testing.assert_allclose(adj.dc, 0, atol=1e-12)

    def test_one_dimensional_lp_sensitivities(self):
        """x* = b/A exactly: d x*/db = -1, d x*/dA = 2, d x*/dc = 0."""
        data = one_d_lp()
        sol = solve(data, TIGHT)
        adj = adjoint_derivative(data, sol, np.array([1.0]))
        np.testing.assert_allclose(adj.dA.toarray(), [[2.0]], atol=1e-7)
        np.testing.assert_allclose(adj.db, [-1.0], atol=1e-7)
        np.testing.assert_allclose(adj.dc, [0.0], atol=1e-7)

    def test_requires_optimal(self, rng):
        data = ConeProgramData(sp.csr_matrix(np.array([[-1.0], [1.0]])),
                               np.array([-1.0, 0.0]), np.array([0.0]),
                               ConeSpec(0, 2, ()))
        sol = solve(data, TIGHT)
        with pytest.raises(SolveStatusError):
            adjoint_derivative(data, sol, np.zeros(1))

    def test_dA_restricted_to_pattern(self, rng):
        data = socp_ball_data(rng)
        sol = solve(data, TIGHT)
        adj = adjoint_derivative(data, sol, rng.standard_normal(data.A.shape[1]))
        assert adj.dA.shape == data.A.shape
        got = set(zip(*adj.dA.nonzero()))
        allowed = set(zip(*data.A.nonzero()))
        assert got <= allowed


class TestForwardDerivative:
    def test_zero_perturbation(self, rng):
        data = socp_ball_data(rng)
        sol = solve(data, TIGHT)
        m, n = data.A.shape
        fwd = forward_derivative(data, sol, sp.csr_matrix((m, n)),
                                 np.zeros(m), np.zeros(n))
        np.testing.assert_allclose(fwd.dx, 0, atol=1e-10)
        np.testing.assert_allclose(fwd.dy, 0, atol=1e-10)
        np.testing.assert_allclose(fwd.ds, 0, atol=1e-10)

    def test_one_dimensional_lp_forward(self):
        data = one_d_lp()
        sol = solve(data, TIGHT)
        fwd = forward_derivative(data, sol, sp.csr_matrix((1, 1)),
                                 np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(fwd.dx, [-1.0], atol=1e-7)

    def test_matches_finite_differences(self, rng):
        data = socp_ball_data(rng)
        sol = solve(data, TIGHT)
        z = normalized_point(sol)
        assert smooth_margin(z, data.cones, data.A.shape[1]) > 1e-6
        m, n = data.A.shape
        dA = sp.csr_matrix((rng.standard_normal(data.A.nnz),
                            data.A.indices.copy(), data.A.indptr.copy()),
                           shape=(m, n))
        db = rng.standard_normal(m)
        dc = rng.standard_normal(n)
        fwd = forward_derivative(data, sol, dA, db, dc)
        h = 1e-6

        def x_at(t):
            d = ConeProgramData(
                sp.csr_matrix(data.A + t * dA), data.b + t * db,
                data.c + t * dc, data.cones)
            s = solve(d, TIGHT)
            assert s.status == "optimal"
            return s.x

        fd = (x_at(h) - x_at(-h)) / (2 * h)
        np.testing.assert_allclose(fwd.dx, fd, rtol=1e-4, atol=1e-6)


class TestAdjointForwardConsistency:
    def test_pairing_on_random_programs(self, rng):
        """<VJP(dx), (dA, db, dc)> equals <dx, JVP(dA, db, dc)>."""
        count = 0
        trial = 0
        while count < 20 and trial < 60:
            trial += 1
            data = socp_ball_data(rng, n=3 + trial % 3, mi=2 + trial % 2)
            sol = solve(data, TIGHT)
            if sol.status != "optimal":
                continue
            z = normalized_point(sol)
            if smooth_margin(z, data.cones, data.A.shape[1]) < 1e-5:
                continue
            m, n = data.A.shape
            dx = rng.standard_normal(n)
            dA = sp.csr_matrix((rng.standard_normal(data.A.nnz),
                                data.A.indices.copy(), data.A.indptr.copy()),
                               shape=(m, n))
            db = rng.standard_normal(m)
            dc = rng.standard_normal(n)
            adj = adjoint_derivative(data, sol, dx)
            fwd = forward_derivative(data, sol, dA, db, dc)
            lhs = (np.sum(adj.dA.multiply(dA))
                   + adj.db @ db + adj.dc @ dc)
            rhs = dx @ fwd.dx
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(lhs), abs(rhs))
            count += 1
        assert count == 20


class TestDegenerateFallback:
    def test_duplicated_constraints_give_finite_gradients(self):
        """Redundant active rows make M rank-deficient; the least-squares
        path must return finite numbers and set the flag."""
        A = sp.csr_matrix(np.array([[-1.0], [-1.0]]))  # x >= 2 twice
        data = ConeProgramData(A, np.array([-2.0, -2.0]), np.array([1.0]),
                               ConeSpec(0, 2, ()))
        sol = solve(data, TIGHT)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [2.0], atol=1e-6)
        adj = adjoint_derivative(data, sol, np.array([1.0]), mode="direct")
        assert np.all(np.isfinite(adj.dA.toarray()))
        assert np.all(np.isfinite(adj.db))
        assert np.all(np.isfinite(adj.dc))
        assert adj.info["fallback"]
        # the two redundant rows share the sensitivity: their sum matches
        # the non-degenerate bound derivative
        np.testing.assert_allclose(np.sum(adj.db), -1.0, atol=1e-6)
