"""Implicit-differentiation tests: M systems, adjoints, finite differences."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import TIGHT, force_fallback
from diffcone.canon import ConeProgramData
from diffcone.cones import (
    ConeSpec,
    dproject_embedding,
    dproject_embedding_parts,
    smooth_margin,
)
from diffcone import solver
from diffcone.derivatives import (
    adjoint_derivative,
    forward_derivative,
    solve_m_system,
)
from diffcone.errors import ShapeError, SolverInputError, SolveStatusError
from diffcone.fixtures import sparse_qp_data
from diffcone.solver import (
    MFactor,
    Pattern,
    SolverSettings,
    normalized_point,
    skew_matrix,
    solve,
)


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


def deflated(data, z, u, transpose=False):
    """(M + zhat zhat') u, or its transpose, from the definition
    M = (Q - I) DPi(z) + I, with DPi symmetric and Q' = -Q."""
    Q = skew_matrix(data)
    n = data.A.shape[1]
    zhat = z / np.linalg.norm(z)
    if transpose:
        Mu = dproject_embedding(z, -(Q @ u) - u, data.cones, n) + u
    else:
        p = dproject_embedding(z, u, data.cones, n)
        Mu = Q @ p - p + u
    return Mu + zhat * (zhat @ u)


def boundary_point(data, rng):
    """A random z whose second-order blocks sit on the boundary mantle, so
    DPi has a rank-two term per block."""
    z = rng.standard_normal(sum(data.A.shape) + 1)
    off = data.A.shape[1] + data.cones.n_zero + data.cones.n_nonneg
    for d in data.cones.soc_dims:
        z[off] = 0.3 * np.linalg.norm(z[off + 1:off + d])
        off += d
    z[-1] = 1.0
    return z


def each_backend(monkeypatch):
    """Loops twice: MFactor dense, then on SuperLU, at every size."""
    for order in (np.iinfo(np.int64).max, 0):
        monkeypatch.setattr(solver, "DENSE_ORDER", order)
        yield


class TestMOperator:
    """M + zhat zhat' as ``MFactor`` applies and factors it, against the
    definition M = (Q - I) DPi(z) + I."""

    def test_action_matches_definition(self, rng, monkeypatch):
        for _ in each_backend(monkeypatch):
            data = socp_ball_data(rng)
            N = sum(data.A.shape) + 1
            Q = skew_matrix(data).toarray()
            for z in (rng.standard_normal(N), boundary_point(data, rng)):
                zhat = z / np.linalg.norm(z)
                factor = MFactor(data, z)
                for _ in range(10):
                    u = rng.standard_normal(N)
                    dpi = dproject_embedding(z, u, data.cones,
                                             data.A.shape[1])
                    want = (Q - np.eye(N)) @ dpi + u + zhat * (zhat @ u)
                    np.testing.assert_allclose(factor.apply(u), want,
                                               rtol=0, atol=1e-12)
                    np.testing.assert_allclose(
                        factor.apply(u, transpose=True),
                        deflated(data, z, u, transpose=True),
                        rtol=0, atol=1e-12)

    def test_adjoint_pairing(self, rng, monkeypatch):
        for _ in each_backend(monkeypatch):
            data = socp_ball_data(rng)
            factor = MFactor(data, boundary_point(data, rng))
            for _ in range(20):
                a = rng.standard_normal(factor.size)
                b = rng.standard_normal(factor.size)
                lhs = np.dot(factor.apply(a), b)
                rhs = np.dot(a, factor.apply(b, transpose=True))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_factor_inverts_definition(self, rng, monkeypatch):
        """The lifted matrix's Schur complement is M + zhat zhat': solving
        with its factor inverts the definition's dense matrix."""
        for _ in each_backend(monkeypatch):
            data = socp_ball_data(rng)
            N = sum(data.A.shape) + 1
            for z in (rng.standard_normal(N), boundary_point(data, rng)):
                dense = np.column_stack([deflated(data, z, e)
                                         for e in np.eye(N)])
                factor = MFactor(data, z)
                assert factor.ok
                u = rng.standard_normal(N)
                np.testing.assert_allclose(factor.solve(dense @ u), u,
                                           rtol=0, atol=1e-10)
                np.testing.assert_allclose(factor.solve(dense.T @ u, True), u,
                                           rtol=0, atol=1e-10)


@st.composite
def lifted_programs(draw):
    """A random program over zero, orthant and second-order blocks built
    around a strictly complementary solution (x, y, s), and its point
    z = (x, y - s, 1).  The first second-order block, and any other drawn
    so, has s and y on opposite boundary rays, so the lifted matrix
    carries its lift rows.  n equals the number of active directions, so
    the solution is nondegenerate and M + zhat zhat' is nonsingular."""
    soc_dims = (draw(st.integers(2, 5)),) + tuple(
        draw(st.lists(st.integers(1, 5), max_size=3)))
    spec = ConeSpec(draw(st.integers(0, 3)), draw(st.integers(0, 4)),
                    soc_dims)
    states = ["boundary"] + [draw(st.sampled_from(["boundary", "s", "y"]))
                             for _ in soc_dims[1:]]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = spec.total_dim
    s, y = np.zeros(m), np.zeros(m)
    y[:spec.n_zero] = rng.standard_normal(spec.n_zero)
    active = spec.n_zero
    off = spec.n_zero
    orthant = [(1, side) for side in rng.choice(["s", "y"], spec.n_nonneg)]
    for size, state in orthant + list(zip(soc_dims, states)):
        u = rng.standard_normal(size - 1)
        ray = np.concatenate([[1.0], u / max(np.linalg.norm(u), 1e-300)])
        if state == "boundary" and size > 1:
            s[off:off + size] = rng.uniform(0.5, 1.5) * ray
            y[off:off + size] = rng.uniform(0.5, 1.5) * ray * np.concatenate(
                [[1.0], -np.ones(size - 1)])
            active += 1
        else:
            inside = ray + np.eye(size)[0] * rng.uniform(0.5, 1.5)
            if state == "s":
                s[off:off + size] = inside
            else:
                y[off:off + size] = inside
                active += size
        off += size
    n = active
    A = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    data = ConeProgramData(sp.csr_matrix(A), A @ x + s, -A.T @ y, spec)
    z = np.concatenate([x, y - s, [1.0]])
    return data, z, rng.standard_normal(n + m + 1)


@settings(max_examples=150, deadline=None)
@given(lifted_programs())
def test_ordered_lifted_factor(program):
    """SuperLU's factor of the lifted matrix under K's order, extended by
    the placement rule, solves M + zhat zhat' and its transpose, and
    agrees with a factor under a minimum-degree order of the whole lifted
    matrix.  Draws whose M + zhat zhat' has a condition number of 1e3 or
    more are discarded, about one in five: the residual bound is absolute,
    and SuperLU's threshold pivoting misses it there.  At condition
    numbers 7.5e3 and 9.1e3 the ordered factor's residuals were 1.5 and
    5.7 times the bound, the whole-matrix minimum-degree factor's 0.37
    and 1.4 times; below 1e3 the largest seen was 0.32 times."""
    data, z, rhs = program
    n = data.A.shape[1]
    dense = np.column_stack([deflated(data, z, e) for e in np.eye(z.size)])
    assume(np.linalg.cond(dense) < 1e3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "DENSE_ORDER", 0)
        factor = MFactor(data, z)
    assert factor.ok
    N, places = factor.size, np.concatenate([factor._head, factor._tail])
    lifted = factor._L[places][:, places].tocsc()
    reference = spla.splu(lifted, permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.01,
                          options=dict(SymmetricMode=True))
    padded = np.zeros(factor.order)
    padded[:N] = rhs
    bound = 1e-12 * (1.0 + np.linalg.norm(rhs))
    for transpose in (False, True):
        g = factor.solve(rhs, transpose)
        res = np.linalg.norm(deflated(data, z, g, transpose) - rhs)
        assert res <= bound
        want = reference.solve(padded, "T" if transpose else "N")[:N]
        assert np.linalg.norm(g - want) <= 1e-10 * (1.0 + np.linalg.norm(want))

    # each lift row follows its block's rows; tau and the edge come last
    _, (urow, ucol, _), _ = dproject_embedding_parts(z, data.cones, n)
    for c in np.unique(ucol):
        block = urow[ucol // 2 == c // 2]
        assert places[N + c] > places[block].max()
    assert sorted(places[[N - 1, factor.order - 1]]) == [factor.order - 2,
                                                         factor.order - 1]


class TestSolveMSystem:
    def test_identity_operator_returns_rhs(self):
        """All-polar point: DPi = 0 so M = I regardless of the skew part,
        and (I + zhat zhat')^{-1} = I - zhat zhat' / 2."""
        data = ConeProgramData(sp.csr_matrix((2, 0)), np.zeros(2),
                               np.zeros(0), ConeSpec(0, 2, ()))
        z = np.array([-1.0, -2.0, -3.0])  # strictly inside the polar regions
        zhat = z / np.linalg.norm(z)
        rhs = np.array([1.0, 2.0, 3.0])
        g, info = solve_m_system(MFactor(data, z), rhs)
        np.testing.assert_allclose(g, rhs - zhat * (zhat @ rhs) / 2,
                                   atol=1e-14)
        assert info["mode"] == "direct" and not info["fallback"]

    def test_modes_agree_on_nonsingular_system(self, rng, monkeypatch):
        """The exact factor and the LSQR fallback solve the same system."""
        data = socp_ball_data(rng, n=6, mi=5)
        z = boundary_point(data, rng)
        rhs = rng.standard_normal(z.size)
        for transpose in (False, True):
            exact, info = solve_m_system(MFactor(data, z), rhs, transpose)
            assert info["mode"] == "direct" and not info["fallback"]
            assert info["iterations"] == 0
            with monkeypatch.context() as patch:
                force_fallback(patch)
                factor = MFactor(data, z)
                assert not factor.ok
                lsqr, info = solve_m_system(factor, rhs, transpose)
            assert info["mode"] == "lsqr" and info["fallback"]
            assert info["iterations"] > 0
            np.testing.assert_allclose(exact, lsqr, atol=1e-8, rtol=1e-6)

    def test_backends_agree(self, rng, monkeypatch):
        data = socp_ball_data(rng, n=6, mi=5)
        z = boundary_point(data, rng)
        rhs = rng.standard_normal(z.size)
        dense = MFactor(data, z).solve(rhs, transpose=True)
        monkeypatch.setattr(solver, "DENSE_ORDER", 0)
        sparse = MFactor(data, z).solve(rhs, transpose=True)
        np.testing.assert_allclose(dense, sparse, rtol=0, atol=1e-12)

    def test_transpose_solves(self, rng, monkeypatch):
        for _ in each_backend(monkeypatch):
            data = socp_ball_data(rng)
            z = boundary_point(data, rng)
            rhs = rng.standard_normal(z.size)
            g, info = solve_m_system(MFactor(data, z), rhs, transpose=True)
            assert info["mode"] == "direct"
            res = np.linalg.norm(deflated(data, z, g, transpose=True) - rhs)
            assert res <= 1e-12 * np.linalg.norm(rhs)
            assert info["residual"] == pytest.approx(res, rel=0.5, abs=1e-15)

    def test_inaccurate_solve_falls_back(self, rng, monkeypatch):
        """A factored solution that misses the residual bound gives way to
        LSQR on the same operator: here the dense inverse is off by
        1e-6 in every entry."""
        data = socp_ball_data(rng)
        factor = MFactor(data, boundary_point(data, rng))
        assert factor.ok and factor._inverse is not None
        monkeypatch.setattr(factor, "_inverse", factor._inverse + 1e-6)
        rhs = rng.standard_normal(factor.size)
        g, info = solve_m_system(factor, rhs)
        assert info["mode"] == "lsqr" and info["fallback"]
        assert info["residual"] <= 1e-8 * (1.0 + np.linalg.norm(rhs))

    @pytest.mark.parametrize("n", [20, 48, 64, 200])
    def test_residual_on_sparse_qp(self, n):
        """The exact solve leaves a relative residual below 1e-12 at a
        dense (N 84) and three sparse (N 196, 260, 804) backend sizes."""
        data = sparse_qp_data(n=n, seed=1)
        sol = solve(data, SolverSettings(eps_abs=1e-9, eps_rel=1e-9))
        z = normalized_point(sol)
        rhs = np.random.default_rng(n).standard_normal(z.size)
        g, info = solve_m_system(MFactor(data, z), rhs, transpose=True)
        assert info["mode"] == "direct"
        res = np.linalg.norm(deflated(data, z, g, transpose=True) - rhs)
        assert res <= 1e-12 * np.linalg.norm(rhs)

    def test_lifted_matrix_drops_exact_zeros(self, monkeypatch):
        """At a QP's solution D is 0 on the inactive inequalities and 1 on
        the free variables, which leaves exact zeros in (Q - I) D and on
        the diagonal 1 - D.  Without them SuperLU's factor has less fill
        and solves as exactly."""
        data = sparse_qp_data(n=64, seed=1)
        z = normalized_point(solve(data, SolverSettings(eps_abs=1e-9,
                                                        eps_rel=1e-9)))
        factor = MFactor(data, z)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_nonzero", lambda *entries: entries)
            kept = MFactor(data, z)
        assert factor.ok and factor.order > solver.DENSE_ORDER
        assert factor._L.nnz < kept._L.nnz
        assert factor.nnz < kept.nnz
        rhs = np.random.default_rng(7).standard_normal(z.size)
        for transpose in (False, True):
            g = factor.solve(rhs, transpose)
            res = np.linalg.norm(deflated(data, z, g, transpose) - rhs)
            assert res <= 1e-12 * np.linalg.norm(rhs)

    def test_singular_system_falls_back(self, monkeypatch):
        """Duplicated active rows leave M + zhat zhat' singular: the factor
        fails, and LSQR returns the least-squares solution of minimum
        norm, flagged."""
        for _ in each_backend(monkeypatch):
            A = sp.csr_matrix(np.array([[-1.0], [-1.0]]))
            data = ConeProgramData(A, np.array([-2.0, -2.0]), np.array([1.0]),
                                   ConeSpec(0, 2, ()))
            z = normalized_point(solve(data, TIGHT))
            factor = MFactor(data, z)
            assert not factor.ok
            rhs = np.array([1.0, 1.0, 0.5, -1.0])
            g, info = solve_m_system(factor, rhs)
            assert info["mode"] == "lsqr" and info["fallback"]
            assert np.all(np.isfinite(g))
            dense = np.column_stack([deflated(data, z, e) for e in np.eye(4)])
            np.testing.assert_allclose(
                g, np.linalg.lstsq(dense, rhs, rcond=None)[0], atol=1e-6)


def test_batch_factors_equal_lone_factors(rng, monkeypatch):
    """``MFactor.batch`` assembles every program's M system at once; each
    factor equals its lone ``MFactor`` bit for bit, on either backend, in
    a batch whose programs have no boundary block and one (on SuperLU,
    lifted orders N + 1 and N + 3), and so do their stacked solves and
    products.  Programs of another pattern of A are refused."""
    datas = [socp_ball_data(rng) for _ in range(6)]
    N = sum(datas[0].A.shape) + 1
    zs = [boundary_point(d, rng) for d in datas]
    for z in zs[::2]:  # the ball block strictly inside its cone
        z[-6] = 10.0 * np.linalg.norm(z[-5:-1])
    R = rng.standard_normal((6, N))
    for dense in (True, False):
        monkeypatch.setattr(solver, "DENSE_ORDER", N if dense else N - 1)
        batch = MFactor.batch(datas, zs)
        assert [f.order for f in batch] == (
            [N] * 6 if dense else [N + 1, N + 3] * 3)
        lones = [MFactor(data, z) for data, z in zip(datas, zs)]
        assert sum(f.ok for f in batch) >= 3
        for factor, lone, rhs in zip(batch, lones, R):
            assert (factor.order, factor.nnz, factor.ok) == \
                (lone.order, lone.nnz, lone.ok)
            if dense:
                assert factor.nnz == N * N
                assert np.array_equal(factor._M, lone._M)
                assert np.array_equal(factor._inverse, lone._inverse)
            else:
                assert (factor._L != lone._L).nnz == 0
            for transpose in (False, True):
                assert np.array_equal(factor.apply(rhs, transpose),
                                      lone.apply(rhs, transpose))
                if factor.ok:
                    assert np.array_equal(factor.solve(rhs, transpose),
                                          lone.solve(rhs, transpose))
        ok = [j for j, f in enumerate(batch) if f.ok]
        for transpose in (False, True):
            for inverse, js in ((True, ok), (False, range(6))):
                stacked = solver._products([batch[j] for j in js], R[js],
                                           transpose, inverse)
                for row, j in zip(stacked, js):
                    assert np.array_equal(row, solver._products(
                        [lones[j]], R[j:j + 1], transpose, inverse)[0])
    A = datas[1].A.copy()
    A.data[0] = 0.0
    A.eliminate_zeros()
    other = ConeProgramData(A, datas[1].b, datas[1].c, datas[1].cones)
    with pytest.raises(ShapeError):
        MFactor.batch([datas[0], other], zs[:2])


class TestAdjointDerivative:
    def test_batch_equals_lone_calls(self, rng):
        """A list of programs gives, per program, its lone call's dA, db
        and dc bit for bit and the same solve info; dA holds A's stored
        pattern.  Programs of another pattern of A are refused."""
        datas, sols = [], []
        while len(datas) < 4:
            data = socp_ball_data(rng)
            sol = solve(data, TIGHT)
            if sol.status == "optimal":
                datas.append(data)
                sols.append(sol)
        dx = rng.standard_normal((4, datas[0].A.shape[1]))
        batch = adjoint_derivative(datas, sols, dx)
        for data, sol, d, got in zip(datas, sols, dx, batch):
            want = adjoint_derivative(data, sol, d)
            for a, b in zip(want, got):
                assert np.array_equal(a.toarray() if sp.issparse(a) else a,
                                      b.toarray() if sp.issparse(b) else b)
            assert want.info == got.info
            assert np.array_equal(got.dA.indices, data.A.indices)
        assert adjoint_derivative([], [], np.zeros((0, 4))) == []
        with pytest.raises(ShapeError):
            adjoint_derivative(datas, sols, dx[:3])
        A = datas[1].A.copy()
        A.data[0] = 0.0
        A.eliminate_zeros()
        other = ConeProgramData(A, datas[1].b, datas[1].c, datas[1].cones)
        factors = [MFactor(d, normalized_point(s))
                   for d, s in zip(datas[:2], sols[:2])]
        with pytest.raises(ShapeError):  # even with every factor given
            adjoint_derivative([datas[0], other], sols[:2], dx[:2],
                               factor=factors)

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
        adj = adjoint_derivative(data, sol, np.array([1.0]))
        assert np.all(np.isfinite(adj.dA.toarray()))
        assert np.all(np.isfinite(adj.db))
        assert np.all(np.isfinite(adj.dc))
        assert adj.info["fallback"] and adj.info["mode"] == "lsqr"
        # the two redundant rows share the sensitivity: their sum matches
        # the non-degenerate bound derivative
        np.testing.assert_allclose(np.sum(adj.db), -1.0, atol=1e-6)


class TestInputValidation:
    """Malformed cotangents and perturbations raise ``ShapeError``,
    non-finite ones ``SolverInputError``."""

    @pytest.mark.parametrize("dx, error", [
        ("abc", ShapeError),
        ([[1.0], [1.0, 2.0]], ShapeError),
        ([1.0, 2.0], ShapeError),
        ([np.nan], SolverInputError),
        ([np.inf], SolverInputError),
    ], ids=["non-numeric", "ragged", "length", "nan", "inf"])
    def test_adjoint_cotangent(self, dx, error):
        data = one_d_lp()
        sol = solve(data, TIGHT)
        with pytest.raises(error):
            adjoint_derivative(data, sol, dx)

    @pytest.mark.parametrize("dA, db, dc, error", [
        ("abc", [0.0], [0.0], ShapeError),
        ([[1.0], [1.0, 2.0]], [0.0], [0.0], ShapeError),
        ([[1.0]], "abc", [0.0], ShapeError),
        ([[1.0]], [0.0], [[0.0], [1.0, 2.0]], ShapeError),
        ([[1.0, 2.0]], [0.0], [0.0], ShapeError),
        ([[np.nan]], [0.0], [0.0], SolverInputError),
        (sp.csr_matrix([[np.inf]]), [0.0], [0.0], SolverInputError),
        ([[1.0]], [np.inf], [0.0], SolverInputError),
        ([[1.0]], [0.0], [np.nan], SolverInputError),
    ], ids=["dA-non-numeric", "dA-ragged", "db-non-numeric", "dc-ragged",
            "dA-shape", "dA-nan", "dA-sparse-inf", "db-inf", "dc-nan"])
    def test_forward_perturbation(self, dA, db, dc, error):
        data = one_d_lp()
        sol = solve(data, TIGHT)
        with pytest.raises(error):
            forward_derivative(data, sol, dA, db, dc)

    @pytest.mark.parametrize("call", [
        lambda data, sol, z, dx, rhs: solve_m_system(5, rhs),
        lambda data, sol, z, dx, rhs: solve_m_system([1, 2], rhs),
        lambda data, sol, z, dx, rhs: MFactor("x", z),
        lambda data, sol, z, dx, rhs: MFactor.batch(["x"], [z]),
        lambda data, sol, z, dx, rhs: MFactor.batch(data, [z]),
        lambda data, sol, z, dx, rhs: MFactor(data, z[:-1]),
        lambda data, sol, z, dx, rhs: MFactor(data, z, np.arange(1)),
        lambda data, sol, z, dx, rhs: MFactor(data, z, Pattern(
            sp.csr_matrix(np.ones((2, 1))), ConeSpec(0, 2, ()))),
        lambda data, sol, z, dx, rhs: MFactor.batch([data], [z], Pattern(
            sp.csr_matrix((1, 2)), ConeSpec(0, 1, ()))),
        lambda data, sol, z, dx, rhs: adjoint_derivative(data, sol, dx,
                                                         factor="x"),
        lambda data, sol, z, dx, rhs: adjoint_derivative(data, 5, dx),
        lambda data, sol, z, dx, rhs: adjoint_derivative([data], sol,
                                                         dx[None]),
        lambda data, sol, z, dx, rhs: adjoint_derivative(["x"], [sol],
                                                         dx[None]),
        lambda data, sol, z, dx, rhs: forward_derivative(
            data, sol, [[0.0]], [0.0], [0.0], factor="x"),
        lambda data, sol, z, dx, rhs: forward_derivative(
            "x", sol, [[0.0]], [0.0], [0.0]),
    ], ids=["solve-int", "solve-ints", "factor-str", "batch-strs",
            "batch-not-a-list", "factor-short-point", "factor-order",
            "factor-foreign-pattern", "batch-foreign-pattern",
            "adjoint-factor-str", "adjoint-sol-int", "adjoint-sol-not-a-list",
            "adjoint-data-strs",
            "forward-factor-str", "forward-data-str"])
    def test_malformed_arguments(self, call):
        """Arguments of the wrong kind raise ``ShapeError``, not the
        ``TypeError`` or ``AttributeError`` of whatever touches them
        first."""
        data = one_d_lp()
        sol = solve(data, TIGHT)
        z = normalized_point(sol)
        with pytest.raises(ShapeError):
            call(data, sol, z, np.ones(1), np.ones(z.size))

    @pytest.mark.parametrize("point", [np.nan, 0.0], ids=["nan", "zero"])
    def test_undefined_point(self, point):
        """M is not defined at a non-finite or zero point: every derivative
        entry point raises ``SolverInputError`` there, before any factor
        or LSQR runs."""
        data = one_d_lp()
        sol = solve(data, TIGHT)
        z = normalized_point(sol)
        bad = np.full(z.size, point)
        calls = [lambda: MFactor(data, bad),
                 lambda: MFactor.batch([data, data], [z, bad]),
                 lambda: adjoint_derivative(data, sol, [1.0], z=bad),
                 lambda: forward_derivative(data, sol, [[1.0]], [0.0], [0.0],
                                            z=bad)]
        for call in calls:
            with pytest.raises(SolverInputError):
                call()
