"""Projection and projection-derivative properties per cone kind."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from diffcone.cones import (
    RUN_MIN_BLOCKS,
    ConeBlock,
    ConeSpec,
    dproject,
    dproject_embedding,
    dproject_embedding_parts,
    dual_block,
    project,
    project_embedding,
    smooth_margin,
)
from diffcone.errors import ShapeError

BLOCKS = [
    ConeBlock("zero", 3),
    ConeBlock("free", 3),
    ConeBlock("nonneg", 4),
    ConeBlock("soc", 4),
]


def sample_for(block, rng, scale=2.0):
    return scale * rng.standard_normal(block.dim)


def parts_matrix(z, spec, n):
    """D + U C U' from ``dproject_embedding_parts``, as a sparse matrix."""
    D, (rows, cols, vals), C = dproject_embedding_parts(z, spec, n)
    U = sp.csr_matrix((vals, (rows, cols)), shape=(z.size, 2 * len(C)))
    return sp.diags(D) + U @ sp.block_diag(C) @ U.T if len(C) else \
        sp.diags(D)


class TestDuality:
    def test_dual_pairs(self):
        assert dual_block(ConeBlock("zero", 2)) == ConeBlock("free", 2)
        assert dual_block(ConeBlock("free", 2)) == ConeBlock("zero", 2)
        assert dual_block(ConeBlock("nonneg", 2)) == ConeBlock("nonneg", 2)
        assert dual_block(ConeBlock("soc", 3)) == ConeBlock("soc", 3)

    def test_bad_kind(self):
        with pytest.raises(ShapeError):
            ConeBlock("exp", 3)


class TestProjectExamples:
    def test_nonneg_clamp(self):
        out = project(ConeBlock("nonneg", 2), np.array([1.0, -2.0]))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_soc_interior_fixed(self):
        v = np.array([2.0, 1.0, 0.0])
        np.testing.assert_array_equal(project(ConeBlock("soc", 3), v), v)

    def test_soc_polar_maps_to_zero(self):
        v = np.array([-2.0, 1.0, 0.0])
        np.testing.assert_array_equal(project(ConeBlock("soc", 3), v),
                                      np.zeros(3))

    def test_soc_boundary_case_matches_numeric_argmin(self):
        v = np.array([0.0, 1.0, 0.0])
        got = project(ConeBlock("soc", 3), v)
        np.testing.assert_allclose(got, [0.5, 0.5, 0.0], atol=1e-12)

        def objective(u):
            return np.sum((u - v) ** 2)

        cons = {"type": "ineq",
                "fun": lambda u: u[0] - np.linalg.norm(u[1:])}
        res = scipy_minimize(objective, np.array([1.0, 0.3, 0.1]),
                             constraints=[cons], method="SLSQP",
                             options={"ftol": 1e-14, "maxiter": 500})
        np.testing.assert_allclose(got, res.x, atol=1e-6)

    def test_soc_dim1_is_halfline(self):
        assert project(ConeBlock("soc", 1), np.array([-2.0]))[0] == 0.0
        assert project(ConeBlock("soc", 1), np.array([2.0]))[0] == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            project(ConeBlock("nonneg", 2), np.zeros(3))


class TestProjectionProperties:
    N_POINTS = 1000

    def test_idempotence(self, rng):
        for block in BLOCKS:
            for _ in range(self.N_POINTS // 10):
                v = sample_for(block, rng)
                once = project(block, v)
                twice = project(block, once)
                np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_nonexpansiveness(self, rng):
        for block in BLOCKS:
            for _ in range(self.N_POINTS // 10):
                u = sample_for(block, rng)
                v = sample_for(block, rng)
                lhs = np.linalg.norm(project(block, u) - project(block, v))
                assert lhs <= np.linalg.norm(u - v) + 1e-12

    def test_moreau_decomposition(self, rng):
        for block in BLOCKS:
            dual = dual_block(block)
            for _ in range(self.N_POINTS // 10):
                v = sample_for(block, rng)
                recomposed = project(block, v) - project(dual, -v)
                np.testing.assert_allclose(recomposed, v, atol=1e-12)

    def test_derivative_matches_finite_differences(self, rng):
        h = 1e-6
        for block in BLOCKS:
            checked = 0
            while checked < self.N_POINTS // 4:
                v = sample_for(block, rng)
                if block.kind == "soc":
                    t, x = v[0], v[1:]
                    if abs(np.linalg.norm(x) - abs(t)) < 1e-3:
                        continue  # skip the nonsmooth boundary
                elif block.kind == "nonneg" and np.min(np.abs(v)) < 1e-3:
                    continue
                dv = rng.standard_normal(block.dim)
                fd = (project(block, v + h * dv)
                      - project(block, v - h * dv)) / (2 * h)
                got = dproject(block, v, dv)
                np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)
                checked += 1

    def test_derivative_is_symmetric(self, rng):
        for block in BLOCKS:
            for _ in range(self.N_POINTS // 10):
                v = sample_for(block, rng)
                a = rng.standard_normal(block.dim)
                b = rng.standard_normal(block.dim)
                lhs = np.dot(dproject(block, v, a), b)
                rhs = np.dot(a, dproject(block, v, b))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestDprojectExamples:
    def test_nonneg_mask(self):
        v = np.array([1.0, -2.0])
        dv = np.array([3.0, 4.0])
        np.testing.assert_array_equal(
            dproject(ConeBlock("nonneg", 2), v, dv), [3.0, 0.0])

    def test_soc_interior_identity(self, rng):
        v = np.array([5.0, 1.0, 0.5])
        dv = rng.standard_normal(3)
        np.testing.assert_array_equal(dproject(ConeBlock("soc", 3), v, dv), dv)

    def test_soc_mantle_point_matches_finite_differences(self, rng):
        # (0, 1, 0) sits on the smooth part of the mantle region
        v = np.array([0.0, 1.0, 0.0])
        h = 1e-6
        for _ in range(5):
            dv = rng.standard_normal(3)
            fd = (project(ConeBlock("soc", 3), v + h * dv)
                  - project(ConeBlock("soc", 3), v - h * dv)) / (2 * h)
            got = dproject(ConeBlock("soc", 3), v, dv)
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)

    def test_soc_boundary_matches_finite_differences(self, rng):
        # the nonsmooth mantle point uses the boundary-formula limit, which
        # matches one-sided differences along directions staying on the cone
        v = np.array([1.0, 1.0, 0.0])  # ||x|| == t exactly
        dv = rng.standard_normal(3)
        got = dproject(ConeBlock("soc", 3), v, dv)
        # compare against the formula at a nearby smooth mantle point
        v_eps = np.array([1.0, 1.0 + 1e-9, 0.0])
        near = dproject(ConeBlock("soc", 3), v_eps, dv)
        np.testing.assert_allclose(got, near, atol=1e-7)


class TestEmbedding:
    def spec(self):
        return ConeSpec(n_zero=2, n_nonneg=3, soc_dims=(3,))

    def test_feasible_point_fixed(self, rng):
        spec = self.spec()
        n = 2
        y = np.concatenate([rng.standard_normal(2),      # free rows (dual of zero)
                            np.abs(rng.standard_normal(3)),
                            [5.0], rng.standard_normal(2)])
        z = np.concatenate([rng.standard_normal(n), y, [1.0]])
        np.testing.assert_allclose(project_embedding(z, spec, n), z, atol=0)

    def test_negative_scale_clamped(self, rng):
        spec = self.spec()
        z = np.concatenate([rng.standard_normal(2),
                            rng.standard_normal(spec.total_dim), [-3.0]])
        out = project_embedding(z, spec, 2)
        assert out[-1] == 0.0
        np.testing.assert_array_equal(out[:2], z[:2])

    def test_projection_optimality_identity(self, rng):
        """<Pi(z) - z, Pi(z)> = 0 blockwise (self-dual or zero/free blocks)."""
        spec = self.spec()
        n = 2
        for _ in range(50):
            z = rng.standard_normal(n + spec.total_dim + 1) * 3
            pz = project_embedding(z, spec, n)
            off = n
            for blk in spec.dual_blocks():
                seg = slice(off, off + blk.dim)
                inner = np.dot(pz[seg] - z[seg], pz[seg])
                assert abs(inner) <= 1e-10
                off += blk.dim

    def test_jacobian_matches_operator(self, rng):
        spec = self.spec()
        n = 2
        N = n + spec.total_dim + 1
        for _ in range(10):
            z = rng.standard_normal(N)
            J = parts_matrix(z, spec, n)
            dz = rng.standard_normal(N)
            np.testing.assert_allclose(J @ dz,
                                       dproject_embedding(z, dz, spec, n),
                                       rtol=0, atol=1e-13)

    def test_dimension_check(self):
        with pytest.raises(ShapeError):
            project_embedding(np.zeros(3), self.spec(), 2)

    def test_smooth_margin_flags_boundary(self):
        spec = ConeSpec(0, 2, ())
        z = np.array([0.5, 1.0, 0.0, 1.0])  # one orthant row exactly at 0
        assert smooth_margin(z, spec, 1) == 0.0
        z2 = np.array([0.5, 1.0, -0.4, 1.0])
        assert smooth_margin(z2, spec, 1) == pytest.approx(0.4)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["nonneg", "soc", "free", "zero"]))
def test_projection_is_idempotent_and_in_cone(seed, kind):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 6)) if kind != "soc" else int(rng.integers(2, 6))
    block = ConeBlock(kind, dim)
    v = 3 * rng.standard_normal(dim)
    p = project(block, v)
    np.testing.assert_allclose(project(block, p), p, atol=1e-12)
    if kind == "nonneg":
        assert np.all(p >= 0)
    elif kind == "zero":
        assert np.all(p == 0)
    elif kind == "soc":
        assert np.linalg.norm(p[1:]) <= p[0] + 1e-12


class TestRunTable:
    def test_runs_group_equal_dimensions(self):
        spec = ConeSpec(2, 3, (1, 1, 3, 3, 3, 2, 4, 4, 1))
        assert spec.soc_runs == ((5, 7, 2, 1), (7, 16, 3, 3), (16, 18, 1, 2),
                                 (18, 26, 2, 4), (26, 27, 1, 1))
        assert ConeSpec(1, 2, ()).soc_runs == ()


# x parts with norms that are exact in any summation order, so points built
# from them sit exactly on ||x|| = |t| for every norm the kernels compute
_EXACT_NORM_X = {1: [3.0], 2: [3.0, 4.0], 3: [1.0, 2.0, 2.0],
                 4: [2.0, 4.0, 5.0, 6.0]}


def _random_run_spec(rng):
    """Mixes d == 1 blocks, equal-dimension runs of every length around
    RUN_MIN_BLOCKS, and runs broken by a block of another dimension."""
    dims = []
    for _ in range(int(rng.integers(1, 6))):
        d = int(rng.choice([1, 2, 3, 5]))
        dims += [d] * int(rng.integers(1, 2 * RUN_MIN_BLOCKS))
    return ConeSpec(int(rng.integers(0, 3)), int(rng.integers(0, 4)),
                    tuple(dims))


def _force_case(rng, block):
    """A random point of one second-order block, or one forced onto the
    apex, into the polar cone, or onto the boundary ||x|| = |t|."""
    case = rng.choice(["random", "apex", "polar", "boundary"])
    d = block.size
    if case == "random" or d == 1:
        return
    if case == "apex":
        block[:] = 0.0
    elif case == "polar":
        block[0] = -np.linalg.norm(block[1:]) - rng.exponential()
    else:
        x = rng.permutation(_EXACT_NORM_X[d - 1]) * rng.choice([-1.0, 1.0], d - 1)
        x *= 2.0 ** int(rng.integers(-3, 4))
        block[1:] = x
        block[0] = rng.choice([-1.0, 1.0]) * np.sqrt(np.sum(x * x))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_run_kernel_matches_blockwise_reference(seed):
    """The run-table walk against project/dproject applied block by block.

    Free and orthant rows and the blocks of runs shorter than
    RUN_MIN_BLOCKS (scalar path) match exactly; blocks of vectorised runs
    match to 1e-15 relative to the block's input.  The split DPi = D + U C U'
    of ``dproject_embedding_parts`` matches ``dproject_embedding`` to 1e-13.
    A stack of points projects each exactly as it projects alone.
    """
    rng = np.random.default_rng(seed)
    spec = _random_run_spec(rng)
    n = int(rng.integers(0, 3))
    m = spec.total_dim
    z = 2.0 * rng.standard_normal(n + m + 1)
    dz = rng.standard_normal(n + m + 1)
    vectorised = np.zeros(n + m + 1, dtype=bool)
    off = n + spec.n_zero + spec.n_nonneg
    for d in spec.soc_dims:
        _force_case(rng, z[off:off + d])
        off += d
    for start, stop, k, d in spec.soc_runs:
        vectorised[n + start:n + stop] = d > 1 and k >= RUN_MIN_BLOCKS

    pz = project_embedding(z, spec, n)
    dpz = dproject_embedding(z, dz, spec, n)
    want_p, want_dp = z.copy(), dz.copy()
    want_p[-1] = max(z[-1], 0.0)
    want_dp[-1] = dz[-1] if z[-1] > 0 else 0.0
    off = n
    for blk in spec.dual_blocks():
        seg = slice(off, off + blk.dim)
        want_p[seg] = project(blk, z[seg])
        want_dp[seg] = dproject(blk, z[seg], dz[seg])
        if vectorised[off]:
            scale_p = np.max(np.abs(z[seg]))
            scale_dp = np.max(np.abs(dz[seg]))
            assert np.max(np.abs(pz[seg] - want_p[seg])) <= 1e-15 * scale_p
            assert np.max(np.abs(dpz[seg] - want_dp[seg])) <= 1e-15 * scale_dp
        off += blk.dim
    np.testing.assert_array_equal(pz[~vectorised], want_p[~vectorised])
    np.testing.assert_array_equal(dpz[~vectorised], want_dp[~vectorised])

    # DPi = D + U C U' along the same direction, apex, polar and exact
    # boundary blocks included
    np.testing.assert_allclose(parts_matrix(z, spec, n) @ dz, dpz,
                               rtol=0, atol=1e-13)

    # a (B, N) stack projects each row bit for bit as it projects alone,
    # also where B rows of a short run reach RUN_MIN_BLOCKS blocks
    rows = [z]
    for _ in range(int(rng.integers(0, 2 * RUN_MIN_BLOCKS))):
        rows.append(2.0 * rng.standard_normal(n + m + 1))
        off = n + spec.n_zero + spec.n_nonneg
        for d in spec.soc_dims:
            _force_case(rng, rows[-1][off:off + d])
            off += d
    stacked = project_embedding(np.stack(rows), spec, n)
    for row, got in zip(rows, stacked):
        np.testing.assert_array_equal(got, project_embedding(row, spec, n))
