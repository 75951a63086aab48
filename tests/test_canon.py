"""Lowering and compiled-map tests, anchored by two independent oracles:

- recanonicalization: substitute parameter values as constants, lower and
  extract from scratch, and compare with the cached contraction;
- numeric evaluation: materialized rows must satisfy b - A x = value of the
  lowered constraint expression at the same point.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from diffcone.canon import (
    build_asa,
    canonicalize,
    lower,
    materialize,
    materialize_adjoint,
    retrieve,
)
from diffcone.errors import CompileError, ShapeError
from diffcone.expressions import (
    constant,
    evaluate,
    matmul,
    multiply,
    norm2,
    parameter,
    sum_entries,
    sum_squares,
    variable,
)
from diffcone.fixtures import gen_random_dpp, gradient_fixtures
from diffcone.layer import Layer
from diffcone.problem import Problem, check_dpp, eq, ge, substitute_parameters


def regularized_least_squares(n=2, m=3):
    x = variable("x", n)
    F = parameter("F", (m, n))
    g = parameter("g", m)
    lam = parameter("lam", nonneg=True)
    return Problem("minimize", norm2(F @ x - g) + lam * norm2(x), [ge(x, 0)])


def sample_values(problem, rng):
    out = {}
    for p in problem.parameters:
        v = rng.standard_normal(p.shape.dims)
        out[p.name] = np.abs(v) if p.nonneg else (-np.abs(v) if p.nonpos else v)
    return out


def fresh_extraction(problem, values):
    """Recanonicalize with parameters folded to constants."""
    asa0 = canonicalize(substitute_parameters(problem, values))
    return materialize(asa0, np.zeros(0)), asa0


class TestLower:
    def test_least_squares_graph_expansion(self):
        low = lower(regularized_least_squares())
        kinds = [c.kind for c in low.constraints]
        assert kinds == ["nonneg", "soc", "soc"]
        assert [c.expr.shape.size for c in low.constraints] == [2, 4, 3]
        assert len(low.aux_variables) == 2

    def test_fully_affine_problem_has_no_aux(self):
        x = variable("x", 2)
        prob = Problem("minimize", sum_entries(x), [ge(x, 0), eq(x[0], 1.0)])
        low = lower(prob)
        assert not low.aux_variables
        assert [c.kind for c in low.constraints] == ["zero", "nonneg"]

    def test_sum_squares_epigraph_boundary(self):
        """The lowered block admits t = ||x||^2 exactly on the cone boundary."""
        x = variable("x", 2)
        prob = Problem("minimize", sum_squares(x))
        low = lower(prob)
        (con,) = low.constraints
        assert con.kind == "soc"
        t_name = low.aux_variables[0].name
        xv = np.array([3.0, 4.0])
        v25 = evaluate(con.expr, {"x": xv, t_name: 25.0})
        # (1+t, 1-t, 2x): membership with equality at t = ||x||^2 = 25
        assert np.isclose(v25[0], np.linalg.norm(v25[1:]))
        v24 = evaluate(con.expr, {"x": xv, t_name: 24.9})
        assert v24[0] < np.linalg.norm(v24[1:])  # infeasible below 25
        v26 = evaluate(con.expr, {"x": xv, t_name: 26.0})
        assert v26[0] > np.linalg.norm(v26[1:])  # strictly feasible above

    def test_rejects_invalid_problem(self):
        p1, p2 = parameter("p1"), parameter("p2")
        prob = Problem("minimize", multiply(p1, p2) + sum_squares(variable("x")))
        with pytest.raises(CompileError, match="parameter-product"):
            lower(prob)

    def test_deep_sum_lowers(self, rng):
        """A sum of 3000 norms built with + nests 3000 deep, three times
        Python's default recursion limit: it builds, verifies, evaluates,
        has its parameters substituted and lowers, in the order of its
        terms."""
        k = 3000
        x = variable("x", 3)
        objective = norm2(x - parameter("p0", 3))
        for i in range(1, k):
            objective = objective + norm2(x - parameter(f"p{i}", 3))
        prob = Problem("minimize", objective)
        assert [p.name for p in prob.parameters] == [f"p{i}" for i in range(k)]
        assert check_dpp(prob).valid
        values = {p.name: rng.standard_normal(3) for p in prob.parameters}
        xv = rng.standard_normal(3)
        want = sum(np.linalg.norm(xv - values[f"p{i}"]) for i in range(k))
        np.testing.assert_allclose(evaluate(objective, dict(values, x=xv)), want)
        folded = substitute_parameters(prob, values)
        assert not folded.parameters
        np.testing.assert_allclose(evaluate(folded.objective, {"x": xv}), want)
        low = lower(prob)
        assert [v.name for v in low.aux_variables] == [
            f"_t{i}" for i in range(1, k + 1)]
        assert [c.kind for c in low.constraints] == ["soc"] * k


class TestWorkedExample:
    """The n=2, m=3 least-squares program reproduces the canonical blocks."""

    def setup_method(self):
        self.n, self.m = 2, 3
        self.prob = regularized_least_squares(self.n, self.m)
        self.asa = canonicalize(self.prob)
        rng = np.random.default_rng(42)
        self.values = {"F": rng.standard_normal((self.m, self.n)),
                       "g": rng.standard_normal(self.m),
                       "lam": 0.7}
        self.data = materialize(self.asa,
                                self.asa.flatten_params(self.values))

    def _display_rows(self):
        """Canonical rows -> displayed order: both second-order blocks
        first, then the orthant block."""
        n, m = self.n, self.m
        rows = np.arange(m + 1 + n + 1 + n)
        return np.concatenate([rows[n:n + m + 1], rows[n + m + 1:], rows[:n]])

    def test_cone_structure(self):
        assert self.asa.cones.n_zero == 0
        assert self.asa.cones.n_nonneg == self.n
        assert self.asa.cones.soc_dims == (self.m + 1, self.n + 1)

    def test_block_display_exact(self):
        n, m = self.n, self.m
        F, g, lam = (self.values[k] for k in ("F", "g", "lam"))
        perm = self._display_rows()
        A = self.data.A.toarray()[perm]
        b = self.data.b[perm]
        expect_A = np.zeros((m + n + n + 2, n + 2))
        expect_A[0, 0] = -1.0                     # t1 row of the first block
        expect_A[1:m + 1, 2:] = -F                # -F block
        expect_A[m + 1, 1] = -1.0                 # t2 row of the second block
        expect_A[m + 2:m + 2 + n, 2:] = -np.eye(n)
        expect_A[m + 2 + n:, 2:] = -np.eye(n)     # orthant block
        expect_b = np.zeros(m + n + n + 2)
        expect_b[1:m + 1] = -g
        assert np.array_equal(A, expect_A)        # zero tolerance
        assert np.array_equal(b, expect_b)
        expect_c = np.zeros(n + 2)
        expect_c[0] = 1.0
        expect_c[1] = lam
        assert np.array_equal(self.data.c, expect_c)

    def test_parameters_are_copied_not_transformed(self):
        """Every A entry is 0, +-1, or an exact negated parameter entry."""
        F = self.values["F"]
        vals = set(np.round(self.data.A.toarray().ravel(), 15))
        allowed = {0.0, -1.0} | {round(-f, 15) for f in F.ravel()}
        assert vals <= allowed


class TestAsaEquivalence:
    def test_cached_equals_fresh_on_worked_example(self, rng):
        prob = regularized_least_squares()
        asa = canonicalize(prob)
        for _ in range(10):
            values = sample_values(prob, rng)
            data = materialize(asa, asa.flatten_params(values))
            fresh, _ = fresh_extraction(prob, values)
            np.testing.assert_allclose(data.A.toarray(), fresh.A.toarray(),
                                       atol=1e-14)
            np.testing.assert_allclose(data.b, fresh.b, atol=1e-14)
            np.testing.assert_allclose(data.c, fresh.c, atol=1e-14)
            assert data.cones == fresh.cones

    def test_cached_equals_fresh_on_random_programs(self, rng):
        for seed in range(50):
            prob = gen_random_dpp(seed, n_vars=1 + seed % 2,
                                  n_params=seed % 4)
            asa = canonicalize(prob)
            values = sample_values(prob, rng)
            data = materialize(asa, asa.flatten_params(values))
            fresh, _ = fresh_extraction(prob, values)
            np.testing.assert_allclose(data.A.toarray(), fresh.A.toarray(),
                                       atol=1e-14, rtol=1e-12)
            np.testing.assert_allclose(data.b, fresh.b, atol=1e-14, rtol=1e-12)
            np.testing.assert_allclose(data.c, fresh.c, atol=1e-14, rtol=1e-12)

    def test_materialized_rows_satisfy_evaluation_oracle(self, rng):
        for seed in (0, 3, 11):
            prob = gen_random_dpp(seed, n_vars=2, n_params=seed % 4)
            low = lower(prob)
            asa = build_asa(low)
            values = sample_values(prob, rng)
            data = materialize(asa, asa.flatten_params(values))
            xt = rng.standard_normal(asa.n_cone_vars)
            env = dict(values)
            for slot in asa.cone_var_layout:
                piece = xt[slot.offset:slot.offset + slot.size]
                env[slot.name] = piece.reshape(slot.dims, order="F") \
                    if slot.dims else piece[0]
            s = data.b - data.A @ xt
            row = 0
            for con in low.constraints:
                val = np.ravel(evaluate(con.expr, env), order="F")
                np.testing.assert_allclose(s[row:row + val.size], val,
                                           atol=1e-10)
                row += val.size
            obj = evaluate(low.objective, env)
            theta_aug = asa.theta_aug(asa.flatten_params(values))
            np.testing.assert_allclose(
                data.c @ xt + asa.objective_offset_map @ theta_aug, obj,
                atol=1e-10)


class TestMaterialize:
    def test_zero_parameters_leave_constant_entries(self):
        prob = regularized_least_squares()
        asa = canonicalize(prob)
        data = materialize(asa, np.zeros(asa.n_params))
        A = data.A.toarray()
        assert set(np.unique(A)) <= {0.0, -1.0}
        np.testing.assert_array_equal(data.b, np.zeros(asa.n_rows))
        expect_c = np.zeros(asa.n_cone_vars)
        expect_c[0] = 1.0
        np.testing.assert_array_equal(data.c, expect_c)

    def test_parameterless_problem_constant_slice_only(self):
        x = variable("x", 2)
        prob = Problem("minimize", sum_squares(x - constant(np.ones(2))),
                       [ge(x, 0)])
        asa = canonicalize(prob)
        assert asa.n_params == 0
        assert asa._a_coeff.shape == (asa._a_rows.size, 1)
        assert asa._b_map.shape == (asa.n_rows, 1)
        assert asa.c_map.shape[1] == 1

    def test_constraint_free_program(self):
        """A program without constraint rows (m = 0) compiles, materializes
        and solves: optimal at q = 0, unbounded otherwise."""
        x, q = variable("x", 3), parameter("q", 3)
        prob = Problem("minimize", matmul(q, x))
        asa = canonicalize(prob)
        assert asa.n_rows == 0
        assert asa._a_coeff.shape == (0, 4) and asa._b_map.shape == (0, 4)
        data = materialize(asa, np.array([1.0, -2.0, 0.5]))
        assert data.A.shape == (0, 3) and data.b.shape == (0,)
        np.testing.assert_array_equal(data.c, [1.0, -2.0, 0.5])
        layer = Layer.compile(prob)
        res = layer.forward({"q": np.zeros(3)})
        assert res.ok
        np.testing.assert_array_equal(res.outputs["x"], np.zeros(3))
        assert layer.forward({"q": np.array([1.0, -2.0, 0.5])}).status \
            == "unbounded"

    def test_affine_in_theta(self, rng):
        prob = regularized_least_squares()
        asa = canonicalize(prob)
        t1 = rng.standard_normal(asa.n_params)
        t2 = rng.standard_normal(asa.n_params)
        alpha = 0.3
        da = materialize(asa, alpha * t1 + (1 - alpha) * t2)
        d1 = materialize(asa, t1)
        d2 = materialize(asa, t2)
        np.testing.assert_allclose(
            da.A.toarray(), alpha * d1.A.toarray() + (1 - alpha) * d2.A.toarray(),
            atol=1e-14)
        np.testing.assert_allclose(da.b, alpha * d1.b + (1 - alpha) * d2.b,
                                   atol=1e-14)
        np.testing.assert_allclose(da.c, alpha * d1.c + (1 - alpha) * d2.c,
                                   atol=1e-14)

    def test_doubling_theta_doubles_parameter_contributions(self, rng):
        prob = regularized_least_squares()
        asa = canonicalize(prob)
        t = rng.standard_normal(asa.n_params)
        d0 = materialize(asa, np.zeros(asa.n_params))
        d1 = materialize(asa, t)
        d2 = materialize(asa, 2 * t)
        np.testing.assert_allclose(
            d2.A.toarray() - d0.A.toarray(),
            2 * (d1.A.toarray() - d0.A.toarray()), atol=1e-13)
        np.testing.assert_allclose(d2.b - d0.b, 2 * (d1.b - d0.b), atol=1e-13)
        np.testing.assert_allclose(d2.c - d0.c, 2 * (d1.c - d0.c), atol=1e-13)

    def test_wrong_theta_length(self):
        asa = canonicalize(regularized_least_squares())
        with pytest.raises(ShapeError, match="length"):
            materialize(asa, np.zeros(asa.n_params + 1))
        with pytest.raises(ShapeError, match="length"):
            materialize(asa, np.zeros((2, asa.n_params + 1)))

    @staticmethod
    def assert_stack_equals_lone(asa, thetas):
        """``materialize`` of the stack gives each row's program bit for
        bit: A's entries, b and c equal the one-vector products of the
        maps with the row's theta_aug, and ``materialize`` of the row
        alone; A keeps its pattern."""
        programs = materialize(asa, thetas)
        assert len(programs) == len(thetas)
        for theta, data in zip(thetas, programs):
            ta = np.append(theta, 1.0)
            lone = materialize(asa, theta)
            for got, want in ((data.A.data, asa._a_coeff @ ta),
                              (data.b, asa._b_map @ ta),
                              (data.c, asa.c_map @ ta),
                              (lone.A.data, asa._a_coeff @ ta),
                              (lone.b, asa._b_map @ ta),
                              (lone.c, asa.c_map @ ta)):
                assert np.array_equal(got, want)
            assert np.array_equal(data.A.indices, asa._a_cols)
            assert np.array_equal(data.A.indptr, asa._a_indptr)
            assert data.cones == asa.cones

    def test_stack_equals_lone_on_gradient_fixtures(self, rng):
        for fx in gradient_fixtures():
            layer = Layer.compile(fx.problem)
            thetas = np.array([layer._bind(fx.sample(rng))
                               for _ in range(5)])
            self.assert_stack_equals_lone(layer.asa, thetas)

    def test_stack_equals_lone_on_random_programs(self, rng):
        for seed in range(100):
            prob = gen_random_dpp(seed, n_vars=1 + seed % 3,
                                  n_params=seed % 4)
            asa = canonicalize(prob)
            thetas = np.array([asa.flatten_params(sample_values(prob, rng))
                               for _ in range(1 + seed % 4)])
            self.assert_stack_equals_lone(asa, thetas)

    def test_shared_pattern_is_read_only(self, rng):
        """The programs of a stack share A's index arrays, which no
        in-place operation may change; each has its own entries."""
        asa = canonicalize(regularized_least_squares())
        first, second = materialize(asa, rng.standard_normal(
            (2, asa.n_params)))
        assert first.A.indices is second.A.indices
        with pytest.raises(ValueError):
            first.A.indices[0] = 1
        before = second.A.data.copy()
        first.A.data += 1.0
        assert np.array_equal(second.A.data, before)


class TestMaterializeAdjoint:
    def test_zero_cotangents(self):
        asa = canonicalize(regularized_least_squares())
        data = materialize(asa, np.zeros(asa.n_params))
        dA = sp.csr_matrix(data.A.shape)
        dtheta = materialize_adjoint(asa, dA, np.zeros(asa.n_rows),
                                     np.zeros(asa.n_cone_vars))
        np.testing.assert_array_equal(dtheta, np.zeros(asa.n_params))

    def test_cost_basis_hits_lambda_offset(self):
        asa = canonicalize(regularized_least_squares())
        lam_slot = next(s for s in asa.param_layout if s.name == "lam")
        dc = np.zeros(asa.n_cone_vars)
        dc[1] = 1.0  # the second cone variable carries the lam cost entry
        dtheta = materialize_adjoint(
            asa, sp.csr_matrix((asa.n_rows, asa.n_cone_vars)),
            np.zeros(asa.n_rows), dc)
        expect = np.zeros(asa.n_params)
        expect[lam_slot.offset] = 1.0
        np.testing.assert_array_equal(dtheta, expect)

    def test_adjoint_matches_basis_differences(self, rng):
        """<C(e_i) - C(0), W> equals the adjoint for every basis direction."""
        prob = regularized_least_squares()
        asa = canonicalize(prob)
        dA_dense = rng.standard_normal((asa.n_rows, asa.n_cone_vars))
        db = rng.standard_normal(asa.n_rows)
        dc = rng.standard_normal(asa.n_cone_vars)
        # restrict the A cotangent to the structural pattern
        pat = materialize(asa, rng.standard_normal(asa.n_params)).A
        mask = np.zeros_like(dA_dense, dtype=bool)
        mask[pat.nonzero()] = True
        rows, cols = asa._a_rows, asa._a_cols
        mask[rows, cols] = True
        dA_dense[~mask] = 0.0
        dtheta = materialize_adjoint(asa, dA_dense, db, dc)
        d0 = materialize(asa, np.zeros(asa.n_params))
        for i in range(asa.n_params):
            ei = np.zeros(asa.n_params)
            ei[i] = 1.0
            di = materialize(asa, ei)
            pairing = (np.sum((di.A.toarray() - d0.A.toarray()) * dA_dense)
                       + (di.b - d0.b) @ db + (di.c - d0.c) @ dc)
            assert abs(pairing - dtheta[i]) <= 1e-10 * max(1.0, abs(pairing))


    def test_batch_and_pattern_values(self, rng):
        """dA given as its values on A's pattern, and a list of
        cotangents, give what the matrix form gives one by one."""
        asa = canonicalize(regularized_least_squares())
        A = materialize(asa, rng.standard_normal(asa.n_params)).A
        parts = [(sp.csr_matrix((rng.standard_normal(A.nnz), A.indices,
                                 A.indptr), shape=A.shape),
                  rng.standard_normal(asa.n_rows),
                  rng.standard_normal(asa.n_cone_vars)) for _ in range(3)]
        lone = [materialize_adjoint(asa, *p) for p in parts]
        values = [materialize_adjoint(asa, dA.data, db, dc)
                  for dA, db, dc in parts]
        batch = materialize_adjoint(asa, *(list(p) for p in zip(*parts)))
        assert batch.shape == (3, asa.n_params)
        for a, b, c in zip(lone, values, batch):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        with pytest.raises(ShapeError):
            materialize_adjoint(asa, [p[0] for p in parts],
                                [p[1] for p in parts[:2]],
                                [p[2] for p in parts])


class TestRetrieve:
    def test_epigraph_variables_are_dropped(self, rng):
        asa = canonicalize(regularized_least_squares())
        xt = rng.standard_normal(asa.n_cone_vars)
        out = retrieve(asa, xt)
        assert set(out) == {"x"}
        x_slot = next(s for s in asa.cone_var_layout if s.name == "x")
        np.testing.assert_array_equal(
            out["x"], xt[x_slot.offset:x_slot.offset + 2])

    def test_identity_problem(self):
        x = variable("x", 3)
        prob = Problem("minimize", matmul(constant(np.ones(3)), x),
                       [ge(x, 0)])
        asa = canonicalize(prob)
        xt = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(retrieve(asa, xt)["x"], xt)
        assert asa.retrieval.shape == (3, 3)

    def test_one_nonzero_per_row(self):
        for seed in range(5):
            asa = canonicalize(gen_random_dpp(seed, n_vars=2, n_params=1))
            counts = np.diff(asa.retrieval.tocsr().indptr)
            assert np.all(counts == 1)

    def test_retrieval_idempotent_on_original_coordinates(self, rng):
        asa = canonicalize(regularized_least_squares())
        xt = rng.standard_normal(asa.n_cone_vars)
        first = retrieve(asa, xt)
        # re-embed: place retrieved values back and retrieve again
        xt2 = xt.copy()
        x_slot = next(s for s in asa.cone_var_layout if s.name == "x")
        xt2[x_slot.offset:x_slot.offset + 2] = first["x"]
        second = retrieve(asa, xt2)
        np.testing.assert_array_equal(first["x"], second["x"])

    def test_length_mismatch(self):
        asa = canonicalize(regularized_least_squares())
        with pytest.raises(ShapeError, match="length"):
            retrieve(asa, np.zeros(asa.n_cone_vars + 1))


class TestDenseContractionOracle:
    """The reduced tensor of a lowered tree equals the dense tensor
    recovered purely by evaluating the expression: T[i,j,k] is the
    bilinear second difference over variable/parameter basis vectors."""

    def _dense_from_evaluation(self, expr, asa, problem):
        N, p = asa.n_cone_vars, asa.n_params
        d = expr.shape.size

        def value(x_tilde, theta):
            env = asa.unflatten_params(np.asarray(theta, dtype=float))
            for slot in asa.cone_var_layout:
                piece = np.asarray(x_tilde)[slot.offset:slot.offset + slot.size]
                env[slot.name] = piece.reshape(slot.dims, order="F") \
                    if slot.dims else piece[0]
            return np.ravel(evaluate(expr, env), order="F")

        T = np.zeros((d, N + 1, p + 1))
        f00 = value(np.zeros(N), np.zeros(p))
        T[:, N, p] = f00
        fx = np.zeros((N, d))
        for j in range(N):
            ej = np.zeros(N)
            ej[j] = 1.0
            fx[j] = value(ej, np.zeros(p))
            T[:, j, p] = fx[j] - f00
        for k in range(p):
            ek = np.zeros(p)
            ek[k] = 1.0
            f0k = value(np.zeros(N), ek)
            T[:, N, k] = f0k - f00
            for j in range(N):
                ej = np.zeros(N)
                ej[j] = 1.0
                T[:, j, k] = value(ej, ek) - f0k - fx[j] + f00
        return T

    def test_small_instances(self):
        from diffcone.canon import CanonContext, canon_tensor
        checked = 0
        for seed in (0, 2, 3, 5, 8, 12):
            prob = gen_random_dpp(seed, n_vars=1, n_params=2, max_terms=2)
            low = lower(prob)
            asa = build_asa(low)
            if asa.n_cone_vars + asa.n_params > 10:
                continue
            offsets = {s.name: s.offset for s in asa.cone_var_layout}
            poffsets = {s.name: s.offset for s in asa.param_layout}
            ctx = CanonContext(offsets, poffsets, asa.n_cone_vars,
                               asa.n_params)
            for con in low.constraints:
                got = canon_tensor(con.expr, ctx).to_dense()
                want = self._dense_from_evaluation(con.expr, asa, prob)
                np.testing.assert_allclose(got, want, atol=1e-10)
                checked += 1
        assert checked >= 5

    def test_structural_atoms_on_matrices(self):
        """vstack/hstack/transpose/index of matrix-shaped leaves reduce to
        the same tensor the evaluation oracle recovers."""
        from diffcone.canon import CanonContext, canon_tensor
        from diffcone.expressions import multiply, transpose, vstack, hstack, index
        M = variable("M", (2, 3))
        P = parameter("P", (2, 3))
        stacked = vstack([M, P])                      # (4, 3)
        flipped = transpose(stacked)                  # (3, 4)
        sliced = index(flipped, ((0, 3, 2), (1, 4, 1)))   # (2, 3)
        corner = multiply(2.0, index(flipped, ((0, 2, 1), (0, 2, 1))))
        expr = hstack([sliced, corner])               # (2, 5)
        prob = Problem("minimize", sum_entries(M),
                       [eq(expr, constant(np.zeros((2, 5))))])
        low = lower(prob)
        asa = build_asa(low)
        offsets = {s.name: s.offset for s in asa.cone_var_layout}
        poffsets = {s.name: s.offset for s in asa.param_layout}
        ctx = CanonContext(offsets, poffsets, asa.n_cone_vars, asa.n_params)
        (con,) = low.constraints
        got = canon_tensor(con.expr, ctx).to_dense()
        want = self._dense_from_evaluation(con.expr, asa, prob)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("atom", ["vstack", "hstack"])
    @pytest.mark.parametrize("shape", ["vector", "matrix"])
    def test_stacks(self, atom, shape):
        """Every stacked argument carries parameter slices except one
        constant argument; the stack reduces to the tensor the evaluation
        oracle recovers."""
        from diffcone.canon import CanonContext, canon_tensor
        from diffcone.expressions import hstack, vstack
        stack = vstack if atom == "vstack" else hstack
        if shape == "vector":
            x = variable("x", 2)
            F, g, a = parameter("F", (2, 2)), parameter("g", 2), parameter("a")
            args = [F @ x, x + g, multiply(a, x),
                    constant(np.array([1.0, -2.0]))]
            objective = sum_entries(x)
        else:
            M = variable("M", (2, 3))
            P, R = parameter("P", (2, 3)), parameter("R", (2, 2))
            fill = [[1.0, 2.0, 3.0]] if atom == "vstack" else [[1.0], [2.0]]
            args = [multiply(P, M), R @ M, P, constant(np.array(fill))]
            objective = sum_entries(M)
        expr = stack(args)
        prob = Problem("minimize", objective,
                       [eq(expr, constant(np.zeros(expr.shape.dims)))])
        low = lower(prob)
        asa = build_asa(low)
        offsets = {s.name: s.offset for s in asa.cone_var_layout}
        poffsets = {s.name: s.offset for s in asa.param_layout}
        ctx = CanonContext(offsets, poffsets, asa.n_cone_vars, asa.n_params)
        (con,) = low.constraints
        got = canon_tensor(con.expr, ctx).to_dense()
        want = self._dense_from_evaluation(con.expr, asa, prob)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert np.count_nonzero(got[:, :, :-1]) > 0


class TestMatrixVariables:
    def test_matrix_variable_roundtrip(self, rng):
        """Matrix-shaped variables and parameters flatten column-major."""
        X = variable("X", (2, 2))
        B = parameter("B", (2, 2))
        prob = Problem("minimize", sum_squares(X - B))
        asa = canonicalize(prob)
        values = {"B": rng.standard_normal((2, 2))}
        data = materialize(asa, asa.flatten_params(values))
        fresh, _ = fresh_extraction(prob, values)
        np.testing.assert_allclose(data.A.toarray(), fresh.A.toarray(),
                                   atol=1e-14)
        np.testing.assert_allclose(data.b, fresh.b, atol=1e-14)


def _unflatten_loop(asa, theta):
    """``AsaForm.unflatten_params`` as it was written before its run
    table: one slice and reshape per parameter slot.  The reference of
    ``TestUnflattenParams``."""
    out = {}
    for slot in asa.param_layout:
        part = theta[slot.offset:slot.offset + slot.size]
        out[slot.name] = part.reshape(slot.dims, order="F") if slot.dims \
            else np.asarray(part[0])
    return out


def _sum_of_norms(terms):
    """minimize sum_i ||F_i x - g_i|| over x in R^3, as the benchmark's
    soc-sum layer: parameter slots of two dims, interleaved."""
    x = variable("x", 3)
    objective = None
    for i in range(terms):
        term = norm2(parameter(f"F{i}", (3, 3)) @ x - parameter(f"g{i}", 3))
        objective = term if objective is None else objective + term
    return Problem("minimize", objective)


def _uneven_layout():
    """Slots of equal dims at uneven spacing, so the run table splits
    runs, and scalars."""
    x = variable("x", 2)
    a, b, c = parameter("a", 2), parameter("b", 3), parameter("c", 2)
    d, e = parameter("d", 2), parameter("e", (2, 2))
    s, t = parameter("s"), parameter("t")
    u = parameter("u", (3, 2))
    objective = (norm2(x - a) + norm2(matmul(e, x) - c) + norm2(x - d)
                 + s * sum_entries(x) + t * sum_entries(x)
                 + sum_entries(b) + sum_entries(u))
    return Problem("minimize", objective, [ge(x, 0)])


class TestUnflattenParams:
    @pytest.mark.parametrize("make", [
        *[lambda fx=fx: fx.problem for fx in gradient_fixtures()],
        regularized_least_squares, lambda: _sum_of_norms(200),
        _uneven_layout,
    ], ids=[fx.name for fx in gradient_fixtures()] + [
        "regularized_least_squares", "soc_sum", "uneven"])
    def test_equals_the_loop(self, make, rng):
        """Every parameter's value is the loop's bit for bit, of its shape
        and dtype, in layout order, also from a strided theta; from a
        contiguous theta, non-scalars are views of it."""
        asa = canonicalize(make())
        for theta in (rng.standard_normal(asa.n_params),
                      rng.standard_normal(2 * asa.n_params)[::2]):
            got, want = asa.unflatten_params(theta), _unflatten_loop(
                asa, theta)
            assert list(got) == list(want)
            for name, value in want.items():
                assert type(got[name]) is np.ndarray
                assert got[name].shape == value.shape
                assert got[name].dtype == value.dtype
                assert np.array_equal(got[name], value)
                if theta.flags.c_contiguous:
                    assert np.shares_memory(got[name], theta) == bool(
                        value.ndim)

    def test_run_table_splits_uneven_spacing(self):
        asa = canonicalize(_uneven_layout())
        runs = {tuple(names) for names, *_ in asa._param_runs[1]}
        offsets = {s.name: s.offset for s in asa.param_layout}
        for names in runs:
            steps = {offsets[b] - offsets[a] for a, b in zip(names,
                                                               names[1:])}
            assert len(steps) <= 1
        assert sum(len(r) for r in runs) == len(asa.param_layout)
        # a, c and d share their dims; d breaks a and c's spacing
        assert {("a", "c"), ("d",), ("s", "t")} <= runs

    def test_wrong_length_raises(self):
        asa = canonicalize(regularized_least_squares())
        for theta in (np.zeros(asa.n_params - 1), np.zeros(asa.n_params + 1),
                      np.zeros((1, asa.n_params))):
            with pytest.raises(ShapeError, match="parameter vector"):
                asa.unflatten_params(theta)
