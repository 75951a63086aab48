"""Compiled-layer tests: forward outputs, gradients, batching, caching."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import GRADCHECK, TIGHT, fd_param_gradient, max_rel_error
from diffcone.canon import materialize
from diffcone.errors import (
    CompileError,
    ShapeError,
    SolverInputError,
    SolveStatusError,
)
from diffcone.expressions import (
    constant,
    matmul,
    multiply,
    norm2,
    parameter,
    sum_entries,
    sum_squares,
    variable,
)
from diffcone.fixtures import (
    constrained_sparsemax_fixture,
    gradient_fixtures,
    nonneg_least_squares_fixture,
    optnet_qp_fixture,
    relu_fixture,
    sparse_qp_data,
    sparsemax_fixture,
)
from diffcone.layer import Layer
from diffcone.problem import Problem, eq, ge, le
from diffcone.solver import solve


class TestCompile:
    def test_parameter_count_for_least_squares(self):
        fx = nonneg_least_squares_fixture(n=2, m=3)
        layer = Layer.compile(fx.problem)
        assert layer.asa.n_params == 3 * 2 + 3 + 1
        assert layer.parameter_order == ("F", "g", "lam")
        assert layer.variable_order == ("x",)

    def test_parameterless_problem(self):
        x = variable("x", 2)
        prob = Problem("minimize", sum_squares(x - constant(np.ones(2))))
        layer = Layer.compile(prob, TIGHT)
        assert layer.parameter_order == ()
        res = layer.forward({})
        np.testing.assert_allclose(res.outputs["x"], [1.0, 1.0], atol=1e-7)

    def test_invalid_problem_raises_with_report(self):
        p1, p2 = parameter("p1"), parameter("p2")
        prob = Problem("minimize",
                       multiply(p1, p2) + sum_squares(variable("x")))
        with pytest.raises(CompileError, match="parameter-product") as err:
            Layer.compile(prob)
        assert err.value.report is not None
        assert not err.value.report.valid

    def test_compile_binding_validation(self):
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        with pytest.raises(ShapeError, match="unknown parameters"):
            layer.forward({"x": np.zeros(3), "bogus": 1.0})
        with pytest.raises(Exception, match="shape"):
            layer.forward({"x": np.zeros(4)})

    def test_nonneg_parameter_enforced_at_bind(self):
        fx = nonneg_least_squares_fixture()
        layer = Layer.compile(fx.problem, TIGHT)
        with pytest.raises(ShapeError, match="nonneg"):
            layer.forward({"F": np.eye(3, 2), "g": np.ones(3), "lam": -0.5})

    @pytest.mark.parametrize("call", [
        lambda layer, res: layer.forward({"x": "abc"}),
        lambda layer, res: layer.backward(res, {"y": "x"}),
        lambda layer, res: layer.backward(res, None),
        lambda layer, res: layer.forward_batch([1]),
    ], ids=["value", "cotangent", "cotangents-mapping", "binding-mapping"])
    def test_malformed_inputs_raise_shape_error(self, call):
        layer = Layer.compile(relu_fixture(3).problem, TIGHT)
        res = layer.forward({"x": np.array([1.0, -2.0, 3.0])})
        with pytest.raises(ShapeError):
            call(layer, res)

    @pytest.mark.parametrize("bad", [
        lambda x, y, s: (x, y),
        lambda x, y, s: (x[:-1], y, s),
        lambda x, y, s: (x, ["a"] * y.size, s),
        lambda x, y, s: (np.full_like(x, np.nan), y, s),
    ], ids=["arity", "length", "non-numeric", "nan"])
    def test_malformed_warm_start_raises_solver_input_error(self, bad):
        layer = Layer.compile(relu_fixture(3).problem, TIGHT)
        values = {"x": np.array([1.0, -2.0, 3.0])}
        sol = layer.forward(values)._solution
        warm = bad(sol.x, sol.y, sol.s)
        with pytest.raises(SolverInputError):
            layer.forward(values, warm_start=warm)
        with pytest.raises(SolverInputError):
            solve(materialize(layer.asa, layer._bind(values)), TIGHT,
                  warm_start=warm)


class TestForward:
    def test_relu_projection(self):
        layer = Layer.compile(relu_fixture(3).problem, TIGHT)
        res = layer.forward({"x": np.array([1.0, -2.0, 3.0])})
        assert res.ok
        np.testing.assert_allclose(res.outputs["y"], [1.0, 0.0, 3.0],
                                   atol=1e-7)

    def test_sparsemax_symmetry_point(self):
        layer = Layer.compile(sparsemax_fixture(2).problem, TIGHT)
        res = layer.forward({"x": np.array([0.5, 0.5])})
        np.testing.assert_allclose(res.outputs["y"], [0.5, 0.5], atol=1e-7)

    def test_sparsemax_thresholding(self):
        layer = Layer.compile(sparsemax_fixture(2).problem, TIGHT)
        res = layer.forward({"x": np.array([3.0, 0.0])})
        np.testing.assert_allclose(res.outputs["y"], [1.0, 0.0], atol=1e-6)

    def test_forward_agrees_with_output_oracles(self, rng):
        for fx in gradient_fixtures():
            if fx.oracle is None:
                continue
            layer = Layer.compile(fx.problem, TIGHT)
            for _ in range(3):
                values = fx.sample(rng)
                res = layer.forward(values)
                assert res.ok, fx.name
                want = fx.oracle(values)
                for name, arr in want.items():
                    np.testing.assert_allclose(
                        res.outputs[name], arr, atol=1e-5,
                        err_msg=f"{fx.name}:{name}")

    def test_failure_returns_status_not_exception(self):
        x = variable("x")
        prob = Problem("minimize", sum_entries(x),
                       [ge(x, parameter("lo")), le(x, parameter("hi"))])
        layer = Layer.compile(prob, TIGHT)
        res = layer.forward({"lo": 1.0, "hi": 0.0})
        assert not res.ok
        assert res.status == "infeasible"
        assert res.outputs is None
        with pytest.raises(SolveStatusError):
            layer.backward(res, {"x": np.asarray(1.0)})

    def test_objective_value_reported(self):
        fx = relu_fixture(2)
        layer = Layer.compile(fx.problem, TIGHT)
        res = layer.forward({"x": np.array([1.0, -1.0])})
        # min ||x - y||^2 over y >= 0 at x = (1, -1): y = (1, 0), value 1
        assert res.info["objective"] == pytest.approx(1.0, abs=1e-6)

    def test_maximize_sense_reported_in_user_units(self):
        t = parameter("t")
        y = variable("y")
        prob = Problem("maximize", -sum_squares(y - t) - 1.0)
        layer = Layer.compile(prob, TIGHT)
        res = layer.forward({"t": 0.4})
        assert res.outputs["y"] == pytest.approx(0.4, abs=1e-7)
        assert res.info["objective"] == pytest.approx(-1.0, abs=1e-6)
        grads, _ = layer.backward(res, {"y": np.asarray(1.0)})
        assert grads["t"] == pytest.approx(1.0, abs=1e-6)


class TestBackward:
    def test_zero_cotangent_gives_zero_gradients(self, rng):
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        res = layer.forward(fx.sample(rng))
        grads, _ = layer.backward(res, {"y": np.zeros(3)})
        np.testing.assert_allclose(grads["x"], np.zeros(3), atol=1e-10)

    def test_scalar_tracking_gradient(self):
        theta = parameter("theta")
        xv = variable("xv")
        layer = Layer.compile(Problem("minimize", sum_squares(xv - theta)),
                              GRADCHECK)
        res = layer.forward({"theta": 0.3})
        grads, info = layer.backward(res, {"xv": np.asarray(1.0)})
        assert grads["theta"] == pytest.approx(1.0, abs=1e-6)
        assert not info["fallback"]

    def test_cotangent_shape_mismatch(self, rng):
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        res = layer.forward(fx.sample(rng))
        with pytest.raises(ShapeError, match="cotangent"):
            layer.backward(res, {"y": np.zeros(4)})
        with pytest.raises(ShapeError, match="unknown outputs"):
            layer.backward(res, {"nope": np.zeros(3)})

    def test_tape_bound_to_layer(self, rng):
        fx = relu_fixture(3)
        layer_a = Layer.compile(fx.problem, TIGHT)
        layer_b = Layer.compile(fx.problem, TIGHT)
        res = layer_a.forward(fx.sample(rng))
        with pytest.raises(SolveStatusError, match="different layer"):
            layer_b.backward(res, {"y": np.zeros(3)})

    def test_tape_of_collected_layer_rejected(self, rng):
        # in CPython a layer built right after another is freed takes its
        # memory, and so its id(); the old tape must still be refused
        fx = relu_fixture(3)
        layer_a = Layer.compile(fx.problem, TIGHT)
        res = layer_a.forward(fx.sample(rng))
        asa, problem = layer_a.asa, fx.problem
        del layer_a
        layer_b = Layer(asa, TIGHT, problem)
        with pytest.raises(SolveStatusError, match="different layer"):
            layer_b.backward(res, {"y": np.zeros(3)})

    @pytest.mark.parametrize("fixture_name", [
        "relu", "sparsemax", "nonneg_least_squares"])
    def test_backward_matches_finite_differences(self, fixture_name, rng):
        fx = next(f for f in gradient_fixtures() if f.name == fixture_name)
        layer = Layer.compile(fx.problem, GRADCHECK)
        values = fx.sample(rng)
        res = layer.forward(values)
        assert res.ok
        cot = {fx.output: rng.standard_normal(res.outputs[fx.output].shape)}
        grads, _ = layer.backward(res, cot)
        for name in layer.parameter_order:
            fd = fd_param_gradient(layer, values, cot, name)
            err = max_rel_error(fd, grads[name])
            assert err <= 1e-4, f"{fixture_name}:{name} rel err {err:.2e}"

    def test_optnet_gradients_match_finite_differences(self, rng):
        fx = optnet_qp_fixture(n=3, m_eq=1, m_ineq=2)
        layer = Layer.compile(fx.problem, GRADCHECK)
        values = fx.sample(rng)
        res = layer.forward(values)
        assert res.ok
        cot = {"x": rng.standard_normal(3)}
        grads, _ = layer.backward(res, cot)
        for name in layer.parameter_order:
            fd = fd_param_gradient(layer, values, cot, name)
            err = max_rel_error(fd, grads[name])
            assert err <= 1e-4, f"optnet:{name} rel err {err:.2e}"


class TestCacheEquivalence:
    def test_cached_forward_equals_recompiled_forward(self, rng):
        fx = nonneg_least_squares_fixture()
        layer = Layer.compile(fx.problem, TIGHT)
        for _ in range(100):
            values = fx.sample(rng)
            cached = layer.forward(values)
            fresh_layer = Layer.compile(fx.problem, TIGHT)
            fresh = fresh_layer.forward(values)
            np.testing.assert_array_equal(cached.outputs["x"],
                                          fresh.outputs["x"])

    def test_forward_is_deterministic(self, rng):
        fx = sparsemax_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        values = fx.sample(rng)
        a = layer.forward(values)
        b = layer.forward(values)
        assert np.array_equal(a.outputs["y"], b.outputs["y"])
        assert a.info["iterations"] == b.info["iterations"]


def small_sparse_qp(n=16):
    """A QP with the constant R, A, G of a small ``sparse_qp_data`` and
    parameters q, b, h: A does not depend on the parameters."""
    m_eq, m_ineq = n // 2, n
    cone_A = sparse_qp_data(n=n, m_eq=m_eq, m_ineq=m_ineq).A.tocsr()
    A = cone_A[:m_eq, :n].toarray()
    G = cone_A[m_eq:m_eq + m_ineq, :n].toarray()
    R = -0.5 * cone_A[m_eq + m_ineq + 2:, :n].toarray()
    x = variable("x", n)
    q, b, h = parameter("q", n), parameter("b", m_eq), parameter("h", m_ineq)
    problem = Problem(
        "minimize", multiply(0.5, sum_squares(constant(R) @ x)) + matmul(q, x),
        [eq(constant(A) @ x, b), le(constant(G) @ x, h)])

    def sample(rng):
        x0 = rng.standard_normal(n) / np.sqrt(n)
        return {"q": rng.standard_normal(n) / np.sqrt(n), "b": A @ x0,
                "h": G @ x0 + rng.uniform(0.1, 1.0, m_ineq)}

    return SimpleNamespace(problem=problem, sample=sample)


class TestIterationFactorCache:
    """A layer whose A is fixed factors its iteration system once; its
    forward equals a solve that builds the factor afresh, bitwise."""

    @pytest.mark.parametrize("make", [
        relu_fixture, sparsemax_fixture, constrained_sparsemax_fixture,
        small_sparse_qp,
    ], ids=["relu", "sparsemax", "constrained_sparsemax", "sparse_qp"])
    def test_cached_factor_equals_fresh_solve(self, make, rng):
        fx = make()
        layer = Layer.compile(fx.problem)
        for _ in range(3):
            values = fx.sample(rng)
            res = layer.forward(values)
            assert layer._factor is not None
            fresh = solve(materialize(layer.asa, layer._bind(values)),
                          layer.settings)
            assert res.status == fresh.status == "optimal"
            assert res.info["iterations"] == fresh.info["iterations"]
            for key in ("x", "y", "s"):
                assert np.array_equal(getattr(res._solution, key),
                                      getattr(fresh, key)), key
        assert res.info["timings"]["factorize"] == 0.0

    def test_parameter_dependent_a_holds_no_factor(self, rng):
        x = variable("x", 2)
        objective = None
        for i in range(3):
            term = norm2(parameter(f"F{i}", (2, 2)) @ x
                         - parameter(f"g{i}", 2))
            objective = term if objective is None else objective + term
        layer = Layer.compile(Problem("minimize", objective))
        values = {}
        for i in range(3):
            values[f"F{i}"] = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
            values[f"g{i}"] = rng.standard_normal(2)
        res = layer.forward(values)
        assert res.ok
        assert layer._factor is None
        assert res.info["timings"]["factorize"] > 0.0


class TestBatching:
    def test_identical_inputs_identical_outputs(self, rng):
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        values = fx.sample(rng)
        results = layer.forward_batch([values] * 4)
        base = results[0].outputs["y"]
        for r in results[1:]:
            np.testing.assert_array_equal(r.outputs["y"], base)

    def test_batch_equals_sequential(self, rng):
        fx = optnet_qp_fixture(n=3, m_eq=1, m_ineq=2)
        layer = Layer.compile(fx.problem, TIGHT)
        batch = [fx.sample(rng) for _ in range(8)]
        seq = [layer.forward(v) for v in batch]
        batched = layer.forward_batch(batch)
        for a, b in zip(seq, batched):
            assert a.status == b.status
            np.testing.assert_array_equal(a.outputs["x"], b.outputs["x"])
        cots = [{"x": rng.standard_normal(3)} for _ in batch]
        seq_g = [layer.backward(r, c) for r, c in zip(seq, cots)]
        batched_g = layer.backward_batch(batched, cots)
        for (ga, _), (gb, _) in zip(seq_g, batched_g):
            for name in layer.parameter_order:
                np.testing.assert_allclose(ga[name], gb[name], atol=1e-12)

    def test_concatenated_batches_concatenate(self, rng):
        fx = relu_fixture(2)
        layer = Layer.compile(fx.problem, TIGHT)
        b1 = [fx.sample(rng) for _ in range(3)]
        b2 = [fx.sample(rng) for _ in range(2)]
        joint = layer.forward_batch(b1 + b2)
        first = layer.forward_batch(b1)
        second = layer.forward_batch(b2)
        for a, b in zip(joint, first + second):
            np.testing.assert_array_equal(a.outputs["y"], b.outputs["y"])

    def test_per_element_failures_do_not_stop_batch(self):
        x = variable("x")
        prob = Problem("minimize", sum_entries(x),
                       [ge(x, parameter("lo")), le(x, parameter("hi"))])
        layer = Layer.compile(prob, TIGHT)
        batch = [{"lo": 0.0, "hi": 1.0}, {"lo": 1.0, "hi": 0.0},
                 {"lo": -1.0, "hi": 2.0}]
        results = layer.forward_batch(batch)
        assert [r.status for r in results] == ["optimal", "infeasible",
                                               "optimal"]
