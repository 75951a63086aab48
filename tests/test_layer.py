"""Compiled-layer tests: forward outputs, gradients, batching, caching."""

import numpy as np
import pytest

from conftest import GRADCHECK, TIGHT, fd_param_gradient, max_rel_error
from diffcone.errors import CompileError, ShapeError, SolveStatusError
from diffcone.expressions import (
    constant,
    multiply,
    parameter,
    sum_entries,
    sum_squares,
    variable,
)
from diffcone.fixtures import (
    gradient_fixtures,
    nonneg_least_squares_fixture,
    optnet_qp_fixture,
    relu_fixture,
    sparsemax_fixture,
)
from diffcone.layer import Layer
from diffcone.problem import Problem, ge, le


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


class TestBatching:
    def test_identical_inputs_identical_outputs(self, rng):
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        values = fx.sample(rng)
        results = layer.forward_batch([values] * 4, max_workers=4)
        base = results[0].outputs["y"]
        for r in results[1:]:
            np.testing.assert_array_equal(r.outputs["y"], base)

    def test_batch_equals_sequential(self, rng):
        fx = optnet_qp_fixture(n=3, m_eq=1, m_ineq=2)
        layer = Layer.compile(fx.problem, TIGHT)
        batch = [fx.sample(rng) for _ in range(8)]
        seq = [layer.forward(v) for v in batch]
        par = layer.forward_batch(batch, max_workers=4)
        for a, b in zip(seq, par):
            assert a.status == b.status
            np.testing.assert_array_equal(a.outputs["x"], b.outputs["x"])
        cots = [{"x": rng.standard_normal(3)} for _ in batch]
        seq_g = [layer.backward(r, c) for r, c in zip(seq, cots)]
        par_g = layer.backward_batch(par, cots, max_workers=4)
        for (ga, _), (gb, _) in zip(seq_g, par_g):
            for name in layer.parameter_order:
                np.testing.assert_allclose(ga[name], gb[name], atol=1e-12)

    def test_concatenated_batches_concatenate(self, rng):
        fx = relu_fixture(2)
        layer = Layer.compile(fx.problem, TIGHT)
        b1 = [fx.sample(rng) for _ in range(3)]
        b2 = [fx.sample(rng) for _ in range(2)]
        joint = layer.forward_batch(b1 + b2, max_workers=2)
        first = layer.forward_batch(b1, max_workers=2)
        second = layer.forward_batch(b2, max_workers=2)
        for a, b in zip(joint, first + second):
            np.testing.assert_array_equal(a.outputs["y"], b.outputs["y"])

    def test_per_element_failures_do_not_stop_batch(self):
        x = variable("x")
        prob = Problem("minimize", sum_entries(x),
                       [ge(x, parameter("lo")), le(x, parameter("hi"))])
        layer = Layer.compile(prob, TIGHT)
        batch = [{"lo": 0.0, "hi": 1.0}, {"lo": 1.0, "hi": 0.0},
                 {"lo": -1.0, "hi": 2.0}]
        results = layer.forward_batch(batch, max_workers=2)
        assert [r.status for r in results] == ["optimal", "infeasible",
                                               "optimal"]
