"""Compiled-layer tests: forward outputs, gradients, batching, caching."""

import copy
import inspect
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    GRADCHECK,
    TIGHT,
    assert_same_solve,
    fd_param_gradient,
    force_fallback,
    max_rel_error,
)
from diffcone.canon import materialize, materialize_adjoint
from diffcone.derivatives import adjoint_derivative
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
    vstack,
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
from diffcone import canon as canon_module
from diffcone import layer as layer_module
from diffcone import problem as problem_module
from diffcone import solver
from diffcone.layer import Layer
from diffcone.problem import Problem, eq, ge, le
from diffcone.solver import SolverSettings, solve


def _norm_chain(k):
    """A sum of k norms built with +, which nests k deep, and its terms."""
    x = variable("x", 3)
    terms = [norm2(x - parameter(f"p{i}", 3)) for i in range(k)]
    objective = terms[0]
    for term in terms[1:]:
        objective = objective + term
    return objective, terms


def _chain_values(k, rng):
    return {f"p{i}": rng.standard_normal(3) for i in range(k)}


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

    def test_compile_rejects_what_is_not_a_problem(self):
        with pytest.raises(CompileError, match="int"):
            Layer.compile(5)
        with pytest.raises(ShapeError, match="SolverSettings"):
            Layer.compile(relu_fixture(3).problem, 5)

    def test_deep_sum_compiles_like_stacked_sum(self, rng):
        """A sum of 1200 norms built with + nests past Python's default
        recursion limit; it compiles to the same maps as the same sum
        nested two deep, and solves and differentiates."""
        objective, terms = _norm_chain(1200)
        deep = Layer.compile(Problem("minimize", objective)).asa
        flat = Layer.compile(Problem("minimize",
                                     sum_entries(vstack(terms)))).asa
        for name in ("c_map", "_a_coeff", "_b_map", "retrieval"):
            a, b = getattr(deep, name), getattr(flat, name)
            assert a.shape == b.shape
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(a, part),
                                              getattr(b, part))
        np.testing.assert_array_equal(deep.objective_offset_map,
                                      flat.objective_offset_map)
        for name in ("cones", "param_layout", "variable_layout",
                     "cone_var_layout"):
            assert getattr(deep, name) == getattr(flat, name)

        layer = Layer(deep, SolverSettings())
        res = layer.forward(_chain_values(1200, rng))
        assert res.ok
        grads, _ = layer.backward(res, {"x": np.ones(3)})
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_compile_walks_without_recursion(self, rng):
        """With the recursion limit a fixed margin above the current stack
        depth, a sum of 600 norms built with + builds, compiles and solves:
        no walk over its expressions recurses once per level."""
        values = _chain_values(600, rng)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            objective, _ = _norm_chain(600)
            res = Layer.compile(Problem("minimize", objective)).forward(values)
        finally:
            sys.setrecursionlimit(limit)
        assert res.ok

    def test_shared_subtrees_compile_once(self):
        """``e = e + e`` 40 times reaches one norm by 2**40 paths; compile
        visits each node once, so it takes well under a second and lays
        out what one doubling does."""
        x, p = variable("x", 3), parameter("p", 3)
        e = norm2(x - p)
        once = Layer.compile(Problem("minimize", e + e)).asa
        for _ in range(40):
            e = e + e
        start = time.perf_counter()
        doubled = Layer.compile(Problem("minimize", e)).asa
        assert time.perf_counter() - start < 1.0
        for name in ("param_layout", "variable_layout", "cone_var_layout"):
            assert getattr(doubled, name) == getattr(once, name)

    def test_compile_checks_dpp_once(self, monkeypatch):
        """The problem is verified once per compile, wherever the check is
        looked up."""
        calls = []
        for module in (problem_module, canon_module, layer_module):
            original = getattr(module, "check_dpp", None)
            if original is not None:
                monkeypatch.setattr(module, "check_dpp",
                                    lambda p, f=original: calls.append(p)
                                    or f(p))
        fx = relu_fixture(3)
        Layer.compile(fx.problem)
        assert calls == [fx.problem]

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
        lambda layer, res: layer.forward({"x": np.array([1.0, 2j, 3.0])}),
        lambda layer, res: layer.forward({"x": [1.0, -2.0, 3.0 + 0j]}),
        lambda layer, res: layer.backward(res, {"y": np.ones(3) + 1j}),
        lambda layer, res: layer.forward_batch(5),
        lambda layer, res: layer.forward_batch({"x": np.ones(3)}),
        lambda layer, res: layer.backward_batch(res, [{"y": np.ones(3)}]),
        lambda layer, res: layer.backward_batch([res], {"y": np.ones(3)}),
        lambda layer, res: layer.backward("r", {"y": np.ones(3)}),
    ], ids=["value", "cotangent", "cotangents-mapping", "binding-mapping",
            "complex-value", "complex-dtype-value", "complex-cotangent",
            "batch-int", "batch-mapping", "backward-results-one",
            "backward-cotangents-mapping", "backward-result-str"])
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
        lambda x, y, s: (x, y, s + 1e-3j),
    ], ids=["arity", "length", "non-numeric", "nan", "complex"])
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cotangent_raises(self, bad, rng):
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        res = layer.forward(fx.sample(rng))
        with pytest.raises(SolverInputError, match="NaN/Inf"):
            layer.backward(res, {"y": np.array([0.0, bad, 1.0])})

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


def _sum_of_norms_layer(terms, rng):
    """minimize sum_i ||F_i x - g_i|| over x in R^3: A depends on theta."""
    x = variable("x", 3)
    objective = None
    values = {}
    for i in range(terms):
        term = norm2(parameter(f"F{i}", (3, 3)) @ x - parameter(f"g{i}", 3))
        objective = term if objective is None else objective + term
        values[f"F{i}"] = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        values[f"g{i}"] = rng.standard_normal(3)
    return Layer.compile(Problem("minimize", objective), TIGHT), values


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

    def test_parameter_dependent_a_keeps_the_order(self, rng, monkeypatch):
        """A layer whose A depends on theta keeps K's elimination order,
        computed once, when its first lifted factor above ``DENSE_ORDER``
        needs it (its K is reduced, so no SuperLU factor of K holds it);
        its sparse backward factors under it and equals the standalone
        adjoint, whose factor gets the order from A's pattern."""
        calls = []
        inner = solver._factor_k
        monkeypatch.setattr(solver, "_factor_k",
                            lambda A: calls.append(A.shape) or inner(A))
        layer, values = _sum_of_norms_layer(50, rng)
        res = layer.forward(values)
        assert res.ok and layer._factor is None
        assert res.info["iteration_system"] == "reduced"
        assert layer._order is None and calls == []
        cot = rng.standard_normal(3)
        grads, info = layer.backward(res, {"x": cot})
        assert layer._order is not None and layer._order.base is None
        assert info["mode"] == "direct"
        assert info["m_factor_order"] > 300
        layer.backward(layer.forward(values), {"x": cot})
        assert len(calls) == 1
        slot = layer.asa.variable_layout[0]
        flat = np.zeros(layer.asa.retrieval.shape[0])
        flat[slot.offset:slot.offset + slot.size] = cot
        adj = adjoint_derivative(res._data, res._solution,
                                 layer.asa.retrieval.T @ flat)
        assert adj.info["mode"] == "direct"
        want = layer.asa.unflatten_params(
            materialize_adjoint(layer.asa, adj.dA, adj.db, adj.dc))
        for name in layer.parameter_order:
            assert np.max(np.abs(grads[name] - want[name])) <= 1e-12 * max(
                1.0, np.max(np.abs(want[name])))


# the five fixture-train layers, and a small QP layer
BATCH_FIXTURES = {fx.name: fx for fx in gradient_fixtures()
                  if fx.name != "optnet_qp"}
BATCH_FIXTURES["optnet_qp_small"] = optnet_qp_fixture(n=3, m_eq=1, m_ineq=2)


class TestDenseIterationSystem:
    """Below ``K_DENSE_ORDER`` the iteration system is a dense stack of K
    inverses: one per layer when A is fixed, one build per minibatch when
    A depends on theta."""

    @pytest.mark.parametrize("name", ["nonneg_least_squares",
                                      "ball_constrained_policy"])
    def test_theta_dependent_minibatch_calls_no_splu(self, name, rng,
                                                     monkeypatch):
        """Each minibatch builds one ``IterationFactor`` for all its
        elements, and no SuperLU factor."""
        fx = BATCH_FIXTURES[name]
        layer = Layer.compile(fx.problem)
        assert not layer._a_fixed
        splu, builds = [], []
        inner = solver.spla.splu
        monkeypatch.setattr(solver.spla, "splu", lambda *args, **kwargs:
                            splu.append(args) or inner(*args, **kwargs))

        class Counted(solver.IterationFactor):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(layer_module, "IterationFactor", Counted)
        for _ in range(2):
            results = layer.forward_batch([fx.sample(rng) for _ in range(8)])
            assert all(r.ok for r in results)
        assert results[0].info["sizes"]["N"] - 1 <= solver.K_DENSE_ORDER
        assert len(builds) == 2 and splu == []

    def test_build_timings_are_shared_out(self, rng, monkeypatch):
        """A minibatch's factor build is timed once and shared out equally
        over its elements, and so is the stacked scaling of their b and
        c, so their ``equilibrate`` and ``factorize`` add up to the
        build's and the scaling's wall time; as in a list given to
        ``solve``.  The solver's clock here ticks once per read: the build
        reads it three times, the scaling twice."""
        clock = [0.0]

        def tick():
            clock[0] += 1.0
            return clock[0]

        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=tick))
        fx = BATCH_FIXTURES["nonneg_least_squares"]
        layer = Layer.compile(fx.problem)
        batch = [fx.sample(rng) for _ in range(5)]
        results = layer.forward_batch(batch)
        solved = solve([materialize(layer.asa, layer._bind(v)) for v in batch],
                       layer.settings)
        for info in [r.info for r in results] + [s.info for s in solved]:
            assert info["timings"]["factorize"] == pytest.approx(1 / 5)
            assert info["timings"]["equilibrate"] == pytest.approx(2 / 5)

    def test_elimination_order_is_computed_once_per_layer(self, rng,
                                                          monkeypatch):
        """A layer whose K is held dense has no SuperLU order of K.  When
        its lifted M factors are above ``DENSE_ORDER`` (0 here), the
        first one computes K's order from A's pattern, and every later
        factor of the layer, in later backwards too, reuses it."""
        monkeypatch.setattr(solver, "DENSE_ORDER", 0)
        calls = []
        inner = solver._factor_k
        monkeypatch.setattr(solver, "_factor_k",
                            lambda A: calls.append(A.shape) or inner(A))
        fx = BATCH_FIXTURES["ball_constrained_policy"]
        layer = Layer.compile(fx.problem)
        for _ in range(3):
            tapes = [r for r in layer.forward_batch(
                [fx.sample(rng) for _ in range(4)]) if r.ok]
            cots = [{fx.output: rng.standard_normal(
                r.outputs[fx.output].shape)} for r in tapes]
            layer.backward_batch(tapes[1:], cots[1:])
            layer.backward(tapes[0], cots[0])
            # a SuperLU factor's rows sit at places under K's order
            assert not any(isinstance(r._cache["m_factor"]._head, slice)
                           for r in tapes)
        assert len(calls) == 1
        assert layer._order is not None


def _status_layer(settings):
    """An LP layer whose bindings can be optimal, infeasible (lo > hi) or
    unbounded (c[1] < 0), and hard to finish when badly scaled."""
    x = variable("x", 2)
    prob = Problem("minimize", parameter("c", 2) @ x,
                   [ge(x, parameter("lo")), le(x[0], parameter("hi"))])
    return Layer.compile(prob, settings)


# optimal (150 and 125 iterations), infeasible, unbounded, and max_iters
# at max_iters=150 with no polish; at refine_interval=125 only the last
# one polishes
STATUS_BATCH = [{"c": np.array(c), "lo": lo, "hi": hi} for c, lo, hi in [
    ([1.0, 1.0], 0.0, 1.0), ([1.0, 1.0], 1.0, 0.0), ([1.0, -1.0], 0.0, 1.0),
    ([1.0, 0.3], -2.0, 3.0), ([1e-3, 2.0], 0.5, 300.0),
    ([1.0, 1e4], -50.0, 3.0)]]


def _two_bounds_layer():
    """minimize x s.t. x >= t, x >= u: with t = u both rows are active and
    the derivative system is singular (LSQR), with t != u it is not."""
    x = variable("x")
    return Layer.compile(Problem("minimize", sum_entries(x),
                                 [ge(x, parameter("t")),
                                  ge(x, parameter("u"))]), TIGHT)


TWO_BOUNDS = [{"t": t, "u": u} for t, u in
              [(2.0, 2.0), (2.0, 1.0), (-1.0, -1.0), (0.0, 3.0)]]


def assert_same_backward(a, b):
    """Two backwards of one binding and cotangent: gradients bit for bit,
    and the derivative solve's mode, fallback, iterations and residual."""
    for name in a[0]:
        np.testing.assert_array_equal(a[0][name], b[0][name])
    assert set(a[0]) == set(b[0])
    for key in ("mode", "fallback", "iterations", "residual",
                "m_factor_order", "m_factor_nnz"):
        assert a[1][key] == b[1][key], key


class TestBatching:
    def test_identical_inputs_identical_outputs(self, rng):
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        values = fx.sample(rng)
        results = layer.forward_batch([values] * 4)
        base = results[0].outputs["y"]
        for r in results[1:]:
            np.testing.assert_array_equal(r.outputs["y"], base)

    @pytest.mark.parametrize("name", list(BATCH_FIXTURES))
    def test_batch_equals_sequential(self, name, rng):
        """Per element, a batch is the sequential solve bit for bit, however
        the bindings are split into batches; a layer whose A is fixed
        builds its factor inside its first batch and shares it."""
        self.check_batch_equals_sequential(BATCH_FIXTURES[name], rng)

    @pytest.mark.parametrize("name", list(BATCH_FIXTURES))
    def test_batch_equals_sequential_on_superlu(self, name, rng,
                                                monkeypatch):
        """The same with every K factored by SuperLU: a layer whose A is
        fixed solves all its rows with its one factor in one
        multi-right-hand-side solve, any other layer each row with its
        element's own factor.  Without the polish, which would end every
        element at the first check, elements of the plain splitting leave
        the batch at different iterations, so the batch shrinks as it
        runs; the accelerated splitting (``ANDERSON_MEMORY``) solves the
        same bindings, bit for bit as their sequential solves too."""
        monkeypatch.setattr(solver, "K_DENSE_ORDER", 0)
        monkeypatch.setattr(solver, "REDUCED_ORDER", 0)
        for layer, whole in self.plain_and_accelerated(
                BATCH_FIXTURES[name], rng, monkeypatch):
            if layer._a_fixed:
                assert layer._factor.lus is not None
            assert {r.info["iteration_system"] for r in whole} == \
                {"superlu"}

    @pytest.mark.parametrize("name", list(BATCH_FIXTURES))
    def test_batch_equals_sequential_on_reduced(self, name, rng,
                                                monkeypatch):
        """The same with every K solved through dense inverses of S = I +
        A'A: a layer whose A is fixed broadcasts its one inverse over the
        rows, any other layer gives each row its element's own inverse,
        and the products with A and A' are one block-diagonal product
        for the batch; plain and accelerated, as above."""
        monkeypatch.setattr(solver, "K_DENSE_ORDER", 0)
        for layer, whole in self.plain_and_accelerated(
                BATCH_FIXTURES[name], rng, monkeypatch):
            if layer._a_fixed:
                assert layer._factor.kind == "reduced"
            assert {r.info["iteration_system"] for r in whole} == \
                {"reduced"}

    def plain_and_accelerated(self, fx, rng, monkeypatch):
        """``check_batch_equals_sequential`` on the same bindings, without
        the polish, with the plain splitting, whose batch shrinks as it
        runs, and then with the accelerated one, whose elements accept
        accelerated points; the (layer, results) of each."""
        memory = solver.ANDERSON_MEMORY
        same = copy.deepcopy(rng)
        unpolished = SolverSettings(refine=False)
        monkeypatch.setattr(solver, "ANDERSON_MEMORY", 0)
        plain = self.check_batch_equals_sequential(fx, rng, unpolished)
        assert len({r.info["iterations"] for r in plain[1]}) > 1
        monkeypatch.setattr(solver, "ANDERSON_MEMORY", memory)
        accelerated = self.check_batch_equals_sequential(fx, same,
                                                         unpolished)
        assert all(r.info["acceleration"]["accepted"] > 0
                   for r in accelerated[1])
        return plain, accelerated

    @staticmethod
    def check_batch_equals_sequential(fx, rng, settings=None):
        """Run ``test_batch_equals_sequential`` on the fixture ``fx``, its
        layers compiled with ``settings``; returns the layer and the
        results of its first batch."""
        batch = [fx.sample(rng) for _ in range(6)]
        sequential = Layer.compile(fx.problem, settings)
        seq = [sequential.forward(v) for v in batch]
        layer = Layer.compile(fx.problem, settings)
        whole = layer.forward_batch(batch)
        if layer._a_fixed:
            assert layer._factor is not None
            assert whole[0].info["timings"]["factorize"] > 0.0
            assert all(r.info["timings"]["factorize"] == 0.0
                       for r in whole[1:])
        split = (layer.forward_batch(batch[:1]) + layer.forward_batch(batch[1:3])
                 + layer.forward_batch(batch[3:]))
        for a, b, c in zip(seq, whole, split):
            assert_same_solve(a, b)
            assert_same_solve(a, c)
        return layer, whole

    @pytest.mark.parametrize("name", list(BATCH_FIXTURES))
    def test_backward_batch_equals_sequential(self, name, rng):
        """Per element, ``backward_batch`` is ``backward`` on a tape of its
        own: gradients bit for bit, and mode, fallback, LSQR iterations
        and residual exactly, however the batch is split (8 + 5 + 3 + 1,
        or empty).  A second batch on the same tapes reuses their
        factors and gives the same gradients."""
        fx = BATCH_FIXTURES[name]
        batch = [fx.sample(rng) for _ in range(17)]
        layer = Layer.compile(fx.problem)
        tapes = [r for r in layer.forward_batch(batch) if r.ok]
        lone = [layer.forward(v) for v, r in zip(batch, layer.forward_batch(
            batch)) if r.ok]
        cots = [{fx.output: rng.standard_normal(r.outputs[fx.output].shape)}
                for r in tapes]
        want = [layer.backward(r, c) for r, c in zip(lone, cots)]
        assert layer.backward_batch([], []) == []
        got = []
        for lo, hi in ((0, 8), (8, 13), (13, 16), (16, 17)):
            got += layer.backward_batch(tapes[lo:hi], cots[lo:hi])
        assert len(got) == len(want) == len(tapes) > 0
        for a, b in zip(want, got):
            assert_same_backward(a, b)
        again = layer.backward_batch(tapes[:8], cots[:8])
        for a, b in zip(want, again):
            assert_same_backward(a, b)
            assert b[1]["timings"]["m_factor"] == 0.0

    def test_backward_batch_with_fallback_elements(self):
        """Elements whose derivative system is singular take LSQR inside a
        batch of direct ones, each as it would alone."""
        layer = _two_bounds_layer()
        tapes = layer.forward_batch(TWO_BOUNDS)
        lone = [layer.forward(v) for v in TWO_BOUNDS]
        cots = [{"x": np.asarray(w)} for w in (1.0, -2.0, 0.5, 3.0)]
        got = layer.backward_batch(tapes, cots)
        assert [info["mode"] for _, info in got] == [
            "lsqr", "direct", "lsqr", "direct"]
        for r, c, b in zip(lone, cots, got):
            assert_same_backward(layer.backward(r, c), b)

    @pytest.mark.parametrize("bad", [
        "length", "foreign", "infeasible", "result", "mapping", "name",
        "shape", "numeric", "complex", "nan"])
    def test_malformed_backward_batch_builds_nothing(self, bad):
        """Every tape and cotangent is checked before any factor is
        built: the bad element comes last, after two good ones."""
        layer = _status_layer(TIGHT)
        good = layer.forward_batch([STATUS_BATCH[0], STATUS_BATCH[3]])
        last = good[0]
        cots = [{"x": np.ones(2)}] * 3
        error = ShapeError
        if bad == "foreign":
            last = _status_layer(TIGHT).forward(STATUS_BATCH[0])
            error = SolveStatusError
        elif bad == "infeasible":
            last = layer.forward(STATUS_BATCH[1])
            error = SolveStatusError
        elif bad == "result":
            # the layer's token on what is not a ForwardResult
            last = SimpleNamespace(_layer_token=layer._token, ok=True,
                                   _solution=good[0]._solution, _cache={})
        elif bad == "length":
            cots = cots[:2]
        elif bad == "nan":
            cots = cots[:2] + [{"x": np.array([np.nan, 0.0])}]
            error = SolverInputError
        else:
            cots = cots[:2] + [{
                "mapping": "not a mapping", "name": {"z": np.ones(2)},
                "shape": {"x": np.ones(3)}, "numeric": {"x": ["a", "b"]},
                "complex": {"x": np.array([1.0, 1j])}}[bad]]
        assert all(r.ok for r in good)
        with pytest.raises(error):
            layer.backward_batch(good + [last], cots)
        assert all("m_factor" not in r._cache for r in good + [last])

    def test_backward_timings_add_up_to_the_call(self, monkeypatch):
        """Each backward stage is timed once per batch and shared out over
        its elements, so their timings add up to the call's wall time:
        ``m_factor`` equally over the elements whose factor the call
        builds (a tape given twice builds it once), ``m_solve`` in
        proportion to 1 + LSQR iterations, the other two equally."""
        layer = _two_bounds_layer()
        tapes = layer.forward_batch(TWO_BOUNDS)
        reads = []

        def clock():
            reads.append(2.0 ** len(reads))
            return reads[-1]

        monkeypatch.setattr(layer_module, "time",
                            SimpleNamespace(perf_counter=clock))
        cots = [{"x": np.asarray(1.0)}] * 5
        for call in range(2):
            reads.clear()
            out = layer.backward_batch(tapes + tapes[:1], cots)
            timings = [info["timings"] for _, info in out]
            assert sum(sum(t.values()) for t in timings) == pytest.approx(
                reads[-1] - reads[0], rel=1e-12)
            built = [t["m_factor"] for t in timings]
            if call == 0:
                assert built[0] > 0.0 and built[1:4] == [built[0]] * 3
            assert built[4 * (call == 0):] == [0.0] * (5 - 4 * (call == 0))
            work = [1 + info["iterations"] for _, info in out]
            assert max(work) > 1
            for t, w in zip(timings, work):
                assert t["m_solve"] / w == pytest.approx(
                    timings[1]["m_solve"] / work[1], rel=1e-12)
                assert t["retrieval_adjoint"] == timings[0][
                    "retrieval_adjoint"]

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

    def test_mixed_statuses(self):
        settings = SolverSettings(max_iters=150, refine=False,
                                  eps_abs=1e-11, eps_rel=1e-11)
        layer = _status_layer(settings)
        results = layer.forward_batch(STATUS_BATCH)
        assert [(r.status, r.info["iterations"]) for r in results] == [
            ("optimal", 150), ("infeasible", 100), ("unbounded", 100),
            ("optimal", 125), ("max_iters", 150), ("max_iters", 150)]
        for values, r in zip(STATUS_BATCH, results):
            assert_same_solve(layer.forward(values), r)

    def test_one_element_polishes(self):
        settings = SolverSettings(refine_interval=125, eps_abs=1e-11,
                                  eps_rel=1e-11)
        layer = _status_layer(settings)
        batch = STATUS_BATCH[1:3] + STATUS_BATCH[5:]
        results = layer.forward_batch(batch)
        assert [r.info["polishes"] > 0 for r in results] == [
            False, False, True]
        for values, r in zip(batch, results):
            assert_same_solve(layer.forward(values), r)

    def test_empty_batch(self):
        layer = Layer.compile(relu_fixture(3).problem, TIGHT)
        assert layer.forward_batch([]) == []
        assert layer._factor is None

    @pytest.mark.parametrize("bad", [
        "not a mapping", {"p": np.ones(3), "t": np.ones(3), "w": 1.0},
        {"p": np.ones(4), "t": np.ones(3)},
        {"p": ["a", "b", "c"], "t": np.ones(3)},
        {"p": np.ones(3) * (1 + 1e-9j), "t": np.ones(3)},
        {"p": np.ones(3), "t": -np.ones(3)}],
        ids=["mapping", "name", "shape", "numeric", "complex", "sign"])
    def test_malformed_element_solves_nothing(self, bad, rng, monkeypatch):
        """Every element is bound and checked before any is materialized
        or solved."""
        x = variable("x", 3)
        layer = Layer.compile(Problem(
            "minimize", sum_squares(x - parameter("p", 3)),
            [ge(x, parameter("t", 3, nonneg=True))]), TIGHT)
        good = {"p": rng.standard_normal(3), "t": rng.random(3)}
        calls = []
        monkeypatch.setattr(layer_module, "materialize",
                            lambda *a: calls.append(a) or materialize(*a))
        with pytest.raises(ShapeError):
            layer.forward_batch([good, good, bad])
        assert calls == [] and layer._factor is None
        assert layer.forward_batch([good])[0].ok

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [0, 2])
    def test_non_finite_element_solves_nothing(self, bad, k, rng,
                                               monkeypatch):
        """A minibatch whose element k has a non-finite parameter raises
        ``SolverInputError`` from the one check of the materialized
        minibatch, before any element is solved."""
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        batch = [fx.sample(rng) for _ in range(3)]
        batch[k] = {"x": np.array([1.0, bad, -1.0])}
        calls = []
        monkeypatch.setattr(layer_module, "solve",
                            lambda *a: calls.append(a) or solve(*a))
        with pytest.raises(SolverInputError, match="NaN/Inf"):
            layer.forward_batch(batch)
        assert calls == []

    def test_iterate_time_is_the_loop_shared_by_iterations(self,
                                                          monkeypatch):
        """Each element's ``iterate`` is the loop's wall time less the
        polishes, in proportion to its iterations, so iterate and polish
        add up to the loop.  The solver's clock here ticks once per
        embedding projection: one per loop pass, and the polish's."""
        clock = [0.0]
        project = solver.project_embedding

        def ticking(*args):
            clock[0] += 1.0
            return project(*args)

        monkeypatch.setattr(solver, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(solver, "project_embedding", ticking)
        layer = _status_layer(SolverSettings(refine_interval=125))
        batch = STATUS_BATCH[1:4] + STATUS_BATCH[5:]
        results = layer.forward_batch(batch)
        timings = [r.info["timings"] for r in results]
        iterations = [r.info["iterations"] for r in results]
        assert sum(t["polish"] for t in timings) > 0.0
        assert sum(t["iterate"] + t["polish"] for t in timings) == \
            pytest.approx(clock[0], rel=1e-12)
        assert sum(t["iterate"] for t in timings) == \
            pytest.approx(max(iterations), rel=1e-12)
        for t, its in zip(timings, iterations):
            assert t["iterate"] / its == pytest.approx(
                max(iterations) / sum(iterations), rel=1e-12)

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


def _duplicated_rows_layer():
    """A program whose derivative system is singular (acceptance 7)."""
    t = parameter("t")
    x = variable("x")
    return Layer.compile(Problem("minimize", sum_entries(x),
                                 [ge(x, t), ge(x, t)]), TIGHT)


class TestInfo:
    FORWARD_KEYS = {"iterations", "polishes", "solve_time", "timings",
                    "sizes", "status", "iteration_system", "acceleration"}
    FORWARD_TIMINGS = {"bind", "materialize", "equilibrate", "factorize",
                       "iterate", "polish", "retrieve"}
    BACKWARD_KEYS = {"mode", "fallback", "residual", "iterations",
                     "m_factor_order", "m_factor_nnz", "timings"}
    BACKWARD_TIMINGS = {"retrieval_adjoint", "m_factor", "m_solve",
                        "materialize_adjoint"}

    @staticmethod
    def _bounded_layer(settings=TIGHT):
        x = variable("x")
        return Layer.compile(Problem(
            "minimize", sum_entries(x),
            [ge(x, parameter("lo")), le(x, parameter("hi"))]), settings)

    @staticmethod
    def _check_sizes(res, layer):
        cones = layer.asa.cones
        n, m = layer.asa.n_cone_vars, layer.asa.n_rows
        assert res.info["sizes"] == {
            "n": n, "m": m, "N": n + m + 1, "zero": cones.n_zero,
            "nonneg": cones.n_nonneg, "soc_blocks": len(cones.soc_dims),
            "soc_rows": sum(cones.soc_dims)}
        assert cones.n_zero + cones.n_nonneg + sum(cones.soc_dims) == m

    @pytest.mark.parametrize("values, settings, status", [
        ({"lo": 0.0, "hi": 1.0}, TIGHT, "optimal"),
        ({"lo": 1.0, "hi": 0.0}, TIGHT, "infeasible"),
        ({"lo": 0.0, "hi": 1.0}, SolverSettings(max_iters=3, refine=False),
         "max_iters"),
    ], ids=["optimal", "infeasible", "max_iters"])
    def test_forward_timings_on_every_status(self, values, settings, status):
        layer = self._bounded_layer(settings)
        res = layer.forward(values)
        assert res.status == status
        assert self.FORWARD_KEYS <= set(res.info)
        timings = res.info["timings"]
        assert set(timings) == self.FORWARD_TIMINGS
        assert all(isinstance(t, float) and t >= 0.0
                   for t in timings.values())
        assert (timings["retrieve"] > 0.0) == (status == "optimal")
        self._check_sizes(res, layer)
        assert res.info["sizes"]["nonneg"] == 2

    def test_forward_timings_when_unbounded(self):
        x = variable("x")
        layer = Layer.compile(Problem("minimize", sum_entries(x),
                                      [le(x, parameter("hi"))]), TIGHT)
        res = layer.forward({"hi": 1.0})
        assert res.status == "unbounded"
        assert set(res.info["timings"]) == self.FORWARD_TIMINGS
        self._check_sizes(res, layer)

    def test_iteration_system(self, rng):
        """A forward names its K solve: a dense inverse of K on a fixture
        layer, a dense inverse of S = I + A'A on a QP whose K is above
        ``K_DENSE_ORDER``; and counts the accelerated points, which the
        dense K solve takes none of."""
        fx = relu_fixture()
        res = Layer.compile(fx.problem, TIGHT).forward(fx.sample(rng))
        assert res.info["iteration_system"] == "dense"
        assert res.info["acceleration"] == {"accepted": 0, "rejected": 0}
        fx = small_sparse_qp(n=48)
        values = fx.sample(rng)
        res = Layer.compile(fx.problem, TIGHT).forward(values)
        assert res.ok and res.info["sizes"]["N"] - 1 > solver.K_DENSE_ORDER
        assert res.info["iteration_system"] == "reduced"
        accepted = res.info["acceleration"]["accepted"]
        assert 0 < accepted < res.info["iterations"]

    def test_batch_results_share_sizes(self, rng):
        """One ``forward_batch``'s results share one ``sizes`` dict and, on
        the unaccelerated ``"dense"`` K solve, one zero ``acceleration``
        dict; another call builds its own."""
        fx = relu_fixture()
        layer = Layer.compile(fx.problem, TIGHT)
        results = layer.forward_batch([fx.sample(rng) for _ in range(3)])
        first = results[0].info
        assert first["iteration_system"] == "dense"
        for res in results[1:]:
            assert res.info["sizes"] is first["sizes"]
            assert res.info["acceleration"] is first["acceleration"]
        self._check_sizes(results[0], layer)
        again = layer.forward_batch([fx.sample(rng)])[0].info
        assert again["sizes"] == first["sizes"]
        assert again["sizes"] is not first["sizes"]

    def test_sizes_count_second_order_blocks(self, rng):
        layer, values = _sum_of_norms_layer(3, rng)
        res = layer.forward(values)
        self._check_sizes(res, layer)
        assert res.info["sizes"]["soc_blocks"] == 3
        assert res.info["sizes"]["soc_rows"] == 12  # (t_i, F_i x - g_i)

    @pytest.mark.parametrize("degenerate", [False, True],
                             ids=["direct", "fallback"])
    def test_backward_keys(self, degenerate, rng):
        if degenerate:
            layer = _duplicated_rows_layer()
            res = layer.forward({"t": 2.0})
            cot = {"x": np.asarray(1.0)}
        else:
            fx = relu_fixture(3)
            layer = Layer.compile(fx.problem, TIGHT)
            res = layer.forward(fx.sample(rng))
            cot = {"y": rng.standard_normal(3)}
        _, info = layer.backward(res, cot)
        assert set(info) == self.BACKWARD_KEYS
        assert info["mode"] == ("lsqr" if degenerate else "direct")
        assert info["fallback"] is degenerate
        assert (info["iterations"] > 0) is degenerate
        assert set(info["timings"]) == self.BACKWARD_TIMINGS
        assert all(isinstance(t, float) and t >= 0.0
                   for t in info["timings"].values())
        assert info["timings"]["m_factor"] > 0.0
        # both programs are small enough for the dense backend, which
        # holds M + zhat zhat' of order N and its N**2 entries
        assert info["m_factor_order"] == res.info["sizes"]["N"]
        assert info["m_factor_nnz"] == info["m_factor_order"] ** 2

    @pytest.mark.parametrize("singular", [False, True],
                             ids=["direct", "fallback"])
    def test_backward_factor_size_on_sparse_backend(self, singular, rng,
                                                    monkeypatch):
        """SuperLU reports its stored entries, and none when it found an
        exactly zero pivot.  ``force_fallback`` fakes that pivot in the
        one SuperLU call of the lifted system: a sparse backward under it
        must take the fallback, or the hook no longer reaches it."""
        monkeypatch.setattr(solver, "DENSE_ORDER", 0)
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        res = layer.forward(fx.sample(rng))
        if singular:
            force_fallback(monkeypatch)
        _, info = layer.backward(res, {"y": rng.standard_normal(3)})
        assert set(info) == self.BACKWARD_KEYS
        assert info["fallback"] is singular
        factor = res._cache["m_factor"]
        assert info["m_factor_order"] == factor.order
        if singular:
            assert info["m_factor_nnz"] == 0
        else:
            assert info["m_factor_nnz"] == solver._splu_lifted(factor._L).nnz
            assert info["m_factor_nnz"] > 0


def test_numerically_singular_factor_falls_back():
    """The derivative system of this nonnegative least-squares binding
    (both bounds active, x ~ 1e-10) has M + zhat zhat' of condition
    ~1e16.  LAPACK factors it with no zero pivot and its solution passes
    the residual check, yet that gradient missed the central difference by
    ~1e-2.  Its reciprocal condition number (~2e-20) is below
    ``RCOND_MIN``, so the backward takes LSQR, which meets it."""
    fx = gradient_fixtures()[4]
    rng = np.random.default_rng([33, 4, 0])
    values = fx.sample(rng)
    cot = {fx.output: rng.standard_normal(
        fx.problem.variable_named(fx.output).shape.dims)}
    layer = Layer.compile(fx.problem)
    res = layer.forward(values)
    grads, info = layer.backward(res, cot)
    assert info["m_factor_order"] <= solver.DENSE_ORDER
    assert not res._cache["m_factor"].ok
    assert info["mode"] == "lsqr" and info["fallback"]
    for name in layer.parameter_order:
        fd = fd_param_gradient(layer, values, cot, name, h=1e-5)
        assert max_rel_error(fd, grads[name]) <= 1e-4, name


class TestSingularMembers:
    """One minibatch backward whose stack of M + zhat zhat' holds an exactly
    singular program, one under ``RCOND_MIN`` and regular ones."""

    # p = 0 empties w's column of A and its cost, so w stays 0 and M +
    # zhat zhat' has an exactly zero column; t2 = t1 with a = 1 makes the
    # two bounds on x duplicates, active together: nearly singular
    VALUES = [dict(t1=2.0, a=1.0, t2=1.0, p=1.0),
              dict(t1=2.0, a=1.0, t2=1.0, p=0.0),
              dict(t1=2.0, a=1.0, t2=2.0, p=1.0),
              dict(t1=1.0, a=2.0, t2=3.0, p=0.5)]
    KINDS = ["regular", "singular", "gated", "regular"]
    COTANGENT = {"x": np.asarray(1.0), "w": np.asarray(0.5)}

    @staticmethod
    def _layer():
        t1, a, t2, p = (parameter(name) for name in ("t1", "a", "t2", "p"))
        x, w = variable("x"), variable("w")
        return Layer.compile(Problem("minimize", x + p * w, [
            ge(x, t1), ge(a * x, t2), ge(p * w, 0.0)]), TIGHT)

    def _forward(self, layer):
        results = layer.forward_batch(self.VALUES)
        assert all(r.ok for r in results)
        return results

    def _backward(self, layer, results):
        return layer.backward_batch(results, [self.COTANGENT] * len(results))

    def test_each_member_keeps_its_mode(self, monkeypatch):
        """The stack's one inverse call raises for the singular program, so
        the stack is inverted matrix by matrix: each regular program takes
        the direct solve and equals its lone backward bit for bit, the
        other two take LSQR, with finite gradients."""
        layer = self._layer()
        results = self._forward(layer)
        calls = []
        inverse = np.linalg.inv
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "inv", lambda X: calls.append(
                X.shape) or inverse(X))
            out = self._backward(layer, results)
        N = results[0].info["sizes"]["N"]
        assert calls == [(4, N, N)] + [(N, N)] * 4
        for values, result, (grads, info), kind in zip(
                self.VALUES, results, out, self.KINDS):
            factor = result._cache["m_factor"]
            assert np.isnan(factor._inverse).any() == (kind == "singular")
            assert factor.ok == (kind == "regular")
            assert info["mode"] == ("direct" if kind == "regular" else "lsqr")
            assert all(np.all(np.isfinite(g)) for g in grads.values())
            if kind == "regular":
                lone, _ = layer.backward(layer.forward(values), self.COTANGENT)
                for name in layer.parameter_order:
                    assert np.array_equal(grads[name], lone[name]), name

    def test_no_inverse_at_all(self, monkeypatch):
        """With every inverse call of the backward failing, every program
        takes LSQR on its dense M + zhat zhat': the regular ones give their
        direct gradients to 1e-8, the others the same gradients as
        before."""
        layer = self._layer()
        want = self._backward(layer, self._forward(layer))
        results = self._forward(layer)

        def singular(X):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        out = self._backward(layer, results)
        for (grads, info), (direct, _), kind in zip(out, want, self.KINDS):
            assert info["mode"] == "lsqr"
            for name in layer.parameter_order:
                if kind == "regular":
                    np.testing.assert_allclose(grads[name], direct[name],
                                               rtol=1e-8, atol=1e-8)
                else:
                    assert np.array_equal(grads[name], direct[name])


class TestTapeFactor:
    """The first backward of a forward result builds its derivative
    factor; every later one reuses it."""

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_second_backward_reuses_the_factor(self, dense, rng,
                                               monkeypatch):
        if not dense:
            monkeypatch.setattr(solver, "DENSE_ORDER", 0)
        built = []

        class Counting(solver.MFactor):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(layer_module, "MFactor", Counting)
        fx = relu_fixture(3)
        layer = Layer.compile(fx.problem, TIGHT)
        res = layer.forward(fx.sample(rng))
        cot = {"y": rng.standard_normal(3)}
        first, info1 = layer.backward(res, cot)
        second, info2 = layer.backward(res, cot)
        layer.backward(res, {"y": rng.standard_normal(3)})
        assert len(built) == 1
        assert info1["timings"]["m_factor"] > 0.0
        assert info2["timings"]["m_factor"] == 0.0
        for name in layer.parameter_order:
            assert np.array_equal(first[name], second[name])

    def test_failed_factor_is_reused_by_the_fallback(self):
        layer = _duplicated_rows_layer()
        res = layer.forward({"t": 2.0})
        first, info1 = layer.backward(res, {"x": np.asarray(1.0)})
        second, info2 = layer.backward(res, {"x": np.asarray(1.0)})
        assert info1["fallback"] and info2["fallback"]
        assert info2["timings"]["m_factor"] == 0.0
        assert np.array_equal(first["t"], second["t"])
        assert float(first["t"]) == pytest.approx(1.0, abs=1e-6)
