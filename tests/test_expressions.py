import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcone.errors import DeclarationError, ShapeError
from diffcone.expressions import (
    Curvature,
    Expression,
    Shape,
    Sign,
    absval,
    classify,
    constant,
    evaluate,
    hstack,
    index,
    make_node,
    matmul,
    maximum,
    multiply,
    norm2,
    parameter,
    postorder,
    promote,
    reshape,
    sum_entries,
    sum_squares,
    transpose,
    variable,
    vstack,
)
from diffcone.fixtures import gen_random_dpp


class TestShapes:
    def test_scalar(self):
        s = Shape(())
        assert s.rank == 0 and s.size == 1 and s.is_scalar

    def test_matrix_size(self):
        assert Shape((3, 4)).size == 12

    def test_rank_cap(self):
        with pytest.raises(ShapeError):
            Shape((2, 2, 2))

    def test_negative_dim(self):
        with pytest.raises(ShapeError):
            Shape((-1,))


class TestShapeRules:
    def test_add_requires_equal_shapes(self):
        with pytest.raises(ShapeError, match="add"):
            make_node("add", [variable("x", 2), variable("y", 3)])

    def test_matmul_shapes(self):
        A = parameter("A", (3, 2))
        x = variable("x", 2)
        assert (A @ x).shape.dims == (3,)
        assert matmul(variable("u", 3), A).shape.dims == (2,)
        assert matmul(x, x).shape.dims == ()
        B = parameter("B", (2, 4))
        assert matmul(A, B).shape.dims == (3, 4)

    def test_matmul_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul"):
            matmul(parameter("A", (3, 2)), variable("x", 3))

    def test_stack_shapes(self):
        v = vstack([variable("a", 2), constant(1.0), variable("b", 3)])
        assert v.shape.dims == (6,)
        m = vstack([variable("M", (2, 3)), constant(np.zeros((1, 3)))])
        assert m.shape.dims == (3, 3)
        h = hstack([variable("M", (2, 3)), constant(np.zeros((2, 1)))])
        assert h.shape.dims == (2, 4)
        with pytest.raises(ShapeError):
            vstack([variable("M", (2, 3)), variable("a", 2)])

    def test_index_and_reshape(self):
        M = variable("M", (3, 4))
        e = index(M, ((0, 2, 1), (1, 4, 2)))
        assert e.shape.dims == (2, 2)
        r = reshape(M, (12,))
        assert r.shape.dims == (12,)
        with pytest.raises(ShapeError):
            reshape(M, (5,))

    def test_index_accepts_slices(self):
        x = variable("x", 5)
        assert index(x, (slice(0, 2),)).shape.dims == (2,)
        assert index(x, slice(1, None, 2)).shape.dims == (2,)
        assert index(x, (slice(0, 2),)).meta == index(x, ((0, 2, 1),)).meta
        assert index(x, -1).meta == ((4, 5, 1),)

    @pytest.mark.parametrize("key", [
        ("a",), (1.5,), ((0, 1),), (slice(0, 2, 0),), (slice(4, 0, -1),),
        (5,), (0, 1), None])
    def test_index_malformed_key_raises_shape_error(self, key):
        with pytest.raises(ShapeError):
            index(variable("x", 5), key)

    def test_transpose(self):
        assert transpose(variable("M", (3, 4))).shape.dims == (4, 3)
        assert transpose(variable("v", 3)).shape.dims == (3,)

    def test_promote_requires_scalar(self):
        with pytest.raises(ShapeError):
            promote(variable("v", 3), (3, 3))


class TestCurvature:
    def test_nonneg_parameter_times_norm_is_convex(self):
        lam = parameter("lam", nonneg=True)
        x = variable("x", 3)
        e = multiply(lam, norm2(x))
        assert e.curvature == Curvature.CONVEX

    def test_unsigned_parameter_times_norm_is_unknown(self):
        lam = parameter("lam")
        e = multiply(lam, norm2(variable("x", 3)))
        assert e.curvature == Curvature.UNKNOWN

    def test_add_constant_zero_is_affine_unknown_sign(self):
        x = variable("x")
        e = constant(0.0) + x
        assert e.curvature == Curvature.AFFINE
        assert e.sign == Sign.UNKNOWN

    def test_parameter_product_is_unknown(self):
        p1, p2 = parameter("p1"), parameter("p2")
        e = multiply(p1, p2)
        assert e.curvature == Curvature.UNKNOWN
        assert not e.product_ok

    def test_constant_times_parameter_is_affine(self):
        e = multiply(constant(2.0), parameter("p"))
        assert e.curvature == Curvature.AFFINE
        assert e.product_ok

    def test_negated_convex_is_concave(self):
        e = -norm2(variable("x", 2))
        assert e.curvature == Curvature.CONCAVE

    def test_constant_subtree_has_constant_curvature(self):
        e = norm2(constant(np.array([3.0, 4.0])))
        assert e.curvature == Curvature.CONSTANT
        assert e.parameter_free and e.variable_free

    def test_nonpos_weights_flip_monotonicity(self):
        w = parameter("w", nonneg=True)
        e = multiply(-w, norm2(variable("x", 2)))
        assert e.curvature == Curvature.CONCAVE

    def test_maximum_of_affine_is_convex(self):
        x = variable("x", 2)
        e = maximum(x, constant(np.zeros(2)))
        assert e.curvature == Curvature.CONVEX
        assert e.sign == Sign.NONNEG

    def test_matrix_coeff_with_mixed_sign_blocks_composition(self):
        C = constant(np.array([[1.0, -1.0]]))
        e = matmul(C, absval(variable("x", 2)))
        assert e.curvature == Curvature.UNKNOWN
        nonneg_c = constant(np.array([[1.0, 2.0]]))
        assert matmul(nonneg_c, absval(variable("x", 2))).curvature \
            == Curvature.CONVEX


class TestSigns:
    def test_norms_are_nonneg(self):
        x = variable("x", 2)
        assert norm2(x).sign == Sign.NONNEG
        assert sum_squares(x).sign == Sign.NONNEG
        assert absval(x).sign == Sign.NONNEG

    def test_product_sign_table(self):
        p = parameter("p", nonneg=True)
        q = parameter("q", nonpos=True)
        assert multiply(p, p).sign == Sign.NONNEG
        assert multiply(p, q).sign == Sign.NONPOS
        assert multiply(q, q).sign == Sign.NONNEG
        assert multiply(p, parameter("r")).sign == Sign.UNKNOWN

    def test_max_with_zero_is_nonneg(self):
        q = parameter("q", nonpos=True)
        assert maximum(q, constant(0.0)).sign == Sign.ZERO
        assert maximum(parameter("r"), constant(0.0)).sign == Sign.NONNEG


class TestClassification:
    def test_parameter_leaf(self):
        F = parameter("F", (3, 2))
        flags = classify(F)
        assert flags == {"parameter_free": False, "variable_free": True,
                         "parameter_affine": True}

    def test_product_of_parameter_and_variable(self):
        F = parameter("F", (3, 2))
        x = variable("x", 2)
        flags = classify(F @ x)
        assert not flags["parameter_free"]
        assert not flags["variable_free"]
        assert not flags["parameter_affine"]

    def test_sum_of_parameter_and_constant_is_parameter_affine(self):
        F = parameter("F", (3, 2))
        G = constant(np.arange(6.0).reshape(3, 2))
        e = F + G
        assert classify(e)["parameter_affine"]
        # brute-force affinity in the parameter: midpoint value equals the
        # average of endpoint values
        rng = np.random.default_rng(0)
        for _ in range(20):
            fa = rng.standard_normal((3, 2))
            fb = rng.standard_normal((3, 2))
            mid = evaluate(e, {"F": 0.5 * (fa + fb)})
            ends = 0.5 * (evaluate(e, {"F": fa}) + evaluate(e, {"F": fb}))
            np.testing.assert_allclose(mid, ends, atol=1e-12)

    def test_nonlinear_of_parameter_is_not_parameter_affine(self):
        p = parameter("p", 3)
        assert not classify(norm2(p))["parameter_affine"]


class TestEvaluate:
    def test_matches_numpy_pipeline(self, rng):
        x = variable("x", 3)
        A = parameter("A", (2, 3))
        e = sum_entries(absval(A @ x - constant(np.ones(2))))
        xv = rng.standard_normal(3)
        Av = rng.standard_normal((2, 3))
        want = np.abs(Av @ xv - 1.0).sum()
        np.testing.assert_allclose(evaluate(e, {"x": xv, "A": Av}), want)

    def test_index_reshape_transpose_roundtrip(self, rng):
        M = variable("M", (3, 4))
        Mv = rng.standard_normal((3, 4))
        e = transpose(index(M, ((0, 3, 1), (0, 4, 1))))
        np.testing.assert_allclose(evaluate(e, {"M": Mv}), Mv.T)
        f = reshape(M, (12,))
        np.testing.assert_allclose(evaluate(f, {"M": Mv}),
                                   Mv.ravel(order="F"))

    def test_missing_value_raises(self):
        with pytest.raises(DeclarationError, match="x"):
            evaluate(variable("x", 2), {})

    def test_promote_broadcast(self):
        e = promote(constant(2.5), (2, 2))
        np.testing.assert_allclose(evaluate(e, {}), np.full((2, 2), 2.5))


def _recursive_postorder(e, out, seen, prune=None):
    if id(e) in seen:
        return
    seen.add(id(e))
    if prune is None or not prune(e):
        for a in e.args:
            _recursive_postorder(a, out, seen, prune)
    out.append(e)


class TestPostorder:
    def test_finish_order_of_a_recursive_walk(self):
        problems = [gen_random_dpp(seed, 1 + seed % 3, seed % 4)
                    for seed in range(40)]
        for prob in problems:
            roots = [prob.objective] + [side for c in prob.constraints
                                        for side in (c.lhs, c.rhs)]
            for prune in (None, Expression.is_constant):
                want, seen = [], set()
                for root in roots:
                    _recursive_postorder(root, want, seen, prune)
                got = list(postorder(*roots, prune=prune))
                assert [id(e) for e in got] == [id(e) for e in want]

    def test_shared_nodes_once_after_their_arguments(self):
        x = variable("x", 2)
        shared = -x
        e = shared + (shared + x)
        assert list(postorder(e)) == [
            x, shared, e.args[1], e]

    def test_done_skips_subtrees(self):
        x, y = variable("x", 2), variable("y", 2)
        left = -x
        e = left + y
        assert list(postorder(e, done={id(left)})) == [y, e]

    def test_prune_leaves_arguments_unvisited(self):
        x = variable("x", 2)
        c = constant(np.ones(2))
        folded = c + c
        e = x + folded
        assert list(postorder(e, prune=Expression.is_constant)) == [
            x, folded, e]

    def test_deep_chain_without_recursion(self):
        x = variable("x")
        e = x
        for _ in range(5000):
            e = e + x
        nodes = list(postorder(e))
        assert len(nodes) == 5001 and nodes[0] is x and nodes[-1] is e
        assert float(evaluate(e, {"x": 2.0})) == 10002.0


class TestDeterminism:
    def test_annotations_depend_only_on_structure(self):
        def build():
            x = variable("x", 2)
            lam = parameter("lam", nonneg=True)
            return multiply(lam, norm2(x)) + sum_squares(x)

        a, b = build(), build()
        assert a.curvature == b.curvature
        assert a.sign == b.sign
        assert classify(a) == classify(b)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(0, 2 ** 32 - 1))
def test_scalar_multiplication_promotes(n, seed):
    rng = np.random.default_rng(seed)
    x = variable("x", n)
    e = multiply(constant(2.0), x)
    xv = rng.standard_normal(n)
    np.testing.assert_allclose(evaluate(e, {"x": xv}), 2.0 * xv)
