"""Sparse tensor mechanics against dense contraction oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcone.canon import CanonContext, leaf_tensor
from diffcone.expressions import constant, parameter, variable
from diffcone.tensor3 import SparseTensor3, psi_combine


def dense_psi(T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Oracle: slice-wise product with the constant-slice operand expanded."""
    p1 = T.shape[2]
    out = np.zeros((T.shape[0], S.shape[1], p1))
    t_const = np.allclose(T[:, :, :-1], 0)
    for k in range(p1):
        if t_const:
            out[:, :, k] = T[:, :, -1] @ S[:, :, k]
        else:
            out[:, :, k] = T[:, :, k] @ S[:, :, -1]
    return out


def _slice_coo(t: SparseTensor3, k) -> sp.coo_matrix:
    mask = t.k == k
    return sp.coo_matrix((t.v[mask], (t.i[mask], t.j[mask])),
                         shape=t.dims[:2])


def slicewise_psi(T: SparseTensor3, S: SparseTensor3) -> SparseTensor3:
    """Reference: one sparse product per populated parameter slice."""
    n_slices = T.dims[2]
    out_dims = (T.dims[0], S.dims[1], n_slices)
    ii, jj, kk, vv = [], [], [], []
    if T.is_constant_slice_only():
        left = _slice_coo(T, n_slices - 1).tocsr()
        products = ((k, left @ _slice_coo(S, k).tocsc())
                    for k in np.unique(S.k))
    else:
        right = _slice_coo(S, n_slices - 1).tocsc()
        products = ((k, _slice_coo(T, k).tocsr() @ right)
                    for k in np.unique(T.k))
    for k, prod in products:
        prod = prod.tocoo()
        ii.append(prod.row)
        jj.append(prod.col)
        kk.append(np.full(prod.nnz, int(k), dtype=np.int64))
        vv.append(prod.data)
    if not ii:
        return SparseTensor3.from_entries(out_dims, [], [], [], [])
    return SparseTensor3.from_entries(
        out_dims,
        np.concatenate(ii), np.concatenate(jj),
        np.concatenate(kk), np.concatenate(vv),
    )


def assert_same_entries(got: SparseTensor3, want: SparseTensor3):
    assert got.dims == want.dims
    for name in "ijkv":
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# Small integers make exact cancellation common; general floats make the
# summation order visible in the last bit.
ENTRY_VALUES = st.one_of(
    st.sampled_from([-1.0, 1.0, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False).filter(lambda v: v != 0.0))


def _draw_tensor(draw, dims, slices) -> SparseTensor3:
    if 0 in dims:
        entries = []
    else:
        entries = draw(st.lists(st.tuples(
            st.integers(0, dims[0] - 1), st.integers(0, dims[1] - 1),
            st.sampled_from(slices), ENTRY_VALUES), max_size=12))
    cols = [list(c) for c in zip(*entries)] or [[], [], [], []]
    return SparseTensor3.from_entries(dims, *cols)


@st.composite
def psi_operands(draw):
    """(T, S) with at least one operand constant-slice-only.  Slice counts
    run into the thousands with only a few slices populated; operands may
    be empty or have an empty dimension."""
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    n_slices = draw(st.one_of(st.integers(1, 6), st.integers(1000, 5000)))
    const = [n_slices - 1]
    populated = draw(st.lists(st.integers(0, n_slices - 1), min_size=1,
                              max_size=3)) + const
    side = draw(st.sampled_from(["left", "right", "both"]))
    T = _draw_tensor(draw, (rows, inner, n_slices),
                     populated if side == "right" else const)
    S = _draw_tensor(draw, (inner, cols, n_slices),
                     populated if side == "left" else const)
    return T, S


def random_tensor(rng, dims, const_only=False, density=0.4):
    size = dims[0] * dims[1] * dims[2]
    mask = rng.random(size).reshape(dims) < density
    vals = rng.standard_normal(dims) * mask
    if const_only:
        vals[:, :, :-1] = 0
    i, j, k = np.nonzero(vals)
    return SparseTensor3.from_entries(dims, i, j, k, vals[i, j, k])


class TestSparseTensor3:
    def test_duplicates_are_summed(self):
        t = SparseTensor3.from_entries((2, 2, 1), [0, 0, 1], [1, 1, 0],
                                       [0, 0, 0], [2.0, 3.0, 1.0])
        dense = t.to_dense()
        assert dense[0, 1, 0] == 5.0
        assert t.nnz == 2

    def test_cancelling_duplicates_are_dropped(self):
        t = SparseTensor3.from_entries((1, 1, 1), [0, 0], [0, 0], [0, 0],
                                       [1.0, -1.0])
        assert t.nnz == 0

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="bounds"):
            SparseTensor3.from_entries((1, 1, 1), [1], [0], [0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SparseTensor3.from_entries((1, 1, 1), [0], [0], [0], [np.inf])


class TestPsiCombine:
    def test_identity_in_constant_slice(self, rng):
        S = random_tensor(rng, (3, 4, 3))
        eye = SparseTensor3.from_entries(
            (3, 3, 3), np.arange(3), np.arange(3), np.full(3, 2), np.ones(3))
        out = psi_combine(eye, S)
        np.testing.assert_allclose(out.to_dense(), S.to_dense(), atol=1e-14)

    def test_zero_annihilates(self, rng):
        T = random_tensor(rng, (2, 3, 3), const_only=True)
        S = SparseTensor3.from_entries((3, 5, 3), [], [], [], [])
        assert psi_combine(T, S).nnz == 0

    def test_matches_dense_oracle_left_constant(self, rng):
        for _ in range(20):
            T = random_tensor(rng, (3, 4, 4), const_only=True)
            S = random_tensor(rng, (4, 5, 4))
            np.testing.assert_allclose(
                psi_combine(T, S).to_dense(),
                dense_psi(T.to_dense(), S.to_dense()), atol=1e-13)

    def test_matches_dense_oracle_right_constant(self, rng):
        for _ in range(20):
            T = random_tensor(rng, (3, 4, 4))
            S = random_tensor(rng, (4, 5, 4), const_only=True)
            np.testing.assert_allclose(
                psi_combine(T, S).to_dense(),
                dense_psi(T.to_dense(), S.to_dense()), atol=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(psi_operands())
    def test_bitwise_equal_to_slicewise_products(self, operands):
        T, S = operands
        assert_same_entries(psi_combine(T, S), slicewise_psi(T, S))

    @pytest.mark.parametrize("constant_side", ["left", "right"])
    def test_exact_cancellation_is_dropped(self, constant_side):
        # in slice 3, entry (0, 0) is 1*1 - 1*1 and entry (0, 1) is 1*2
        K = 2000
        c, k = K - 1, 3
        if constant_side == "left":
            T = SparseTensor3.from_entries((1, 2, K), [0, 0], [0, 1], [c, c],
                                           [1.0, 1.0])
            S = SparseTensor3.from_entries((2, 2, K), [0, 1, 0], [0, 0, 1],
                                           [k, k, k], [1.0, -1.0, 2.0])
        else:
            T = SparseTensor3.from_entries((1, 2, K), [0, 0], [0, 1], [k, k],
                                           [1.0, -1.0])
            S = SparseTensor3.from_entries((2, 2, K), [0, 1, 0], [0, 0, 1],
                                           [c, c, c], [1.0, 1.0, 2.0])
        got = psi_combine(T, S)
        assert_same_entries(got, slicewise_psi(T, S))
        assert (got.i.tolist(), got.j.tolist(), got.k.tolist(),
                got.v.tolist()) == ([0], [1], [k], [2.0])

    def test_both_parametrized_rejected(self, rng):
        T = random_tensor(rng, (3, 3, 3))
        S = random_tensor(rng, (3, 3, 3))
        if T.is_constant_slice_only() or S.is_constant_slice_only():
            pytest.skip("random draw happened to be unparametrized")
        with pytest.raises(ValueError, match="unparametrized"):
            psi_combine(T, S)


class TestLeafTensors:
    def _ctx(self):
        return CanonContext({"x": 1}, {"g": 0}, n_vars=4, n_params=3)

    def test_scalar_constant(self):
        ctx = self._ctx()
        t = leaf_tensor(constant(5.0).leaf, ctx)
        assert t.dims == (1, 5, 4)
        assert t.nnz == 1
        assert (t.i[0], t.j[0], t.k[0], t.v[0]) == (0, 4, 3, 5.0)

    def test_parameter_leaf_one_hot_slices(self):
        ctx = self._ctx()
        t = leaf_tensor(parameter("g", 3).leaf, ctx)
        dense = t.to_dense()
        for i in range(3):
            assert dense[i, ctx.const_col, i] == 1.0
        assert t.nnz == 3

    def test_variable_leaf_one_hot_columns(self):
        ctx = self._ctx()
        t = leaf_tensor(variable("x", 3).leaf, ctx)
        dense = t.to_dense()
        for i in range(3):
            assert dense[i, 1 + i, ctx.const_slice] == 1.0
        assert t.nnz == 3

    def test_undeclared_leaf_raises(self):
        ctx = self._ctx()
        with pytest.raises(Exception, match="missing"):
            leaf_tensor(variable("nope", 2).leaf, ctx)
