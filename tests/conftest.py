import numpy as np
import pytest

from diffcone import solver
from diffcone.solver import SolverSettings

TIGHT = SolverSettings(eps_abs=1e-11, eps_rel=1e-11)
GRADCHECK = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def layer_loss(layer, values, cotangents):
    """Scalar probe sum_k <w_k, output_k> for finite differencing."""
    res = layer.forward(values)
    assert res.ok, res.status
    total = 0.0
    for name, w in cotangents.items():
        total += float(np.sum(np.asarray(w) * res.outputs[name]))
    return total


def fd_param_gradient(layer, values, cotangents, name, h=1e-6):
    """Central finite differences of the probe w.r.t. one parameter."""
    base = np.asarray(values[name], dtype=float)
    flat = base.ravel(order="F")
    out = np.zeros(flat.size)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h

        def with_value(v):
            vals = dict(values)
            vals[name] = v.reshape(base.shape, order="F") if base.shape else v[0]
            return vals

        out[i] = (layer_loss(layer, with_value(up), cotangents)
                  - layer_loss(layer, with_value(down), cotangents)) / (2 * h)
    return out.reshape(base.shape, order="F") if base.shape else out[0]


def max_rel_error(fd, an):
    """|fd - an|_inf / max(1, |fd|_inf): relative for O(1)+ gradients,
    absolute below that so difference noise cannot dominate a zero
    gradient."""
    fd = np.atleast_1d(np.asarray(fd, dtype=float))
    an = np.atleast_1d(np.asarray(an, dtype=float))
    denom = max(1.0, float(np.max(np.abs(fd))))
    return float(np.max(np.abs(fd - an)) / denom)


def gradcheck_layer(layer, values, cotangents, h=1e-6):
    """Max relative error of backward against central differences."""
    res = layer.forward(values)
    assert res.ok, res.status
    grads, _ = layer.backward(res, cotangents)
    worst = 0.0
    for name in layer.parameter_order:
        fd = fd_param_gradient(layer, values, cotangents, name, h=h)
        worst = max(worst, max_rel_error(fd, grads[name]))
    return worst


def assert_same_solve(a, b):
    """Two forward results of one binding are the same solve: status,
    iteration, polish and accelerated-point counts, the residuals and
    the objective where present, and x, y, s bit for bit."""
    assert (a.status, a.info["iterations"], a.info["polishes"],
            a.info["acceleration"]) == \
        (b.status, b.info["iterations"], b.info["polishes"],
         b.info["acceleration"])
    for key in ("primal_residual", "dual_residual", "gap_residual",
                "objective"):
        assert (key in a.info) == (key in b.info), key
        if key in a.info:
            assert np.array_equal(a.info[key], b.info[key]), key
    for part in "xys":
        assert np.array_equal(getattr(a._solution, part),
                              getattr(b._solution, part))


def force_fallback(monkeypatch):
    """Every MFactor comes out singular, as SuperLU reports an exact zero
    pivot: solves take the LSQR fallback."""
    def singular(*args):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(solver, "DENSE_ORDER", 0)
    monkeypatch.setattr(solver, "_splu_lifted", singular)
