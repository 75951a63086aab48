"""Large sparse-QP smoke test for the derivatives' exact factor and its
least-squares fallback.

Not a timing benchmark: the point is that the sparse factor of the lifted
system and the operator-only LSQR fallback run end to end at a size where
dense Jacobians would be wasteful, and agree.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import force_fallback
from diffcone.derivatives import adjoint_derivative, forward_derivative
from diffcone.fixtures import sparse_qp_data
from diffcone.solver import SolverSettings, solve


def _derivatives(data, sol, dx, dA, db, dc):
    adj = adjoint_derivative(data, sol, dx)
    fwd = forward_derivative(data, sol, dA, db, dc)
    return adj, fwd


@pytest.mark.slow
def test_sparse_qp_iterative_mode_end_to_end(monkeypatch):
    """The exact factor and the forced LSQR fallback give the same adjoint
    and forward derivatives, and each pairs with itself.  The solve's
    tolerance is tight enough that the solver's own stopping rule, a
    primal residual of at most eps_abs + eps_rel (1 + |b|), implies the
    checked bound."""
    data = sparse_qp_data(n=1024, seed=0)
    eps, bound = 1e-9, 1e-7
    assert eps + eps * (1.0 + np.linalg.norm(data.b)) <= bound
    settings = SolverSettings(eps_abs=eps, eps_rel=eps)
    sol = solve(data, settings)
    assert sol.status == "optimal"
    assert sol.info["primal_residual"] <= bound

    rng = np.random.default_rng(5)
    m, n = data.A.shape
    dx = rng.standard_normal(n)
    dA = sp.csr_matrix((rng.standard_normal(data.A.nnz),
                        data.A.indices.copy(), data.A.indptr.copy()),
                       shape=(m, n))
    db = rng.standard_normal(m)
    dc = rng.standard_normal(n)
    exact = _derivatives(data, sol, dx, dA, db, dc)
    force_fallback(monkeypatch)
    lsqr = _derivatives(data, sol, dx, dA, db, dc)

    for (adj, fwd), mode in ((exact, "direct"), (lsqr, "lsqr")):
        assert adj.info["mode"] == fwd.info["mode"] == mode
        assert np.all(np.isfinite(adj.dA.data))
        assert np.all(np.isfinite(adj.db)) and np.all(np.isfinite(adj.dc))
        assert np.all(np.isfinite(fwd.dx))
        lhs = float(np.sum(adj.dA.multiply(dA)) + adj.db @ db + adj.dc @ dc)
        rhs = float(dx @ fwd.dx)
        assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(lhs), abs(rhs))
    for adj, fwd in (exact, lsqr):
        adj.dA.sort_indices()
    a = np.concatenate([exact[0].dA.data, exact[0].db, exact[0].dc])
    b = np.concatenate([lsqr[0].dA.data, lsqr[0].db, lsqr[0].dc])
    assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)
    a, b = exact[1].dx, lsqr[1].dx
    assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(a)


def test_sparse_qp_generator_shape_and_feasibility():
    data = sparse_qp_data(n=64, seed=3)
    m, n_plus_1 = data.A.shape
    assert n_plus_1 == 65
    assert data.cones.n_zero == 64
    assert data.cones.n_nonneg == 64
    assert data.cones.soc_dims == (66,)
    assert m == data.cones.total_dim
    # density stays sparse-ish: well under 10% filled
    assert data.A.nnz < 0.1 * m * n_plus_1
    sol = solve(data, SolverSettings(eps_abs=1e-9, eps_rel=1e-9))
    assert sol.status == "optimal"
