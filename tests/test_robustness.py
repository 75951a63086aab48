"""Robustness sweep: random valid programs through forward and backward.

Every draw must end in a status, never an exception; optimal draws must
give finite gradients of the parameters' shapes; and the documented
``info`` keys must be present on every status.  Each draw's binding and
two perturbed copies run as one ``forward_batch``, which must equal their
sequential forwards element for element: statuses, iteration and polish
counts, and x, y, s bit for bit (the programs are small); the optimal
ones then run as one ``backward_batch``, which must equal their
sequential backwards: gradients bit for bit, and the derivative solve's
mode, fallback, iterations and residual.  Many draws are
degenerate (redundant cone rows, unconstrained directions), so the
derivative system's least-squares fallback runs here as often as the
exact factor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRADCHECK, assert_same_solve, layer_loss
from diffcone.errors import SolveStatusError
from diffcone.fixtures import gen_random_dpp
from diffcone.layer import Layer

STATUSES = {"optimal", "infeasible", "unbounded", "max_iters"}
FORWARD_KEYS = {"iterations", "polishes", "solve_time", "timings", "sizes",
                "status", "iteration_system", "acceleration"}
FORWARD_TIMINGS = {"bind", "materialize", "equilibrate", "factorize",
                   "iterate", "polish", "retrieve"}
BACKWARD_KEYS = {"mode", "fallback", "residual", "iterations",
                 "m_factor_order", "m_factor_nnz", "timings"}
BACKWARD_TIMINGS = {"retrieval_adjoint", "m_factor", "m_solve",
                    "materialize_adjoint"}


def _values(problem, rng, around=None):
    """Parameter values from N(0, 1), or ``around`` perturbed by
    N(0, 0.1^2), with the declared signs."""
    out = {}
    for p in problem.parameters:
        v = rng.standard_normal(p.shape.dims)
        if around is not None:
            v = around[p.name] + 0.1 * v
        out[p.name] = np.abs(v) if p.nonneg else (
            -np.abs(v) if p.nonpos else v)
    return out


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_programs_forward_backward(seed):
    rng = np.random.default_rng(seed)
    problem = gen_random_dpp(seed, n_vars=int(rng.integers(1, 4)),
                             n_params=int(rng.integers(0, 4)))
    layer = Layer.compile(problem)
    values = _values(problem, rng)
    batch = [values] + [_values(problem, rng, values) for _ in range(2)]
    results = layer.forward_batch(batch)
    lone = [layer.forward(bound) for bound in batch]
    for alone, got in zip(lone, results):
        assert_same_solve(alone, got)
    solved = [j for j, r in enumerate(results) if r.ok]
    cots = [{slot.name: rng.standard_normal(slot.dims)
             for slot in layer.asa.variable_layout} for _ in solved]
    batched = layer.backward_batch([results[j] for j in solved], cots)
    for j, cot, (grads, info) in zip(solved, cots, batched):
        want, alone = layer.backward(lone[j], cot)
        for name in want:
            assert np.array_equal(want[name], grads[name])
        assert all(info[k] == alone[k] for k in
                   ("mode", "fallback", "iterations", "residual"))
    res = results[0]

    assert res.status in STATUSES
    assert res.info["status"] == res.status
    assert res.ok == (res.status == "optimal")
    assert (res.outputs is not None) == res.ok
    assert FORWARD_KEYS <= set(res.info)
    assert set(res.info["timings"]) == FORWARD_TIMINGS
    if res.status in ("optimal", "max_iters"):
        assert {"primal_residual", "dual_residual",
                "gap_residual"} <= set(res.info)
    if not res.ok:
        with pytest.raises(SolveStatusError):
            layer.backward(res, {})
        return

    for slot in layer.asa.variable_layout:
        assert res.outputs[slot.name].shape == slot.dims
    cotangents = {slot.name: rng.standard_normal(slot.dims)
                  for slot in layer.asa.variable_layout}
    grads, info = layer.backward(res, cotangents)
    assert set(grads) == set(layer.parameter_order)
    for p in problem.parameters:
        assert np.shape(grads[p.name]) == p.shape.dims
        assert np.all(np.isfinite(grads[p.name]))
    assert set(info) == BACKWARD_KEYS
    assert info["mode"] in ("direct", "lsqr")
    assert info["fallback"] == (info["mode"] == "lsqr")
    assert set(info["timings"]) == BACKWARD_TIMINGS


def test_programs_using_every_variable():
    """Draws whose objective holds a strictly convex term in every
    declared variable (``gen_random_dpp(..., every_variable=True)``), over
    seeds 0-29, each a binding and two perturbed copies: most optimal
    elements take the exact factor (the plain draws mostly take LSQR);
    ``backward_batch`` equals the sequential backwards bit for bit; and
    every gradient meets a central difference along a random direction
    to 1e-4 (relative above 1, absolute below)."""
    direct = total = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        problem = gen_random_dpp(seed, n_vars=int(rng.integers(1, 4)),
                                 n_params=int(rng.integers(0, 4)),
                                 every_variable=True)
        layer = Layer.compile(problem, GRADCHECK)
        values = _values(problem, rng)
        batch = [values] + [_values(problem, rng, values) for _ in range(2)]
        results = layer.forward_batch(batch)
        solved = [j for j, r in enumerate(results) if r.ok]
        cots = [{slot.name: rng.standard_normal(slot.dims)
                 for slot in layer.asa.variable_layout} for _ in solved]
        batched = layer.backward_batch([results[j] for j in solved], cots)
        for j, cot, (grads, info) in zip(solved, cots, batched):
            want, _ = layer.backward(layer.forward(batch[j]), cot)
            for name in want:
                assert np.array_equal(want[name], grads[name])
            total += 1
            direct += info["mode"] == "direct"
            direction = {p.name: rng.standard_normal(p.shape.dims)
                         for p in problem.parameters}
            sides = [layer_loss(layer, {k: v + sign * 1e-6 * direction[k]
                                        for k, v in batch[j].items()}, cot)
                     for sign in (1.0, -1.0)]
            numeric = (sides[0] - sides[1]) / 2e-6
            analytic = sum(float(np.sum(grads[k] * d))
                           for k, d in direction.items())
            assert abs(numeric - analytic) <= 1e-4 * max(1.0, abs(numeric))
    assert direct > total / 2
