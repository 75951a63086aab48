"""The end-to-end differentiable solution map: compile, forward, backward.

A layer composes the cached canonicalizer map, the conic solver, and the
retrieval map.  Compilation runs the expression-tree reduction exactly
once; afterwards a forward pass is two sparse contractions, one cone solve,
and a sparse slice, and a backward pass chains the retrieval adjoint, the
solver adjoint, and the canonicalizer adjoint.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .canon import AsaForm, ConeProgramData, build_asa, lower, materialize, \
    materialize_adjoint, retrieve
from .errors import CompileError, ShapeError, SolveStatusError
from .problem import Problem, check_dpp
from .solver import OPTIMAL, ConeSolution, IterationFactor, SolverSettings, \
    normalized_point, solve
from .derivatives import adjoint_derivative

__all__ = ["Layer", "ForwardResult"]


def _numeric(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ShapeError(f"{what} is not numeric: {value!r}") from None


def _require_mapping(arg, what: str):
    if not isinstance(arg, Mapping):
        raise ShapeError(f"{what} must be a mapping of names to values, "
                         f"got {type(arg).__name__}")


@dataclass(frozen=True)
class ForwardResult:
    """Outputs of one forward pass plus the tape backward needs.

    ``outputs`` is None when the solve did not reach optimality; the status
    and solver info are always populated.
    """

    outputs: dict | None
    status: str
    info: dict
    _layer_token: object
    _data: ConeProgramData | None = None
    _solution: ConeSolution | None = None
    _z: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


class Layer:
    """A compiled differentiable solution map with a fixed binding signature."""

    def __init__(self, asa: AsaForm, settings: SolverSettings,
                 problem: Problem | None = None):
        self.asa = asa
        self.settings = settings
        # identifies this layer's tapes; unlike id(self), never reused
        self._token = object()
        self.problem = problem
        self.parameter_order = tuple(s.name for s in asa.param_layout)
        self.variable_order = tuple(s.name for s in asa.variable_layout)
        self._param_attrs = {}
        # When no parameter column of _a_coeff holds an entry, A is the same
        # for every binding: its scaling and the LU of the iteration system
        # are built at the first forward and reused by every later one.
        self._a_fixed = bool(np.all(asa._a_coeff.indices == asa.n_params))
        self._factor = None
        if problem is not None:
            for p in problem.parameters:
                self._param_attrs[p.name] = (p.nonneg, p.nonpos)

    @staticmethod
    def compile(problem: Problem, settings: SolverSettings | None = None) -> "Layer":
        """Verify and canonicalize once; subsequent passes reuse the maps."""
        report = check_dpp(problem)
        if not report.valid:
            raise CompileError(f"cannot compile:\n{report}", report=report)
        asa = build_asa(lower(problem))
        return Layer(asa, settings or SolverSettings(), problem)

    # -- forward ------------------------------------------------------------

    def _bind(self, values: dict) -> np.ndarray:
        _require_mapping(values, "parameter values")
        unknown = set(values) - set(self.parameter_order)
        if unknown:
            raise ShapeError(f"unknown parameters bound: {sorted(unknown)}")
        values = {name: _numeric(v, f"value for parameter {name!r}")
                  for name, v in values.items()}
        for name, (nonneg, nonpos) in self._param_attrs.items():
            if name in values:
                arr = values[name]
                if nonneg and np.any(arr < 0):
                    raise ShapeError(
                        f"parameter {name!r} is declared nonneg but got a "
                        f"negative value")
                if nonpos and np.any(arr > 0):
                    raise ShapeError(
                        f"parameter {name!r} is declared nonpos but got a "
                        f"positive value")
        return self.asa.flatten_params(values)

    def forward(self, values: dict, warm_start=None) -> ForwardResult:
        theta = self._bind(values)
        data = materialize(self.asa, theta)
        built = None
        if self._a_fixed and self._factor is None:
            self._factor = IterationFactor(data.A, data.cones,
                                           self.settings.normalize)
            built = self._factor.seconds
        sol = solve(data, self.settings, warm_start=warm_start,
                    factor=self._factor)
        info = dict(sol.info)
        if built is not None:
            info["timings"] = {k: t + built.get(k, 0.0)
                               for k, t in sol.info["timings"].items()}
        info["status"] = sol.status
        theta_aug = self.asa.theta_aug(theta)
        if sol.status != OPTIMAL:
            return ForwardResult(outputs=None, status=sol.status, info=info,
                                 _layer_token=self._token, _data=data, _solution=sol)
        outputs = retrieve(self.asa, sol.x)
        info["objective"] = float(
            data.c @ sol.x + self.asa.objective_offset_map @ theta_aug)
        if self.problem is not None and self.problem.sense == "maximize":
            info["objective"] = -info["objective"]
        z = normalized_point(sol)
        return ForwardResult(outputs=outputs, status=sol.status, info=info,
                             _layer_token=self._token, _data=data, _solution=sol, _z=z)

    # -- backward -----------------------------------------------------------

    def backward(self, result: ForwardResult, cotangents: dict,
                 mode: str = "auto") -> tuple[dict, dict]:
        """Parameter gradients for cotangents on the forward outputs.

        Returns (gradients-by-parameter-name, info); info carries the
        least-squares fallback flag from the solver adjoint.
        """
        if result._layer_token is not self._token:
            raise SolveStatusError("tape belongs to a different layer")
        if not result.ok or result._solution is None:
            raise SolveStatusError(
                f"cannot backpropagate through a {result.status} solve")
        _require_mapping(cotangents, "cotangents")
        flat = np.zeros(self.asa.retrieval.shape[0])
        for slot in self.asa.variable_layout:
            if slot.name not in cotangents:
                continue
            arr = _numeric(cotangents[slot.name],
                           f"cotangent for {slot.name!r}")
            if arr.shape != slot.dims:
                raise ShapeError(
                    f"cotangent for {slot.name!r} has shape {arr.shape}, "
                    f"expected {slot.dims}")
            flat[slot.offset:slot.offset + slot.size] = arr.ravel(order="F")
        unknown = set(cotangents) - set(self.variable_order)
        if unknown:
            raise ShapeError(f"cotangents for unknown outputs: {sorted(unknown)}")
        dx = self.asa.retrieval.T @ flat
        adj = adjoint_derivative(result._data, result._solution, dx,
                                 mode=mode, z=result._z)
        dtheta = materialize_adjoint(self.asa, adj.dA, adj.db, adj.dc)
        grads = self.asa.unflatten_params(dtheta)
        return grads, dict(adj.info)

    # -- batching -----------------------------------------------------------

    def forward_batch(self, batch: list[dict]) -> list[ForwardResult]:
        """Elementwise forward passes; equals sequential application."""
        return [self.forward(v) for v in batch]

    def backward_batch(self, results: list[ForwardResult],
                       cotangents: list[dict]) -> list[tuple[dict, dict]]:
        if len(results) != len(cotangents):
            raise ShapeError("results and cotangents must have equal lengths")
        return [self.backward(r, c) for r, c in zip(results, cotangents)]
