"""The end-to-end differentiable solution map: compile, forward, backward.

A layer composes the cached canonicalizer map, the conic solver, and the
retrieval map.  Compilation runs the expression-tree reduction exactly
once; afterwards a forward pass is two sparse contractions, one cone solve,
and a sparse slice, and a backward pass chains the retrieval adjoint, the
solver adjoint, and the canonicalizer adjoint.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .canon import AsaForm, ConeProgramData, build_asa, lower, materialize, \
    materialize_adjoint, retrieve
from .errors import CompileError, ShapeError, SolveStatusError
from .problem import Problem, check_dpp
from .solver import OPTIMAL, ConeSolution, SolverSettings, normalized_point, solve
from .derivatives import adjoint_derivative

__all__ = ["Layer", "ForwardResult", "compile_layer", "forward", "backward",
           "forward_batch", "backward_batch"]


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
        unknown = set(values) - set(self.parameter_order)
        if unknown:
            raise ShapeError(f"unknown parameters bound: {sorted(unknown)}")
        for name, (nonneg, nonpos) in self._param_attrs.items():
            if name in values:
                arr = np.asarray(values[name], dtype=float)
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
        sol = solve(data, self.settings, warm_start=warm_start)
        info = dict(sol.info)
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
        flat = np.zeros(self.asa.retrieval.shape[0])
        for slot in self.asa.variable_layout:
            if slot.name not in cotangents:
                continue
            arr = np.asarray(cotangents[slot.name], dtype=float)
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

    def forward_batch(self, batch: list[dict], max_workers: int | None = None
                      ) -> list[ForwardResult]:
        """Elementwise forward passes; equals sequential application."""
        if max_workers is None or max_workers <= 1 or len(batch) <= 1:
            return [self.forward(v) for v in batch]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(self.forward, batch))

    def backward_batch(self, results: list[ForwardResult],
                       cotangents: list[dict],
                       max_workers: int | None = None) -> list[tuple[dict, dict]]:
        if len(results) != len(cotangents):
            raise ShapeError("results and cotangents must have equal lengths")
        if max_workers is None or max_workers <= 1 or len(results) <= 1:
            return [self.backward(r, c) for r, c in zip(results, cotangents)]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(lambda rc: self.backward(*rc),
                                 zip(results, cotangents)))


def compile_layer(problem: Problem, settings: SolverSettings | None = None) -> Layer:
    return Layer.compile(problem, settings)


def forward(layer: Layer, values: dict, warm_start=None) -> ForwardResult:
    return layer.forward(values, warm_start=warm_start)


def backward(layer: Layer, result: ForwardResult, cotangents: dict,
             mode: str = "auto") -> tuple[dict, dict]:
    return layer.backward(result, cotangents, mode=mode)


def forward_batch(layer: Layer, batch: list[dict],
                  max_workers: int | None = None) -> list[ForwardResult]:
    return layer.forward_batch(batch, max_workers=max_workers)


def backward_batch(layer: Layer, results, cotangents,
                   max_workers: int | None = None):
    return layer.backward_batch(results, cotangents, max_workers=max_workers)
