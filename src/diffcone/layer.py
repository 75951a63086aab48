"""The end-to-end differentiable solution map: compile, forward, backward.

A layer composes the cached canonicalizer map, the conic solver, and the
retrieval map.  Compilation runs the expression-tree reduction exactly
once; afterwards a forward pass is two sparse contractions, one cone solve,
and a sparse slice, and a backward pass chains the retrieval adjoint, the
solver adjoint, and the canonicalizer adjoint.

Both directions run over minibatches, and a single binding is the batch
of one.  ``forward_batch`` solves its elements through one iteration loop,
with one iteration factor for all of them: the layer's own when A is
fixed, else one built for the minibatch on A's pattern, which the layer
keeps (``solver.Pattern``).
``backward_batch`` checks every tape and cotangent, maps the stacked
cotangents through the retrieval adjoint (a CSR matrix kept per layer) in
one product, builds the missing derivative factors in one assembly, runs
one batched ``adjoint_derivative``, and maps every (dA, db, dc) to theta
in one product with the per-layer ``AsaForm._adjoint_map``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .canon import AsaForm, ConeProgramData, build_asa, lower, materialize, \
    materialize_adjoint, retrieve
from .errors import CompileError, ShapeError, SolverInputError, \
    SolveStatusError
from .problem import Problem, check_dpp
from .solver import OPTIMAL, ConeSolution, IterationFactor, MFactor, \
    Pattern, SolverSettings, normalized_point, solve
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
    and solver info are always populated.  ``_cache`` keeps the
    derivative factor that the first ``backward`` builds.
    """

    outputs: dict | None
    status: str
    info: dict
    _layer_token: object
    _data: ConeProgramData | None = None
    _solution: ConeSolution | None = None
    _z: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        # for every binding: its scaling and the inverse or LU of the
        # iteration system are built at the first forward and reused by
        # every later one.
        self._a_fixed = bool(np.all(asa._a_coeff.indices == asa.n_params))
        self._factor = None
        # A's pattern is the same for every binding, and so is the index
        # work built on it: the Ruiz scaling's row and column orders, K's
        # dense places and K's elimination order, which the derivative
        # factor extends; the first forward builds it.
        self._pattern = None
        self._retrieval_t = asa.retrieval.T.tocsr()
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
        return self._forward([values], [warm_start])[0]

    def _forward(self, batch: list, warm_starts: list | None = None
                 ) -> list[ForwardResult]:
        """Bind and materialize every element, then solve them all as one
        batch (``solver.solve`` of a list) with the layer's iteration
        factor.  A layer whose A depends on theta builds one factor for
        the batch, and shares its build time out equally; the first
        forward of a layer whose A is fixed builds the layer's factor, and
        its first element takes that build time."""
        clock = time.perf_counter
        thetas, bind_s = [], []
        for values in batch:
            start = clock()
            thetas.append(self._bind(values))
            bind_s.append(clock() - start)
        datas, materialize_s = [], []
        for theta in thetas:
            start = clock()
            datas.append(materialize(self.asa, theta))
            materialize_s.append(clock() - start)
        if not datas:
            return []
        factor, built = self._factor, [{}] * len(datas)
        if factor is None:
            A, spec = datas[0].A, datas[0].cones
            if self._pattern is None:
                self._pattern = Pattern(A, spec)
            a_data = np.array([d.A.data for d in (
                datas[:1] if self._a_fixed else datas)])
            factor = IterationFactor(A, spec, a_data, self._pattern)
            if self._a_fixed:
                self._factor = factor
                built[0] = factor.seconds
            else:
                built = [{k: t / len(datas)
                          for k, t in factor.seconds.items()}] * len(datas)
        sols = solve(datas, self.settings, warm_starts, factor)
        return [self._result(*args) for args in zip(
            thetas, datas, sols, bind_s, materialize_s, built)]

    @property
    def _order(self) -> np.ndarray | None:
        """K's elimination order, once the layer's pattern holds it."""
        return None if self._pattern is None else self._pattern._order

    def _result(self, theta, data, sol, bind_s, materialize_s,
                built) -> ForwardResult:
        info = dict(sol.info, status=sol.status,
                    solve_time=sol.info["solve_time"] + sum(built.values()))
        timings = info["timings"] = {
            k: t + built.get(k, 0.0) for k, t in sol.info["timings"].items()}
        timings.update(bind=bind_s, materialize=materialize_s, retrieve=0.0)
        if sol.status != OPTIMAL:
            return ForwardResult(outputs=None, status=sol.status, info=info,
                                 _layer_token=self._token, _data=data, _solution=sol)
        retrieving = time.perf_counter()
        outputs = retrieve(self.asa, sol.x)
        info["objective"] = float(
            data.c @ sol.x
            + self.asa.objective_offset_map @ self.asa.theta_aug(theta))
        if self.problem is not None and self.problem.sense == "maximize":
            info["objective"] = -info["objective"]
        timings["retrieve"] = time.perf_counter() - retrieving
        z = normalized_point(sol)
        return ForwardResult(outputs=outputs, status=sol.status, info=info,
                             _layer_token=self._token, _data=data, _solution=sol, _z=z)

    # -- backward -----------------------------------------------------------

    def backward(self, result: ForwardResult,
                 cotangents: dict) -> tuple[dict, dict]:
        """Parameter gradients for cotangents on the forward outputs.

        Returns (gradients-by-parameter-name, info): the solver adjoint's
        info, the derivative factor's order and stored entries, and stage
        ``timings``.  The first backward of a result builds
        its derivative factor, later ones reuse it.  A non-finite
        cotangent raises ``SolverInputError``.  This is ``backward_batch``
        of one.
        """
        return self._backward([result], [cotangents])[0]

    def _flat_cotangent(self, cotangents, flat: np.ndarray) -> None:
        """Check one element's cotangents and write them into ``flat``."""
        _require_mapping(cotangents, "cotangents")
        for slot in self.asa.variable_layout:
            if slot.name not in cotangents:
                continue
            arr = _numeric(cotangents[slot.name],
                           f"cotangent for {slot.name!r}")
            if arr.shape != slot.dims:
                raise ShapeError(
                    f"cotangent for {slot.name!r} has shape {arr.shape}, "
                    f"expected {slot.dims}")
            if not np.all(np.isfinite(arr)):
                raise SolverInputError(f"cotangent for {slot.name!r} "
                                       f"contains NaN/Inf")
            flat[slot.offset:slot.offset + slot.size] = arr.ravel(order="F")
        unknown = set(cotangents) - set(self.variable_order)
        if unknown:
            raise ShapeError(f"cotangents for unknown outputs: {sorted(unknown)}")

    def _backward(self, results: list, cotangents: list) -> list:
        """Check every tape and cotangent, then differentiate the batch:
        one retrieval adjoint of the stacked cotangents, one
        ``MFactor.batch`` of the tapes without a factor, one batched
        ``adjoint_derivative`` and one ``materialize_adjoint``.

        Each stage is timed once for the batch and shared out over its
        elements: ``m_factor`` equally over the elements whose factor this
        call builds (0.0 for the rest), ``m_solve`` in proportion to 1 +
        each element's LSQR iterations, the other two equally; so the
        elements' timings add up to the call's wall time."""
        clock = time.perf_counter
        start = clock()
        if len(results) != len(cotangents):
            raise ShapeError("results and cotangents must have equal lengths")
        for result in results:
            if result._layer_token is not self._token:
                raise SolveStatusError("tape belongs to a different layer")
            if not result.ok or result._solution is None:
                raise SolveStatusError(
                    f"cannot backpropagate through a {result.status} solve")
        flat = np.zeros((len(results), self.asa.retrieval.shape[0]))
        for row, cot in zip(flat, cotangents):
            self._flat_cotangent(cot, row)
        if not results:
            return []
        dx = (self._retrieval_t @ flat.T).T
        # the first backward of a tape builds its factor; a tape given twice
        # builds it once
        fresh = {id(r): r for r in results if "m_factor" not in r._cache}
        built = list(fresh.values())
        retrieved = factored = clock()
        if built:
            for r, factor in zip(built, MFactor.batch(
                    [r._data for r in built], [r._z for r in built],
                    self._pattern.elimination_order)):
                r._cache["m_factor"] = factor
            factored = clock()
        factors = [r._cache["m_factor"] for r in results]
        adjs = adjoint_derivative([r._data for r in results],
                                  [r._solution for r in results], dx,
                                  z=[r._z for r in results], factor=factors)
        solved = clock()
        dthetas = materialize_adjoint(self.asa, [a.dA_data for a in adjs],
                                      [a.db for a in adjs],
                                      [a.dc for a in adjs])
        grads = [self.asa.unflatten_params(d) for d in dthetas]
        done = clock()
        count = len(results)
        factor_share = (factored - retrieved) / max(len(built), 1)
        work = [1 + a.info["iterations"] for a in adjs]
        solve_share = (solved - factored) / sum(work)
        out = []
        for r, g, a, factor, w in zip(results, grads, adjs, factors, work):
            first = fresh.pop(id(r), None) is not None
            timings = {"retrieval_adjoint": (retrieved - start) / count,
                       "m_factor": factor_share if first else 0.0,
                       "m_solve": solve_share * w,
                       "materialize_adjoint": (done - solved) / count}
            out.append((g, dict(a.info, m_factor_order=factor.order,
                                m_factor_nnz=factor.nnz, timings=timings)))
        return out

    # -- batching -----------------------------------------------------------

    def forward_batch(self, batch: list[dict]) -> list[ForwardResult]:
        """Forward passes of every element, solved as one batch; element for
        element equal to ``forward``.  Every element is bound and checked
        before any is solved, so a malformed one raises ``ShapeError`` with
        nothing solved."""
        return self._forward(list(batch))

    def backward_batch(self, results: list[ForwardResult],
                       cotangents: list[dict]) -> list[tuple[dict, dict]]:
        """``backward`` of every (result, cotangents) pair, as one batch;
        element for element equal to ``backward``.  Every tape and
        cotangent is checked before any factor is built, so a length
        mismatch, a foreign or non-optimal tape or a malformed cotangent
        raises with no work done."""
        return self._backward(list(results), list(cotangents))
