"""The end-to-end differentiable solution map: compile, forward, backward.

A layer composes the cached canonicalizer map, the conic solver, and the
retrieval map.  Compilation runs the expression-tree reduction exactly
once; afterwards a forward pass is two sparse contractions, one cone solve,
and a sparse slice, and a backward pass chains the retrieval adjoint, the
solver adjoint, and the canonicalizer adjoint.

Both directions run over minibatches, and a single binding is the batch
of one.  ``forward_batch`` materializes its elements in one go (one
product of the (p + 1, B) theta stack with each map), solves them through
one iteration loop, with one iteration factor for all of them: the
layer's own when A is fixed, else one built for the minibatch on A's
pattern, which the layer keeps (``solver.Pattern``), and retrieves the
outputs in one product.
``backward_batch`` checks every tape and cotangent, maps the stacked
cotangents through the retrieval adjoint (a CSR matrix kept per layer) in
one product, builds the missing derivative factors in one assembly, runs
one batched ``adjoint_derivative``, and maps every (dA, db, dc) to theta
in one product with the per-layer ``AsaForm._adjoint_map``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .canon import AsaForm, ConeProgramData, build_asa, lower, materialize, \
    materialize_adjoint, retrieve
from .errors import CompileError, ShapeError, SolverInputError, \
    SolveStatusError
from .problem import Problem
from .solver import OPTIMAL, ConeSolution, IterationFactor, MFactor, \
    Pattern, SolverSettings, _row_dots, normalized_point, solve
from .derivatives import adjoint_derivative

__all__ = ["Layer", "ForwardResult"]


def _numeric(value, what: str, name: str) -> np.ndarray:
    """``value`` as a float array; a complex value, whose imaginary part a
    cast would drop, raises ``ShapeError`` like a non-numeric one, naming
    it as ``what.format(name)``.  A float array is returned as it is."""
    if type(value) is np.ndarray and value.dtype == np.float64:
        return value
    try:
        arr = np.asarray(value)
        if np.iscomplexobj(arr):
            raise ShapeError(f"{what.format(name)} is complex; only real "
                             f"values are accepted")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ShapeError(f"{what.format(name)} is not numeric: "
                         f"{value!r}") from None


def _require_mapping(arg, what: str):
    if not isinstance(arg, Mapping):
        raise ShapeError(f"{what} must be a mapping of names to values, "
                         f"got {type(arg).__name__}")


def _elements(arg, what: str) -> list:
    """The elements of a batch argument; raises ``ShapeError`` unless it is
    an iterable other than a mapping or a string."""
    if isinstance(arg, (Mapping, str, bytes)) or not isinstance(arg, Iterable):
        raise ShapeError(f"{what} must be a sequence, got "
                         f"{type(arg).__name__}")
    return list(arg)


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
        self._param_names = frozenset(self.parameter_order)
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
        # the parameters with a declared sign, which binding checks
        self._signed = [(name, nonneg, nonpos) for name, (nonneg, nonpos)
                        in self._param_attrs.items() if nonneg or nonpos]

    @staticmethod
    def compile(problem: Problem, settings: SolverSettings | None = None) -> "Layer":
        """Verify and canonicalize once (``lower`` raises ``CompileError``,
        with the verification report, for an invalid problem); subsequent
        passes reuse the maps.  Anything but a ``Problem`` raises
        ``CompileError``, and settings that are not ``SolverSettings``
        raise ``ShapeError``."""
        if not isinstance(problem, Problem):
            raise CompileError(f"cannot compile a {type(problem).__name__}: "
                               f"Layer.compile takes a Problem")
        if settings is not None and not isinstance(settings, SolverSettings):
            raise ShapeError(f"settings must be SolverSettings, got "
                             f"{type(settings).__name__}")
        asa = build_asa(lower(problem))
        return Layer(asa, settings or SolverSettings(), problem)

    # -- forward ------------------------------------------------------------

    def _bind(self, values: dict) -> np.ndarray:
        _require_mapping(values, "parameter values")
        unknown = values.keys() - self._param_names
        if unknown:
            raise ShapeError(f"unknown parameters bound: {sorted(unknown)}")
        values = {name: _numeric(v, "value for parameter {!r}", name)
                  for name, v in values.items()}
        for name, nonneg, nonpos in self._signed:
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
        # converted once, above
        return self.asa._flatten(values, lambda arr: arr)

    def forward(self, values: dict, warm_start=None) -> ForwardResult:
        return self._forward([values], [warm_start])[0]

    def _forward(self, batch: list, warm_starts: list | None = None
                 ) -> list[ForwardResult]:
        """Bind every element, materialize the minibatch in one go, then
        solve them all as one batch (``solver.solve`` of a list) with the
        layer's iteration factor, and retrieve the optimal elements'
        outputs in one go.  A layer whose A depends on theta builds one
        factor for the batch, and shares its build time out equally; the
        first forward of a layer whose A is fixed builds the layer's
        factor, and its first element takes that build time.  Each
        element's ``bind`` is its own; ``materialize`` is shared out
        equally over the elements, and ``retrieve`` over the optimal
        ones."""
        clock = time.perf_counter
        thetas, bind_s = [], []
        for values in batch:
            start = clock()
            thetas.append(self._bind(values))
            bind_s.append(clock() - start)
        if not thetas:
            return []
        count = len(thetas)
        start = clock()
        thetas = np.array(thetas).reshape(count, self.asa.n_params)
        datas = materialize(self.asa, thetas)
        materialize_s = (clock() - start) / count
        factor, built = self._factor, [{}] * count
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
                built = [{k: t / count
                          for k, t in factor.seconds.items()}] * count
        sols = solve(datas, self.settings, warm_starts, factor)
        start = clock()
        optimal = [j for j, sol in enumerate(sols) if sol.status == OPTIMAL]
        outputs = dict.fromkeys(range(count))
        objectives = {}
        if optimal:
            X = np.array([sols[j].x for j in optimal])
            outputs.update(zip(optimal, retrieve(self.asa, X)))
            # c'x and the offset's product with theta_aug, row by row
            augmented = np.ones((len(optimal), self.asa.n_params + 1))
            augmented[:, :-1] = thetas[optimal]
            offsets = _row_dots(augmented, np.broadcast_to(
                self.asa.objective_offset_map, augmented.shape))
            costs = _row_dots(np.array([datas[j].c for j in optimal]), X)
            sign = -1.0 if self.problem is not None and \
                self.problem.sense == "maximize" else 1.0
            objectives = dict(zip(optimal, (sign * (costs + offsets)).tolist()))
        retrieve_s = (clock() - start) / max(len(optimal), 1)
        return [self._result(data, sol, bind_s[j], materialize_s, built[j],
                             outputs[j], objectives.get(j), retrieve_s)
                for j, (data, sol) in enumerate(zip(datas, sols))]

    @property
    def _order(self) -> np.ndarray | None:
        """K's elimination order, once the layer's pattern holds it."""
        return None if self._pattern is None else self._pattern._order

    def _result(self, data, sol, bind_s, materialize_s, built, outputs,
                objective, retrieve_s) -> ForwardResult:
        info = dict(sol.info, status=sol.status,
                    solve_time=sol.info["solve_time"] + sum(built.values()))
        timings = info["timings"] = {
            k: t + built.get(k, 0.0) for k, t in sol.info["timings"].items()}
        timings.update(bind=bind_s, materialize=materialize_s, retrieve=0.0)
        if sol.status != OPTIMAL:
            return ForwardResult(outputs=None, status=sol.status, info=info,
                                 _layer_token=self._token, _data=data, _solution=sol)
        info["objective"] = objective
        timings["retrieve"] = retrieve_s
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
            arr = _numeric(cotangents[slot.name], "cotangent for {!r}",
                           slot.name)
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
            if not isinstance(result, ForwardResult):
                raise ShapeError(f"results must be ForwardResults, got "
                                 f"{type(result).__name__}")
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
        before any is solved, so a malformed one, or a ``batch`` that is
        not a sequence, raises ``ShapeError`` with nothing solved."""
        return self._forward(_elements(batch, "forward_batch's batch"))

    def backward_batch(self, results: list[ForwardResult],
                       cotangents: list[dict]) -> list[tuple[dict, dict]]:
        """``backward`` of every (result, cotangents) pair, as one batch;
        element for element equal to ``backward``.  Every tape and
        cotangent is checked before any factor is built, so a length
        mismatch, a foreign or non-optimal tape, a malformed cotangent or
        an argument that is not a sequence raises with no work done."""
        return self._backward(_elements(results, "backward_batch's results"),
                              _elements(cotangents,
                                        "backward_batch's cotangents"))
