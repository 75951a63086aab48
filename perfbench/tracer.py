"""Span tracing for the benchmark's traced run.

The tracer wraps diffcone functions at the names their callers look them
up by, from the benchmark's own files, so nothing under ``src/`` changes.
A target that a refactor removed is recorded as absent, and the metrics
built from it are reported as absent; the run goes on.

Each span is ``[name, start, end, parent, binding]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``binding`` the attempt
number of the binding being solved, or None outside a forward/backward.
Spans stay in memory until ``save`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types

import numpy as np

# (span name, "module:attribute path") for every place a caller looks the
# target up; two entries with one span name add up.
TARGETS = (
    ("problem.check_dpp", "diffcone.layer:check_dpp"),
    ("problem.check_dpp", "diffcone.canon:check_dpp"),
    ("canon.lower", "diffcone.layer:lower"),
    ("canon.build_asa", "diffcone.layer:build_asa"),
    ("tensor3.psi_combine", "diffcone.canon:psi_combine"),
    ("canon.materialize", "diffcone.layer:materialize"),
    ("canon.materialize_adjoint", "diffcone.layer:materialize_adjoint"),
    ("canon.retrieve", "diffcone.layer:retrieve"),
    ("cones.project", "diffcone.solver:project_embedding"),
    ("cones.project", "diffcone.derivatives:project_embedding"),
    ("cones.dproject", "diffcone.solver:dproject_embedding"),
    ("cones.dproject", "diffcone.derivatives:dproject_embedding"),
    ("solver.solve", "diffcone.layer:solve"),
    ("solver.skew", "diffcone.solver:skew_matrix"),
    ("solver.splu", "diffcone.solver:spla.splu"),
    ("derivatives.adjoint", "diffcone.layer:adjoint_derivative"),
    ("derivatives.m_solve", "diffcone.derivatives:solve_m_system"),
    ("layer.forward", "diffcone.layer:Layer.forward"),
    ("layer.backward", "diffcone.layer:Layer.backward"),
    ("layer.forward_batch", "diffcone.layer:Layer.forward_batch"),
    ("layer.backward_batch", "diffcone.layer:Layer.backward_batch"),
)

BATCH_SPANS = ("layer.forward_batch", "layer.backward_batch")
# a span runs on the side of its nearest enclosing one of these
SIDE_SPANS = {"layer.forward": "forward", "layer.backward": "backward"}

# Per-layer metrics read from spans: (metric, how, span names).
#   setup_ms / setup_calls  per set-up repetition (all layers compiled once)
#   ms / calls / self_ms    per binding attempt in the traced timed loop
#   batch_self_ms           batch-call self time over the bindings it carried
SPAN_METRICS = (
    ("problem.check_dpp_ms", "setup_ms", ("problem.check_dpp",)),
    ("canon.lower_ms", "setup_ms", ("canon.lower",)),
    ("canon.build_asa_ms", "setup_ms", ("canon.build_asa",)),
    ("tensor3.psi_combine_ms", "setup_ms", ("tensor3.psi_combine",)),
    ("tensor3.psi_combine_calls", "setup_calls", ("tensor3.psi_combine",)),
    ("canon.materialize_ms", "ms", ("canon.materialize",)),
    ("canon.materialize_adjoint_ms", "ms", ("canon.materialize_adjoint",)),
    ("canon.retrieve_ms", "ms", ("canon.retrieve",)),
    ("cones.project_ms", "ms", ("cones.project",)),
    ("cones.project_calls", "calls", ("cones.project",)),
    ("cones.dproject_ms", "ms", ("cones.dproject",)),
    ("cones.dproject_calls", "calls", ("cones.dproject",)),
    ("solver.solve_ms", "ms", ("solver.solve",)),
    ("solver.skew_ms", "ms", ("solver.skew",)),
    ("solver.splu_ms", "ms", ("solver.splu",)),
    ("solver.splu_calls", "calls", ("solver.splu",)),
    ("solver.lu_solve_ms", "ms", ("solver.lu_solve",)),
    ("derivatives.adjoint_ms", "ms", ("derivatives.adjoint",)),
    ("derivatives.m_solve_ms", "ms", ("derivatives.m_solve",)),
    ("layer.forward_ms", "ms", ("layer.forward",)),
    ("layer.backward_ms", "ms", ("layer.backward",)),
    ("layer.forward_self_ms", "self_ms", ("layer.forward",)),
    ("layer.backward_self_ms", "self_ms", ("layer.backward",)),
    ("layer.batch_overhead_ms", "batch_self_ms", BATCH_SPANS),
)

# how -> (index into a (total s, calls, self s) accumulator, scale)
_FIELDS = {"setup_ms": (0, 1e3), "setup_calls": (1, 1), "ms": (0, 1e3),
           "calls": (1, 1), "self_ms": (2, 1e3)}


def _accumulate(acc: dict, name: str, duration: float, own: float):
    total, calls, self_total = acc.get(name, (0.0, 0, 0.0))
    acc[name] = (total + duration, calls + 1, self_total + own)


class _ModuleView:
    """Stands in for a foreign module inside one diffcone module, so that a
    wrapper placed on it does not patch that module for other callers."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedLU:
    """A SuperLU factor whose triangular solves are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("solver.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Wraps the TARGETS while installed; records spans while enabled."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = True
        self.binding = None
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._attempts: dict[int, int] = {}   # id(values or result) -> attempt
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target that exists; record the span names that have none."""
        present = set()
        for name, target in TARGETS:
            module_name, path = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    child = getattr(owner, part)
                    if isinstance(child, types.ModuleType) \
                            and not child.__name__.startswith("diffcone"):
                        self._replace(owner, part, _ModuleView(child))
                        child = getattr(owner, part)
                    owner = child
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            self._replace(owner, attr, self._wrap(name, original))
            present.add(name)
        self.absent = {name for name, _ in TARGETS} - present
        if "solver.splu" in self.absent:
            self.absent.add("solver.lu_solve")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return traced

    # -- recording ----------------------------------------------------------

    def bind(self, values: dict, attempt: int):
        """Attribute the next forward on ``values`` to binding ``attempt``."""
        self._attempts[id(values)] = attempt

    def call(self, name, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        outer = self.binding
        if name in ("layer.forward", "layer.backward") and len(args) > 1:
            # args[1] is the values dict of a forward, the result of a backward
            self.binding = self._attempts.get(id(args[1]), outer)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.binding]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.binding = outer
        if name == "layer.forward":
            self._attempts[id(out)] = span[4]
        elif name == "solver.splu":
            out = _TracedLU(out, self)
        return out

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def sides(self) -> list:
        """Each span's side: "forward" or "backward" inside a Layer.forward
        or Layer.backward call, else None."""
        out = []
        for name, _, _, parent, _ in self.spans:
            out.append(SIDE_SPANS.get(name, out[parent] if parent >= 0 else None))
        return out

    def metrics(self, setup_windows, run_window, attempts):
        """Per-layer metrics of SPAN_METRICS, in their units, and the
        per-binding times split by side: {metric: {side: ms}}.

        ``setup_windows`` are the (start, end) times of the set-up
        repetitions, ``run_window`` that of the traced loop and
        ``attempts`` its binding attempts.  A metric whose spans all have
        absent targets maps to None.
        """
        per_setup = [{} for _ in setup_windows]
        per_attempt = {a: {} for a in attempts}
        batch_self = 0.0
        for span, own, side in zip(self.spans, self.self_times(), self.sides()):
            name, start, end, _, binding = span
            if binding in per_attempt:
                _accumulate(per_attempt[binding], name, end - start, own)
                _accumulate(per_attempt[binding], (name, side), end - start, own)
            elif name in BATCH_SPANS:
                if run_window[0] <= start < run_window[1]:
                    batch_self += own
            else:
                for (lo, hi), acc in zip(setup_windows, per_setup):
                    if lo <= start < hi:
                        _accumulate(acc, name, end - start, own)
        def median(groups, field, scale, keys):
            values = [scale * sum(g.get(k, (0.0, 0, 0.0))[field] for k in keys)
                      for g in groups]
            return statistics.median(values) if values else None

        out, by_side = {}, {}
        for metric, how, names in SPAN_METRICS:
            if all(n in self.absent for n in names):
                out[metric] = None
            elif how == "batch_self_ms":
                out[metric] = 1e3 * batch_self / max(len(attempts), 1)
            elif how.startswith("setup"):
                out[metric] = median(per_setup, *_FIELDS[how], names)
            else:
                groups = list(per_attempt.values())
                out[metric] = median(groups, *_FIELDS[how], names)
                if how != "calls":
                    split = {side: median(groups, *_FIELDS[how],
                                          [(n, side) for n in names])
                             for side in SIDE_SPANS.values()}
                    by_side[metric] = {k: v for k, v in split.items() if v}
        return out, by_side

    def save(self, path):
        """Write the spans as columns of a compressed ``.npz`` file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int16),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            binding=np.array([-1 if s[4] is None else s[4] for s in self.spans],
                             dtype=np.int64))
