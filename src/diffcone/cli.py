"""Command-line front-end for the full pipeline.

Exit codes: 0 success, 1 usage error, 2 parse/validation failure,
3 solver did not reach optimality, 4 gradient check beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as dio
from .canon import canonicalize, materialize
from .errors import CompileError, DiffconeError, ParseError
from .layer import Layer
from .problem import check_dpp
from .solver import SolverSettings

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_GRADCHECK = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _load_problem(args):
    return dio.parse_problem(_read(args.problem))


def _load_params(args, problem):
    if getattr(args, "params", None):
        return dio.load_values(_read(args.params), problem)
    if problem.parameters:
        raise ParseError("problem has parameters; pass --params")
    return {}


def _settings(args) -> SolverSettings:
    return SolverSettings(eps_abs=args.tol, eps_rel=args.tol,
                          max_iters=args.max_iters)


def _emit(args, payload: dict):
    text = json.dumps(payload, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check_dpp(args) -> int:
    problem = _load_problem(args)
    report = check_dpp(problem)
    print(report)
    return EXIT_OK if report.valid else EXIT_PARSE


def cmd_canonicalize(args) -> int:
    problem = _load_problem(args)
    values = _load_params(args, problem)
    asa = canonicalize(problem)
    data = materialize(asa, asa.flatten_params(values))
    dio.write_cone_data(args.output, data)
    print(f"wrote A ({data.A.shape[0]}x{data.A.shape[1]}, "
          f"{data.A.nnz} entries), b, c, cones to {args.output}")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    values = _load_params(args, problem)
    layer = Layer.compile(problem, _settings(args))
    result = layer.forward(values)
    payload = {
        "status": result.status,
        "iterations": result.info.get("iterations"),
    }
    if result.ok:
        payload["objective"] = result.info["objective"]
        payload["variables"] = {k: np.asarray(v).tolist()
                                for k, v in result.outputs.items()}
    _emit(args, payload)
    return EXIT_OK if result.ok else EXIT_SOLVER


def _cotangents(args, layer, result):
    if getattr(args, "seed_cotangent", None):
        raw = dio.load_values(_read(args.seed_cotangent))
        out = {}
        for slot in layer.asa.variable_layout:
            if slot.name in raw:
                out[slot.name] = np.asarray(raw[slot.name], dtype=float)
        missing = set(raw) - set(layer.variable_order)
        if missing:
            raise ParseError(f"cotangents for unknown outputs: {sorted(missing)}")
        return out
    return {name: np.ones(slot.dims)
            for name, slot in zip(layer.variable_order, layer.asa.variable_layout)}


def cmd_grad(args) -> int:
    problem = _load_problem(args)
    values = _load_params(args, problem)
    layer = Layer.compile(problem, _settings(args))
    result = layer.forward(values)
    if not result.ok:
        _emit(args, {"status": result.status})
        return EXIT_SOLVER
    grads, info = layer.backward(result, _cotangents(args, layer, result))
    _emit(args, {
        "status": result.status,
        "fallback": bool(info.get("fallback", False)),
        "gradients": {k: np.asarray(v).tolist() for k, v in grads.items()},
    })
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    problem = _load_problem(args)
    values = _load_params(args, problem)
    layer = Layer.compile(problem, _settings(args))
    result = layer.forward(values)
    if not result.ok:
        _emit(args, {"status": result.status})
        return EXIT_SOLVER
    cot = _cotangents(args, layer, result)
    grads, _ = layer.backward(result, cot)

    def loss(vals) -> float:
        res = layer.forward(vals)
        if not res.ok:
            raise DiffconeError(f"solve failed during finite differences: "
                                f"{res.status}")
        total = 0.0
        for name, w in cot.items():
            total += float(np.sum(np.asarray(w) * res.outputs[name]))
        return total

    h = args.h
    worst = 0.0
    report = {}
    for slot in layer.asa.param_layout:
        base = np.asarray(values[slot.name], dtype=float)
        flat = base.ravel(order="F").copy()
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            for sgn, store in ((1.0, 1), (-1.0, -1)):
                pert = flat.copy()
                pert[i] += sgn * h
                vals = dict(values)
                vals[slot.name] = pert.reshape(base.shape, order="F") \
                    if base.shape else pert[0]
                if store == 1:
                    up = loss(vals)
                else:
                    down = loss(vals)
            fd[i] = (up - down) / (2 * h)
        an = np.asarray(grads[slot.name]).ravel(order="F")
        denom = max(1.0, float(np.max(np.abs(fd))))
        err = float(np.max(np.abs(fd - an)) / denom)
        report[slot.name] = err
        worst = max(worst, err)
    _emit(args, {"max_relative_error": worst, "per_parameter": report,
                 "tolerance": args.tol_check})
    return EXIT_OK if worst <= args.tol_check else EXIT_GRADCHECK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diffcone",
                     description="Differentiable cone-program toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, params=True, solver=False):
        p.add_argument("--problem", required=True, help="problem JSON file")
        if params:
            p.add_argument("--params", help="parameter values JSON file")
        if solver:
            p.add_argument("--tol", type=float, default=1e-8,
                           help="solver tolerance")
            p.add_argument("--max-iters", dest="max_iters", type=int,
                           default=100_000)
        p.add_argument("--output", help="write the result here instead of stdout")

    p = sub.add_parser("check-dpp", help="verify the parametrized ruleset")
    common(p, params=False)
    p.set_defaults(func=cmd_check_dpp)

    p = sub.add_parser("canonicalize",
                       help="write (A, b, c, cones) for given parameters")
    common(p)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("solve", help="solve for given parameters")
    common(p, solver=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("grad", help="parameter gradients for a cotangent seed")
    common(p, solver=True)
    p.add_argument("--seed-cotangent", dest="seed_cotangent",
                   help="values JSON keyed by output variable (default: ones)")
    p.set_defaults(func=cmd_grad)

    p = sub.add_parser("gradcheck",
                       help="compare backward against central differences")
    common(p, solver=True)
    p.add_argument("--seed-cotangent", dest="seed_cotangent")
    p.add_argument("--h", type=float, default=1e-6, help="difference step")
    p.add_argument("--tol-check", dest="tol_check", type=float, default=1e-4,
                   help="max relative error allowed")
    p.set_defaults(func=cmd_gradcheck, tol=1e-10)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DiffconeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
