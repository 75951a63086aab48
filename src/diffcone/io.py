"""Problem and values documents, plus cone-data files.

A problem document is JSON with declarations, a sense, an objective tree,
and constraints; expression nodes are tagged ``{"var": name}``,
``{"param": name}``, ``{"const": scalar-or-nested-lists}``, or
``{"atom": id, "args": [...]}`` with ``"shape"`` (reshape/promote) or
``"slices"`` (index) where the atom needs it.  Values documents map
parameter names to numbers / nested lists (row-of-rows for matrices).

Canonicalized data is written as Matrix Market (coordinate, 1-indexed) for
A, plain-text vectors for b and c, and a cone sidecar with lines
``zero N`` / ``nonneg N`` / ``soc d1 d2 ...`` in canonical row order.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .canon import ConeProgramData
from .cones import ConeSpec
from .errors import ParseError
from .expressions import (ATOM_IDS, Expression, constant, make_node, parameter,
                          postorder, variable)
from .problem import Constraint, Problem

__all__ = [
    "ProblemDocument",
    "load_problem_document",
    "dump_problem_document",
    "document_to_problem",
    "problem_to_document",
    "parse_problem",
    "load_values",
    "dump_values",
    "write_cone_data",
    "read_cone_data",
]


@dataclass(frozen=True)
class ProblemDocument:
    """Verbatim document form of a problem; round-trips through JSON."""

    variables: tuple
    parameters: tuple
    sense: str
    objective: dict
    constraints: tuple

    def to_json_dict(self) -> dict:
        return {
            "variables": [dict(d) for d in self.variables],
            "parameters": [dict(d) for d in self.parameters],
            "sense": self.sense,
            "objective": self.objective,
            "constraints": [dict(c) for c in self.constraints],
        }


def _nesting_bounded(load):
    """``load`` raising ``ParseError`` at ``$`` for a document nested deeper
    than the JSON decoder or its own recursive walk can go."""
    @functools.wraps(load)
    def bounded(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        except RecursionError:
            raise ParseError("document nests too deep", location="$") from None
    return bounded


@_nesting_bounded
def load_problem_document(text: str) -> ProblemDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         location=f"line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(raw, dict):
        raise ParseError("problem document must be a JSON object", location="$")
    for key in ("sense", "objective"):
        if key not in raw:
            raise ParseError(f"missing required key {key!r}", location="$")
    sense = raw["sense"]
    if sense not in ("minimize", "maximize"):
        raise ParseError("sense must be 'minimize' or 'maximize'",
                         location="$.sense", token=sense)
    for key in ("variables", "parameters", "constraints"):
        if key in raw and not isinstance(raw[key], list):
            raise ParseError(f"{key} must be a list", location=f"$.{key}")

    def check_decl(decl, where, kind):
        if not isinstance(decl, dict) or "name" not in decl:
            raise ParseError(f"{kind} declaration needs a name", location=where)
        if not isinstance(decl["name"], str) or not decl["name"].isidentifier():
            raise ParseError(f"{kind} name must be an identifier",
                             location=where, token=decl.get("name"))
        extra = set(decl) - {"name", "shape", "nonneg", "nonpos"}
        if extra:
            raise ParseError(f"unknown declaration keys {sorted(extra)}",
                             location=where)
        out = {"name": decl["name"],
               "shape": [int(d) for d in decl.get("shape", [])]}
        # canonical compact form: sign flags present only when set
        if decl.get("nonneg", False):
            out["nonneg"] = True
        if decl.get("nonpos", False):
            out["nonpos"] = True
        return out

    variables = tuple(
        check_decl(d, f"$.variables[{i}]", "variable")
        for i, d in enumerate(raw.get("variables", [])))
    parameters = tuple(
        check_decl(d, f"$.parameters[{i}]", "parameter")
        for i, d in enumerate(raw.get("parameters", [])))

    def check_expr(node, where):
        if not isinstance(node, dict):
            raise ParseError("expression node must be an object", location=where,
                             token=node)
        tags = [t for t in ("var", "param", "const", "atom") if t in node]
        if len(tags) != 1:
            raise ParseError(
                "expression node needs exactly one of var/param/const/atom",
                location=where, token=",".join(sorted(node)))
        tag = tags[0]
        if tag == "atom":
            name = node["atom"]
            if name not in ATOM_IDS:
                raise ParseError("unknown atom", location=where, token=name)
            args = node.get("args", [])
            if not isinstance(args, list) or not args:
                raise ParseError("atom node needs an args list", location=where,
                                 token=name)
            out = {"atom": name,
                   "args": [check_expr(a, f"{where}.args[{i}]")
                            for i, a in enumerate(args)]}
            if "shape" in node:
                out["shape"] = [int(d) for d in node["shape"]]
            if "slices" in node:
                out["slices"] = [list(s) for s in node["slices"]]
            return out
        if tag in ("var", "param"):
            if not isinstance(node[tag], str):
                raise ParseError(f"{tag} reference must be a name",
                                 location=where, token=node[tag])
            return {tag: node[tag]}
        return {"const": node["const"]}

    objective = check_expr(raw["objective"], "$.objective")
    constraints = []
    for i, c in enumerate(raw.get("constraints", [])):
        where = f"$.constraints[{i}]"
        if not isinstance(c, dict) or set(c) != {"lhs", "relop", "rhs"}:
            raise ParseError("constraint needs lhs/relop/rhs keys", location=where)
        if c["relop"] not in ("<=", ">=", "=="):
            raise ParseError("relop must be <=, >=, or ==", location=where,
                             token=c["relop"])
        constraints.append({
            "lhs": check_expr(c["lhs"], f"{where}.lhs"),
            "relop": c["relop"],
            "rhs": check_expr(c["rhs"], f"{where}.rhs"),
        })
    return ProblemDocument(variables=variables, parameters=parameters,
                           sense=sense, objective=objective,
                           constraints=tuple(constraints))


@_nesting_bounded
def dump_problem_document(doc: ProblemDocument) -> str:
    return json.dumps(doc.to_json_dict(), indent=2, sort_keys=False) + "\n"


@_nesting_bounded
def document_to_problem(doc: ProblemDocument) -> Problem:
    leaves: dict[str, Expression] = {}
    for d in doc.variables:
        if d["name"] in leaves:
            raise ParseError("duplicate declaration", token=d["name"])
        leaves[d["name"]] = variable(d["name"], tuple(d["shape"]))
    for d in doc.parameters:
        if d["name"] in leaves:
            raise ParseError("duplicate declaration", token=d["name"])
        leaves[d["name"]] = parameter(d["name"], tuple(d["shape"]),
                                      nonneg=d.get("nonneg", False),
                                      nonpos=d.get("nonpos", False))

    def build(node, where) -> Expression:
        if "var" in node or "param" in node:
            name = node.get("var", node.get("param"))
            if name not in leaves:
                raise ParseError("undeclared leaf", location=where, token=name)
            kind = "var" if "var" in node else "param"
            found = leaves[name].leaf.kind
            if (kind == "var") != (found == "variable"):
                raise ParseError(f"leaf declared as {found}", location=where,
                                 token=name)
            return leaves[name]
        if "const" in node:
            return constant(node["const"])
        meta = None
        if node["atom"] in ("reshape", "promote"):
            if "shape" not in node:
                raise ParseError(f"{node['atom']} needs a shape",
                                 location=where, token=node["atom"])
            meta = tuple(node["shape"])
        elif node["atom"] == "index":
            if "slices" not in node:
                raise ParseError("index needs slices", location=where,
                                 token="index")
            meta = tuple(tuple(s) for s in node["slices"])
        args = [build(a, f"{where}.args[{i}]")
                for i, a in enumerate(node["args"])]
        return make_node(node["atom"], args, meta=meta)

    objective = build(doc.objective, "$.objective")
    constraints = [
        Constraint.create(build(c["lhs"], f"$.constraints[{i}].lhs"),
                          build(c["rhs"], f"$.constraints[{i}].rhs"),
                          c["relop"])
        for i, c in enumerate(doc.constraints)
    ]
    explicit_vars = [leaves[d["name"]] for d in doc.variables]
    explicit_params = [leaves[d["name"]] for d in doc.parameters]
    return Problem(doc.sense, objective, constraints,
                   variables=explicit_vars or None,
                   parameters=explicit_params or None)


def problem_to_document(problem: Problem) -> ProblemDocument:
    """Document form of an in-memory problem (normalized sense and relops).
    Each distinct node is converted once, without recursion, and a subtree
    shared by several parents is one dict in each of their args."""
    docs: dict[int, dict] = {}
    for e in postorder(problem.objective,
                       *(side for c in problem.constraints
                         for side in (c.lhs, c.rhs))):
        if e.is_leaf:
            leaf = e.leaf
            if leaf.kind == "variable":
                out = {"var": leaf.name}
            elif leaf.kind == "parameter":
                out = {"param": leaf.name}
            else:
                out = {"const": np.asarray(leaf.value).tolist()}
        else:
            out = {"atom": e.atom, "args": [docs[id(a)] for a in e.args]}
            if e.atom in ("reshape", "promote"):
                out["shape"] = list(e.meta)
            elif e.atom == "index":
                out["slices"] = [list(s) for s in e.meta]
        docs[id(e)] = out

    def decl(leaf):
        d = {"name": leaf.name, "shape": list(leaf.shape.dims)}
        if leaf.nonneg:
            d["nonneg"] = True
        if leaf.nonpos:
            d["nonpos"] = True
        return d

    return ProblemDocument(
        variables=tuple(decl(v) for v in problem.variables),
        parameters=tuple(decl(p) for p in problem.parameters),
        sense="minimize",
        objective=docs[id(problem.objective)],
        constraints=tuple(
            {"lhs": docs[id(c.lhs)], "relop": c.relop, "rhs": docs[id(c.rhs)]}
            for c in problem.constraints),
    )


def parse_problem(text: str) -> Problem:
    """Text to validated Problem; raises ParseError with position info."""
    return document_to_problem(load_problem_document(text))


# ---------------------------------------------------------------------------
# Values documents

@_nesting_bounded
def load_values(text: str, problem: Problem | None = None) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         location=f"line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(raw, dict):
        raise ParseError("values document must be a JSON object", location="$")
    out = {}
    for name, val in raw.items():
        try:
            out[name] = np.asarray(val, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError("value is not numeric", location=f"$.{name}",
                             token=name) from exc
    if problem is not None:
        declared = {p.name: p for p in problem.parameters}
        for name, arr in out.items():
            if name not in declared:
                raise ParseError("value bound to undeclared parameter",
                                 location=f"$.{name}", token=name)
            want = declared[name].shape.dims
            if tuple(arr.shape) != want:
                raise ParseError(
                    f"value shape {tuple(arr.shape)} != declared {want}",
                    location=f"$.{name}", token=name)
    return out


def dump_values(values: dict) -> str:
    out = {k: np.asarray(v).tolist() for k, v in values.items()}
    return json.dumps(out, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Cone-data files

def write_cone_data(directory: str, data: ConeProgramData):
    os.makedirs(directory, exist_ok=True)
    scipy.io.mmwrite(os.path.join(directory, "A.mtx"), data.A.tocoo())
    np.savetxt(os.path.join(directory, "b.txt"), data.b)
    np.savetxt(os.path.join(directory, "c.txt"), data.c)
    lines = []
    if data.cones.n_zero:
        lines.append(f"zero {data.cones.n_zero}")
    if data.cones.n_nonneg:
        lines.append(f"nonneg {data.cones.n_nonneg}")
    if data.cones.soc_dims:
        lines.append("soc " + " ".join(str(d) for d in data.cones.soc_dims))
    with open(os.path.join(directory, "cones.txt"), "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def read_cone_data(directory: str) -> ConeProgramData:
    A = sp.csr_matrix(scipy.io.mmread(os.path.join(directory, "A.mtx")))
    b = np.atleast_1d(np.loadtxt(os.path.join(directory, "b.txt"), dtype=float))
    c = np.atleast_1d(np.loadtxt(os.path.join(directory, "c.txt"), dtype=float))
    n_zero = n_nonneg = 0
    soc: tuple[int, ...] = ()
    with open(os.path.join(directory, "cones.txt")) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "zero":
                n_zero = int(parts[1])
            elif parts[0] == "nonneg":
                n_nonneg = int(parts[1])
            elif parts[0] == "soc":
                soc = tuple(int(t) for t in parts[1:])
            else:
                raise ParseError("unknown cone line", location="cones.txt",
                                 token=parts[0])
    return ConeProgramData(A, b, c, ConeSpec(n_zero, n_nonneg, soc))
