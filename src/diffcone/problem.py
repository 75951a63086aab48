"""Problems, constraints, and verification of the parametrized ruleset.

Constraints are normalized at construction: ``>=`` becomes ``<=`` by negating
both sides, and a maximization objective is stored as the negated minimization
objective.  Verification therefore only ever has to reason about one sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeclarationError, ShapeError
from .expressions import (
    CONSTANT,
    PARAMETER,
    VARIABLE,
    Expression,
    Leaf,
    constant,
    make_node,
    neg,
    postorder,
    promote,
)

__all__ = [
    "Constraint",
    "Problem",
    "DppViolation",
    "DppReport",
    "check_dpp",
    "le",
    "ge",
    "eq",
    "substitute_parameters",
]

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

LE = "<="
EQ = "=="


def _broadcast_sides(lhs: Expression, rhs: Expression):
    if lhs.shape.dims == rhs.shape.dims:
        return lhs, rhs
    if lhs.shape.size == 1:
        return promote(lhs, rhs.shape.dims), rhs
    if rhs.shape.size == 1:
        return lhs, promote(rhs, lhs.shape.dims)
    raise ShapeError(
        f"constraint sides have incompatible shapes "
        f"{lhs.shape.dims} vs {rhs.shape.dims}"
    )


@dataclass(frozen=True, eq=False)
class Constraint:
    """A relational constraint with relop restricted to ``<=`` or ``==``."""

    lhs: Expression
    relop: str
    rhs: Expression

    @staticmethod
    def create(lhs, rhs, relop: str) -> "Constraint":
        if not isinstance(lhs, Expression):
            lhs = constant(lhs)
        if not isinstance(rhs, Expression):
            rhs = constant(rhs)
        lhs, rhs = _broadcast_sides(lhs, rhs)
        if relop == ">=":
            lhs, rhs, relop = neg(lhs), neg(rhs), LE
        if relop not in (LE, EQ):
            raise ShapeError(f"unknown relational operator {relop!r}")
        return Constraint(lhs, relop, rhs)


def le(lhs, rhs) -> Constraint:
    return Constraint.create(lhs, rhs, "<=")


def ge(lhs, rhs) -> Constraint:
    return Constraint.create(lhs, rhs, ">=")


def eq(lhs, rhs) -> Constraint:
    return Constraint.create(lhs, rhs, "==")


class Problem:
    """An objective plus constraints over declared variables and parameters.

    ``sense`` records the user's declared sense; internally the objective is
    always stored in minimization form.  ``variables`` and ``parameters``
    are ordered declaration lists; the parameter order defines the layout of
    the parameter vector downstream.
    """

    def __init__(self, sense: str, objective: Expression, constraints=(),
                 variables=None, parameters=None):
        if sense not in (MINIMIZE, MAXIMIZE):
            raise DeclarationError(f"unknown sense {sense!r}")
        if not isinstance(objective, Expression):
            objective = constant(objective)
        if objective.shape.size != 1:
            raise ShapeError(f"objective must be scalar, got {objective.shape}")
        self.sense = sense
        self.objective = objective if sense == MINIMIZE else neg(objective)
        self.constraints: tuple[Constraint, ...] = tuple(constraints)
        for c in self.constraints:
            if not isinstance(c, Constraint):
                raise DeclarationError(f"not a constraint: {c!r}")
        self._declare(variables, parameters)

    def _declare(self, variables, parameters):
        by_name: dict[tuple[str, str], Leaf] = {}
        order: dict[str, list[Leaf]] = {VARIABLE: [], PARAMETER: []}
        sides = (side for c in self.constraints for side in (c.lhs, c.rhs))
        for e in postorder(self.objective, *sides):
            leaf = e.leaf
            if leaf is None or leaf.kind == CONSTANT:
                continue
            key = (leaf.kind, leaf.name)
            prev = by_name.get(key)
            if prev is None:
                by_name[key] = leaf
                order[leaf.kind].append(leaf)
            elif prev is not leaf:
                if (prev.shape != leaf.shape or prev.nonneg != leaf.nonneg
                        or prev.nonpos != leaf.nonpos):
                    raise DeclarationError(
                        f"{leaf.kind} {leaf.name!r} declared twice with "
                        f"different shape or attributes"
                    )
        var_names = {l.name for l in order[VARIABLE]}
        param_names = {l.name for l in order[PARAMETER]}
        clash = var_names & param_names
        if clash:
            raise DeclarationError(
                f"names used both as variable and parameter: {sorted(clash)}"
            )

        def resolve(explicit, kind):
            found = order[kind]
            if explicit is None:
                return tuple(found)
            explicit_leaves = []
            names = set()
            for e in explicit:
                leaf = e.leaf if isinstance(e, Expression) else e
                if leaf is None or leaf.kind != kind:
                    raise DeclarationError(f"expected a {kind} declaration, got {e!r}")
                if leaf.name in names:
                    raise DeclarationError(f"duplicate {kind} {leaf.name!r}")
                names.add(leaf.name)
                explicit_leaves.append(leaf)
            missing = {l.name for l in found} - names
            if missing:
                raise DeclarationError(
                    f"{kind}s referenced but not declared: {sorted(missing)}"
                )
            return tuple(explicit_leaves)

        self.variables: tuple[Leaf, ...] = resolve(variables, VARIABLE)
        self.parameters: tuple[Leaf, ...] = resolve(parameters, PARAMETER)

    def variable_named(self, name: str) -> Leaf:
        for v in self.variables:
            if v.name == name:
                return v
        raise DeclarationError(f"unknown variable {name!r}")

    def parameter_named(self, name: str) -> Leaf:
        for p in self.parameters:
            if p.name == name:
                return p
        raise DeclarationError(f"unknown parameter {name!r}")

    def __repr__(self):
        return (f"Problem({self.sense}, vars={[v.name for v in self.variables]}, "
                f"params={[p.name for p in self.parameters]}, "
                f"m={len(self.constraints)})")


# ---------------------------------------------------------------------------
# Verification

@dataclass(frozen=True)
class DppViolation:
    path: str
    rule: str
    detail: str

    def __str__(self):
        return f"{self.path}: {self.rule} -- {self.detail}"


@dataclass(frozen=True)
class DppReport:
    valid: bool
    violations: tuple[DppViolation, ...]

    def __str__(self):
        if self.valid:
            return "valid parametrized program"
        lines = [f"invalid: {len(self.violations)} violation(s)"]
        lines += [f"  - {v}" for v in self.violations]
        return "\n".join(lines)


def check_dpp(problem: Problem) -> DppReport:
    """Verify a problem against the parametrized convexity ruleset.

    Valid iff the (minimization-form) objective is convex, every ``<=``
    constraint has convex lhs and concave rhs, every ``==`` constraint has
    affine sides, and every product node satisfies the product rule.
    Violations are data, not errors; the report is deterministic.  Product
    violations come first, in pre-order, each at the path that reaches its
    node first.
    """
    out: list[DppViolation] = []
    seen: set[int] = set()
    roots = [(problem.objective, "objective")] + [
        (side, f"constraints[{i}].{name}")
        for i, c in enumerate(problem.constraints)
        for side, name in ((c.lhs, "lhs"), (c.rhs, "rhs"))]
    stack = roots[::-1]
    while stack:
        expr, path = stack.pop()
        if id(expr) in seen:
            continue
        seen.add(id(expr))
        if not expr.product_ok:
            out.append(DppViolation(
                path, "parameter-product",
                f"{expr.atom} of {expr.args[0]!r} and {expr.args[1]!r}: "
                f"neither side is constant and the sides are not "
                f"parameter-affine times parameter-free",
            ))
        stack.extend(reversed([(a, f"{path}.args[{i}]")
                               for i, a in enumerate(expr.args)]))

    if not problem.objective.is_convex():
        out.append(DppViolation(
            "objective", "objective-curvature",
            f"curvature {problem.objective.curvature.value}; a minimization "
            f"objective must be convex",
        ))
    for i, c in enumerate(problem.constraints):
        if c.relop == LE:
            if not c.lhs.is_convex():
                out.append(DppViolation(
                    f"constraints[{i}].lhs", "constraint-curvature",
                    f"lhs of <= must be convex, got {c.lhs.curvature.value}",
                ))
            if not c.rhs.is_concave():
                out.append(DppViolation(
                    f"constraints[{i}].rhs", "constraint-curvature",
                    f"rhs of <= must be concave, got {c.rhs.curvature.value}",
                ))
        else:
            for side, name in ((c.lhs, "lhs"), (c.rhs, "rhs")):
                if not side.is_affine():
                    out.append(DppViolation(
                        f"constraints[{i}].{name}", "constraint-curvature",
                        f"{name} of == must be affine, got {side.curvature.value}",
                    ))
    return DppReport(valid=not out, violations=tuple(out))


# ---------------------------------------------------------------------------
# Parameter substitution (used by the recanonicalization oracle and tests)

def substitute_parameters(problem: Problem, values) -> Problem:
    """Rebuild a problem with every parameter leaf replaced by a constant.

    Tree structure is preserved node-for-node so downstream lowering visits
    subtrees in the same order as for the parametrized problem.
    """
    memo: dict[int, Expression] = {}
    sides = [side for c in problem.constraints for side in (c.lhs, c.rhs)]
    for e in postorder(*sides, problem.objective):
        if e.leaf is not None and e.leaf.kind == PARAMETER:
            val = np.asarray(values[e.leaf.name], dtype=float)
            if tuple(val.shape) != e.shape.dims:
                raise ShapeError(
                    f"value for {e.leaf.name!r} has shape {val.shape}, "
                    f"expected {e.shape.dims}"
                )
            memo[id(e)] = constant(val)
        elif e.is_leaf:
            memo[id(e)] = e
        else:
            memo[id(e)] = make_node(e.atom, [memo[id(a)] for a in e.args],
                                    meta=e.meta)

    new_constraints = [
        Constraint(memo[id(c.lhs)], c.relop, memo[id(c.rhs)])
        for c in problem.constraints
    ]
    return Problem(MINIMIZE, memo[id(problem.objective)], new_constraints,
                   variables=problem.variables)
