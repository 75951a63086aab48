"""Expression trees for parametrized convex programs.

An expression is an immutable tree whose internal nodes are atoms and whose
leaves are variables, parameters, or constants.  Every node is annotated at
construction time with shape, curvature, sign, and the three classification
flags (parameter_free, variable_free, parameter_affine) that drive the
parametrized product rule.  Parameters are treated as affine unknowns, so a
product of two expressions is accepted only when one side is constant or when
one side is parameter-affine and the other is parameter-free.

Every analysis of a tree (evaluation, leaf declaration, verification,
parameter substitution, lowering and the tensor reduction) runs on one
iterative walk, ``postorder``: it yields each distinct node of the DAG
once, after its arguments, in the order a left-to-right recursive walk
finishes them, so no analysis is bounded by Python's recursion limit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import DeclarationError, ShapeError

__all__ = [
    "Shape",
    "Curvature",
    "Sign",
    "Leaf",
    "Expression",
    "ATOM_IDS",
    "NONLINEAR_ATOMS",
    "make_node",
    "classify",
    "variable",
    "parameter",
    "constant",
    "add",
    "sub",
    "neg",
    "matmul",
    "multiply",
    "sum_entries",
    "index",
    "reshape",
    "transpose",
    "vstack",
    "hstack",
    "promote",
    "norm2",
    "sum_squares",
    "absval",
    "maximum",
    "evaluate",
    "postorder",
]


# ---------------------------------------------------------------------------
# Shapes

@dataclass(frozen=True)
class Shape:
    """Dimensions of an expression; rank 0, 1, or 2. Scalars are rank 0."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) > 2:
            raise ShapeError(f"rank {len(self.dims)} not supported: {self.dims}")
        if any(d < 0 for d in self.dims):
            raise ShapeError(f"negative dimension in shape {self.dims}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64)) if self.dims else 1

    @property
    def is_scalar(self) -> bool:
        return self.size == 1 and self.rank == 0

    def __repr__(self):
        return f"Shape{self.dims}"


def as_shape(dims) -> Shape:
    if isinstance(dims, Shape):
        return dims
    if isinstance(dims, int):
        return Shape((dims,))
    return Shape(tuple(int(d) for d in dims))


class Curvature(Enum):
    CONSTANT = "constant"
    AFFINE = "affine"
    CONVEX = "convex"
    CONCAVE = "concave"
    UNKNOWN = "unknown"


class Sign(Enum):
    ZERO = "zero"
    NONNEG = "nonneg"
    NONPOS = "nonpos"
    UNKNOWN = "unknown"


# Sign arithmetic uses interval endpoints: zero=[0,0], nonneg=[0,inf),
# nonpos=(-inf,0], unknown=(-inf,inf).
_LO = {Sign.ZERO: 0.0, Sign.NONNEG: 0.0, Sign.NONPOS: -np.inf, Sign.UNKNOWN: -np.inf}
_HI = {Sign.ZERO: 0.0, Sign.NONNEG: np.inf, Sign.NONPOS: 0.0, Sign.UNKNOWN: np.inf}


def _from_interval(lo, hi) -> Sign:
    if lo == 0.0 and hi == 0.0:
        return Sign.ZERO
    if lo >= 0.0:
        return Sign.NONNEG
    if hi <= 0.0:
        return Sign.NONPOS
    return Sign.UNKNOWN


def sign_add(a: Sign, b: Sign) -> Sign:
    return _from_interval(_LO[a] + _LO[b], _HI[a] + _HI[b])


def sign_neg(a: Sign) -> Sign:
    return _from_interval(-_HI[a], -_LO[a])


def sign_mul(a: Sign, b: Sign) -> Sign:
    if a == Sign.ZERO or b == Sign.ZERO:
        return Sign.ZERO
    if a == Sign.UNKNOWN or b == Sign.UNKNOWN:
        return Sign.UNKNOWN
    return Sign.NONNEG if a == b else Sign.NONPOS


def sign_max(a: Sign, b: Sign) -> Sign:
    return _from_interval(max(_LO[a], _LO[b]), max(_HI[a], _HI[b]))


def sign_hull(signs) -> Sign:
    lo = min(_LO[s] for s in signs)
    hi = max(_HI[s] for s in signs)
    return _from_interval(lo, hi)


# ---------------------------------------------------------------------------
# Leaves

VARIABLE = "variable"
PARAMETER = "parameter"
CONSTANT = "constant"


@dataclass(frozen=True, eq=False)
class Leaf:
    """A variable, parameter, or constant at the bottom of a tree.

    Constants carry a dense value matching their shape; variables and
    parameters carry a name and optional sign attributes instead.
    """

    kind: str
    shape: Shape
    name: str | None = None
    value: np.ndarray | None = None
    nonneg: bool = False
    nonpos: bool = False

    def __post_init__(self):
        if self.kind not in (VARIABLE, PARAMETER, CONSTANT):
            raise DeclarationError(f"unknown leaf kind {self.kind!r}")
        if self.kind == CONSTANT:
            if self.value is None:
                raise DeclarationError("constant leaf requires a value")
            if self.name is not None:
                raise DeclarationError("constant leaves are anonymous")
            if tuple(np.shape(self.value)) != self.shape.dims:
                raise ShapeError(
                    f"constant value shape {np.shape(self.value)} != {self.shape}"
                )
        else:
            if self.value is not None:
                raise DeclarationError(f"{self.kind} leaf must not carry a value")
            if not self.name:
                raise DeclarationError(f"{self.kind} leaf requires a name")
        if self.nonneg and self.nonpos and self.kind == CONSTANT:
            raise DeclarationError("sign attributes apply to variables/parameters")

    @property
    def sign(self) -> Sign:
        if self.kind == CONSTANT:
            v = np.asarray(self.value, dtype=float)
            if v.size == 0 or np.all(v == 0):
                return Sign.ZERO
            if np.all(v >= 0):
                return Sign.NONNEG
            if np.all(v <= 0):
                return Sign.NONPOS
            return Sign.UNKNOWN
        if self.nonneg and self.nonpos:
            return Sign.ZERO
        if self.nonneg:
            return Sign.NONNEG
        if self.nonpos:
            return Sign.NONPOS
        return Sign.UNKNOWN


# ---------------------------------------------------------------------------
# Atoms

ATOM_IDS = frozenset(
    {
        "add",
        "neg",
        "matmul",
        "mul_elem",
        "sum",
        "index",
        "reshape",
        "transpose",
        "vstack",
        "hstack",
        "promote",
        "norm2",
        "sum_squares",
        "abs",
        "maximum",
    }
)

NONLINEAR_ATOMS = frozenset({"norm2", "sum_squares", "abs", "maximum"})
PRODUCT_ATOMS = frozenset({"matmul", "mul_elem"})

_INC = frozenset({"inc"})
_DEC = frozenset({"dec"})
_BOTH = frozenset({"inc", "dec"})
_NONE: frozenset = frozenset()


def _mono_from_sign(s: Sign) -> frozenset:
    if s == Sign.ZERO:
        return _BOTH
    if s == Sign.NONNEG:
        return _INC
    if s == Sign.NONPOS:
        return _DEC
    return _NONE


def _normalize_index(meta, dims):
    """Normalize an index key to ((start, stop, step), ...) per axis.

    Each axis takes an int, a ``slice`` or a (start, stop, step) triple.
    """
    if meta is None:
        raise ShapeError("index atom requires slices")
    key = tuple(meta) if isinstance(meta, (tuple, list)) else (meta,)
    if len(key) != len(dims):
        raise ShapeError(f"index key covers {len(key)} axes, expected {len(dims)}")
    return tuple(_normalize_axis(item, axis_len)
                 for axis_len, item in zip(dims, key))


def _normalize_axis(item, axis_len):
    if isinstance(item, slice):
        item = (item.start, item.stop, item.step)
    elif not isinstance(item, (tuple, list)):
        try:
            i = operator.index(item)
        except TypeError:
            raise ShapeError(
                f"index key item {item!r} is not an int, a slice or a "
                f"(start, stop, step) triple") from None
        if not -axis_len <= i < axis_len:
            raise ShapeError(f"index {i} out of range for axis of length {axis_len}")
        i %= axis_len
        item = (i, i + 1, 1)
    if len(item) != 3:
        raise ShapeError(f"index key item {item!r} is not a (start, stop, step) triple")
    try:
        start, stop, step = slice(*item).indices(axis_len)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"bad index key item {item!r}: {exc}") from None
    if step <= 0:
        raise ShapeError("index step must be positive")
    return (start, stop, step)


def _index_out_dims(norm):
    return tuple(max(0, -(-(stop - start) // step)) for start, stop, step in norm)


def _infer_shape(atom: str, shapes: list[Shape], meta) -> tuple[Shape, object]:
    """Shape rule per atom. Returns (output shape, normalized meta)."""
    if atom in ("add", "mul_elem", "maximum"):
        if len(shapes) != 2 or shapes[0].dims != shapes[1].dims:
            raise ShapeError(
                f"{atom} requires two equal shapes, got "
                f"{[s.dims for s in shapes]}"
            )
        return shapes[0], None
    if atom in ("neg", "abs"):
        (s,) = shapes
        return s, None
    if atom == "matmul":
        a, b = shapes
        if a.rank == 0 or b.rank == 0:
            raise ShapeError("matmul operands must have rank >= 1; use mul_elem")
        if a.rank == 1 and b.rank == 1:
            if a.dims[0] != b.dims[0]:
                raise ShapeError(f"matmul inner dims differ: {a.dims} @ {b.dims}")
            return Shape(()), None
        if a.rank == 2 and b.rank == 1:
            if a.dims[1] != b.dims[0]:
                raise ShapeError(f"matmul inner dims differ: {a.dims} @ {b.dims}")
            return Shape((a.dims[0],)), None
        if a.rank == 1 and b.rank == 2:
            if a.dims[0] != b.dims[0]:
                raise ShapeError(f"matmul inner dims differ: {a.dims} @ {b.dims}")
            return Shape((b.dims[1],)), None
        if a.dims[1] != b.dims[0]:
            raise ShapeError(f"matmul inner dims differ: {a.dims} @ {b.dims}")
        return Shape((a.dims[0], b.dims[1])), None
    if atom in ("sum", "norm2", "sum_squares"):
        return Shape(()), None
    if atom == "index":
        (s,) = shapes
        norm = _normalize_index(meta, s.dims)
        return Shape(_index_out_dims(norm)), norm
    if atom == "reshape":
        (s,) = shapes
        target = as_shape(meta)
        if target.size != s.size:
            raise ShapeError(f"reshape {s.dims} -> {target.dims} changes size")
        return target, target.dims
    if atom == "transpose":
        (s,) = shapes
        if s.rank == 2:
            return Shape((s.dims[1], s.dims[0])), None
        return s, None
    if atom in ("vstack", "hstack"):
        if not shapes:
            raise ShapeError(f"{atom} requires at least one argument")
        ranks = {s.rank for s in shapes}
        if ranks <= {0, 1}:
            return Shape((sum(s.size for s in shapes),)), None
        if ranks == {2}:
            if atom == "vstack":
                cols = {s.dims[1] for s in shapes}
                if len(cols) != 1:
                    raise ShapeError(f"vstack column counts differ: {sorted(cols)}")
                return Shape((sum(s.dims[0] for s in shapes), cols.pop())), None
            rows = {s.dims[0] for s in shapes}
            if len(rows) != 1:
                raise ShapeError(f"hstack row counts differ: {sorted(rows)}")
            return Shape((rows.pop(), sum(s.dims[1] for s in shapes))), None
        raise ShapeError(f"{atom} cannot mix ranks {sorted(ranks)}")
    if atom == "promote":
        (s,) = shapes
        if s.size != 1:
            raise ShapeError(f"promote requires a scalar argument, got {s.dims}")
        return as_shape(meta), as_shape(meta).dims
    raise ShapeError(f"unknown atom {atom!r}")


def _infer_sign(atom: str, args: list["Expression"], meta) -> Sign:
    signs = [a.sign for a in args]
    if atom == "add":
        return sign_add(signs[0], signs[1])
    if atom == "neg":
        return sign_neg(signs[0])
    if atom in ("matmul", "mul_elem"):
        return sign_mul(signs[0], signs[1])
    if atom in ("sum", "index", "reshape", "transpose", "promote"):
        return signs[0]
    if atom in ("vstack", "hstack"):
        return sign_hull(signs)
    if atom in ("norm2", "sum_squares", "abs"):
        return Sign.ZERO if signs[0] == Sign.ZERO else Sign.NONNEG
    if atom == "maximum":
        return sign_max(signs[0], signs[1])
    raise ShapeError(f"unknown atom {atom!r}")


def _monotonicity(atom: str, args: list["Expression"], i: int) -> frozenset:
    """Monotonicity of ``atom`` in argument ``i``, possibly sign-dependent."""
    if atom == "neg":
        return _DEC
    if atom in ("add", "sum", "index", "reshape", "transpose",
                "vstack", "hstack", "promote", "maximum"):
        return _INC
    if atom in ("matmul", "mul_elem"):
        other = args[1 - i]
        return _mono_from_sign(other.sign)
    if atom in ("norm2", "sum_squares", "abs"):
        return _mono_from_sign(args[0].sign)
    raise ShapeError(f"unknown atom {atom!r}")


def _product_rule_ok(args: list["Expression"]) -> bool:
    a, b = args
    if (a.parameter_free and a.variable_free) or (b.parameter_free and b.variable_free):
        return True
    if a.parameter_affine and b.parameter_free:
        return True
    if b.parameter_affine and a.parameter_free:
        return True
    return False


# ---------------------------------------------------------------------------
# Expressions

@dataclass(frozen=True, eq=False)
class Expression:
    """An annotated node: either a leaf or an atom applied to arguments."""

    shape: Shape
    curvature: Curvature
    sign: Sign
    parameter_free: bool
    variable_free: bool
    parameter_affine: bool
    leaf: Leaf | None = None
    atom: str | None = None
    args: tuple["Expression", ...] = ()
    meta: object = None
    product_ok: bool = True

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    def is_constant(self) -> bool:
        return self.parameter_free and self.variable_free

    def is_affine(self) -> bool:
        return self.curvature in (Curvature.CONSTANT, Curvature.AFFINE)

    def is_convex(self) -> bool:
        return self.curvature in (Curvature.CONSTANT, Curvature.AFFINE, Curvature.CONVEX)

    def is_concave(self) -> bool:
        return self.curvature in (Curvature.CONSTANT, Curvature.AFFINE, Curvature.CONCAVE)

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other, self.shape))

    def __radd__(self, other):
        return add(_wrap(other, self.shape), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self.shape))

    def __rsub__(self, other):
        return sub(_wrap(other, self.shape), self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return multiply(self, other)

    def __rmul__(self, other):
        return multiply(other, self)

    def __matmul__(self, other):
        return matmul(self, _wrap_exact(other))

    def __rmatmul__(self, other):
        return matmul(_wrap_exact(other), self)

    def __getitem__(self, key):
        return index(self, key)

    def evaluate(self, values: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
        return evaluate(self, values or {})

    def __repr__(self):
        return _render(self, depth=3)


def _render(e: Expression, depth: int) -> str:
    if e.is_leaf:
        if e.leaf.kind == CONSTANT:
            v = np.asarray(e.leaf.value)
            return f"const{e.shape.dims}" if v.size > 1 else f"const({v.item():g})"
        return f"{e.leaf.kind[0]}:{e.leaf.name}"
    if depth <= 0:
        return f"{e.atom}(...)"
    inner = ", ".join(_render(a, depth - 1) for a in e.args)
    return f"{e.atom}({inner})"


def _leaf_expression(leaf: Leaf) -> Expression:
    if leaf.kind == CONSTANT:
        curvature = Curvature.CONSTANT
        pfree, vfree = True, True
    elif leaf.kind == VARIABLE:
        curvature = Curvature.AFFINE
        pfree, vfree = True, False
    else:
        # Parameters are affine unknowns, not constants.
        curvature = Curvature.AFFINE
        pfree, vfree = False, True
    return Expression(
        shape=leaf.shape,
        curvature=curvature,
        sign=leaf.sign,
        parameter_free=pfree,
        variable_free=vfree,
        parameter_affine=vfree,  # constants and parameters; never variables
        leaf=leaf,
    )


def variable(name: str, shape=()) -> Expression:
    return _leaf_expression(Leaf(VARIABLE, as_shape(shape), name=name))


def parameter(name: str, shape=(), nonneg: bool = False, nonpos: bool = False) -> Expression:
    return _leaf_expression(
        Leaf(PARAMETER, as_shape(shape), name=name, nonneg=nonneg, nonpos=nonpos)
    )


def constant(value) -> Expression:
    arr = np.asarray(value, dtype=float)
    return _leaf_expression(Leaf(CONSTANT, Shape(arr.shape), value=arr))


def _wrap_exact(x) -> Expression:
    return x if isinstance(x, Expression) else constant(x)


def _wrap(x, shape: Shape) -> Expression:
    """Wrap plain numbers, promoting scalars to ``shape`` when needed."""
    if isinstance(x, Expression):
        e = x
    else:
        e = constant(x)
    if e.shape.dims != shape.dims and e.shape.size == 1:
        e = promote(e, shape.dims)
    return e


def _classification(atom: str, args: list[Expression], product_ok: bool):
    pfree = all(a.parameter_free for a in args)
    vfree = all(a.variable_free for a in args)
    if pfree and vfree:
        return pfree, vfree, True
    if not vfree:
        return pfree, vfree, False
    # Variable-free and parametrized: affine in the parameters?
    if atom in NONLINEAR_ATOMS:
        return pfree, vfree, False
    if atom in PRODUCT_ATOMS:
        if not product_ok:
            return pfree, vfree, False
        a, b = args
        a_const = a.parameter_free and a.variable_free
        b_const = b.parameter_free and b.variable_free
        pa = (a_const and b.parameter_affine) or (b_const and a.parameter_affine)
        return pfree, vfree, pa
    return pfree, vfree, all(a.parameter_affine for a in args)


def _compose_curvature(atom: str, args: list[Expression], product_ok: bool) -> Curvature:
    if not product_ok:
        return Curvature.UNKNOWN
    atom_convex = atom in NONLINEAR_ATOMS  # every nonlinear atom here is convex

    def arg_ok(want_convex: bool) -> bool:
        for i, a in enumerate(args):
            if a.is_affine():
                continue
            mono = _monotonicity(atom, args, i)
            if want_convex:
                if "inc" in mono and a.is_convex():
                    continue
                if "dec" in mono and a.is_concave():
                    continue
            else:
                if "inc" in mono and a.is_concave():
                    continue
                if "dec" in mono and a.is_convex():
                    continue
            return False
        return True

    is_cvx = arg_ok(want_convex=True)
    is_ccv = (not atom_convex) and arg_ok(want_convex=False)
    if is_cvx and is_ccv:
        return Curvature.AFFINE
    if is_cvx:
        return Curvature.CONVEX
    if is_ccv:
        return Curvature.CONCAVE
    return Curvature.UNKNOWN


def make_node(atom: str, args, meta=None) -> Expression:
    """Build an annotated node; the single constructor for non-leaf nodes.

    Raises ShapeError when argument shapes violate the atom's shape rule.
    Curvature follows the composition rule with parameters treated as
    affine; a product of two parametrized/variable sides that violates the
    product rule yields unknown curvature (reported later as a violation).
    """
    if atom not in ATOM_IDS:
        raise ShapeError(f"unknown atom {atom!r}")
    args = [_wrap_exact(a) for a in args]
    arity = {"add": 2, "mul_elem": 2, "matmul": 2, "maximum": 2, "neg": 1,
             "abs": 1, "sum": 1, "index": 1, "reshape": 1, "transpose": 1,
             "promote": 1, "norm2": 1, "sum_squares": 1}
    if atom in arity and len(args) != arity[atom]:
        raise ShapeError(f"{atom} takes {arity[atom]} argument(s), got {len(args)}")
    shape, norm_meta = _infer_shape(atom, [a.shape for a in args], meta)
    product_ok = True
    if atom in PRODUCT_ATOMS:
        product_ok = _product_rule_ok(args)
    pfree, vfree, paffine = _classification(atom, args, product_ok)
    if pfree and vfree:
        curvature = Curvature.CONSTANT
    else:
        curvature = _compose_curvature(atom, args, product_ok)
    return Expression(
        shape=shape,
        curvature=curvature,
        sign=_infer_sign(atom, args, norm_meta),
        parameter_free=pfree,
        variable_free=vfree,
        parameter_affine=paffine,
        atom=atom,
        args=tuple(args),
        meta=norm_meta,
        product_ok=product_ok,
    )


def classify(expr: Expression) -> dict[str, bool]:
    """Classification flags of an already-annotated expression."""
    return {
        "parameter_free": expr.parameter_free,
        "variable_free": expr.variable_free,
        "parameter_affine": expr.parameter_affine,
    }


# -- atom helpers -----------------------------------------------------------

def _align_elementwise(a, b):
    a, b = _wrap_exact(a), _wrap_exact(b)
    if a.shape.dims != b.shape.dims:
        if a.shape.size == 1:
            a = promote(a, b.shape.dims)
        elif b.shape.size == 1:
            b = promote(b, a.shape.dims)
    return a, b


def add(a, b) -> Expression:
    return make_node("add", _align_elementwise(a, b))


def sub(a, b) -> Expression:
    return add(a, neg(_wrap_exact(b)))


def neg(a) -> Expression:
    return make_node("neg", [a])


def matmul(a, b) -> Expression:
    return make_node("matmul", [a, b])


def multiply(a, b) -> Expression:
    """Elementwise product, promoting a scalar side to the other's shape."""
    return make_node("mul_elem", _align_elementwise(a, b))


def sum_entries(a) -> Expression:
    return make_node("sum", [a])


def index(a, key) -> Expression:
    """Slice ``a``; ``key`` holds one int, ``slice`` or (start, stop, step)
    triple per axis; a lone int or slice is a one-axis key."""
    return make_node("index", [a], meta=key)


def reshape(a, dims) -> Expression:
    return make_node("reshape", [a], meta=tuple(as_shape(dims).dims))


def transpose(a) -> Expression:
    return make_node("transpose", [a])


def vstack(args) -> Expression:
    return make_node("vstack", list(args))


def hstack(args) -> Expression:
    return make_node("hstack", list(args))


def promote(a, dims) -> Expression:
    return make_node("promote", [a], meta=tuple(as_shape(dims).dims))


def norm2(a) -> Expression:
    return make_node("norm2", [a])


def sum_squares(a) -> Expression:
    return make_node("sum_squares", [a])


def absval(a) -> Expression:
    return make_node("abs", [a])


def maximum(a, b) -> Expression:
    return make_node("maximum", _align_elementwise(a, b))


# ---------------------------------------------------------------------------
# Numeric evaluation

def _eval_atom(atom: str, vals: list[np.ndarray], meta) -> np.ndarray:
    if atom == "add":
        return vals[0] + vals[1]
    if atom == "neg":
        return -vals[0]
    if atom == "matmul":
        return vals[0] @ vals[1]
    if atom == "mul_elem":
        return vals[0] * vals[1]
    if atom == "sum":
        return np.asarray(vals[0].sum())
    if atom == "index":
        key = tuple(slice(s, t, p) for (s, t, p) in meta)
        return vals[0][key]
    if atom == "reshape":
        return np.reshape(vals[0], meta, order="F")
    if atom == "transpose":
        return vals[0].T
    if atom == "vstack":
        flats = [np.ravel(v, order="F") for v in vals]
        if all(v.ndim <= 1 for v in vals):
            return np.concatenate(flats) if flats else np.zeros(0)
        return np.concatenate(vals, axis=0)
    if atom == "hstack":
        if all(v.ndim <= 1 for v in vals):
            return np.concatenate([np.ravel(v, order="F") for v in vals])
        return np.concatenate(vals, axis=1)
    if atom == "promote":
        return np.full(meta, np.asarray(vals[0]).reshape(()))
    if atom == "norm2":
        return np.asarray(np.linalg.norm(np.ravel(vals[0])))
    if atom == "sum_squares":
        return np.asarray(float(np.sum(np.square(vals[0]))))
    if atom == "abs":
        return np.abs(vals[0])
    if atom == "maximum":
        return np.maximum(vals[0], vals[1])
    raise ShapeError(f"unknown atom {atom!r}")


def postorder(*roots: Expression, done=(), prune=None):
    """Yield each distinct node under ``roots`` once, after its arguments,
    in the order a left-to-right recursive walk finishes them, without
    recursion.  A node whose id is in ``done`` (a caller's memo, read as
    the walk goes) is skipped with its subtree; a node for which
    ``prune(node)`` is true is yielded without visiting its arguments."""
    seen: set[int] = set()
    stack = [(e, False) for e in reversed(roots)]
    while stack:
        e, finished = stack.pop()
        if finished:
            yield e
        elif id(e) not in seen and id(e) not in done:
            seen.add(id(e))
            stack.append((e, True))
            if prune is None or not prune(e):
                stack.extend((a, False) for a in reversed(e.args))


def evaluate(expr: Expression, values: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate a tree given values for every variable and parameter leaf."""
    memo: dict[int, np.ndarray] = {}
    for e in postorder(expr):
        if e.is_leaf:
            if e.leaf.kind == CONSTANT:
                out = np.asarray(e.leaf.value, dtype=float)
            else:
                if e.leaf.name not in values:
                    raise DeclarationError(f"no value bound for leaf {e.leaf.name!r}")
                out = np.asarray(values[e.leaf.name], dtype=float)
                if tuple(out.shape) != e.shape.dims:
                    raise ShapeError(
                        f"value for {e.leaf.name!r} has shape {out.shape}, "
                        f"expected {e.shape.dims}"
                    )
        else:
            out = _eval_atom(e.atom, [memo[id(a)] for a in e.args], e.meta)
        memo[id(e)] = out
    return memo[id(expr)]
