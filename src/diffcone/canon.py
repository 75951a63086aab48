"""Lowering to affine form and compilation to cached sparse maps.

``lower`` expands every nonlinear atom into its graph implementation
(an epigraph variable plus cone constraints), leaving a problem whose
objective and constraint expressions are affine in variables and
parameters jointly.  ``build_asa`` then reduces those affine trees to a
sparse matrix (for the objective) and a sparse rank-3 tensor (for the
constraints), after which problem data for any parameter value is a pair
of sparse contractions -- no tree traversal.

Flattening is column-major throughout, for matrices into both the
parameter vector and the stacked variable vector.  Constraint rows are
ordered zero cone first, then the nonnegative orthant, then second-order
blocks in order of creation.  Cone variables are ordered by first
appearance in the lowered objective followed by the ordered constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .cones import ConeSpec
from .errors import CompileError, DeclarationError, ShapeError, SolverInputError
from .expressions import (
    PARAMETER,
    VARIABLE,
    Expression,
    Leaf,
    add,
    constant,
    evaluate,
    make_node,
    multiply,
    reshape,
    sub,
    variable,
    vstack,
)
from .problem import LE, Problem, check_dpp
from .tensor3 import SparseTensor3, psi_combine

__all__ = [
    "LayoutSlot",
    "LoweredConstraint",
    "LoweredProblem",
    "CanonContext",
    "AsaForm",
    "ConeProgramData",
    "lower",
    "leaf_tensor",
    "canon_tensor",
    "build_asa",
    "canonicalize",
    "materialize",
    "materialize_adjoint",
    "retrieve",
]

ZERO_KIND = "zero"
NONNEG_KIND = "nonneg"
SOC_KIND = "soc"


@dataclass(frozen=True)
class LayoutSlot:
    name: str
    dims: tuple[int, ...]
    offset: int
    size: int


@dataclass(frozen=True)
class LoweredConstraint:
    """An affine expression constrained to lie in a cone."""

    expr: Expression
    kind: str


@dataclass(frozen=True)
class LoweredProblem:
    problem: Problem
    objective: Expression
    constraints: tuple[LoweredConstraint, ...]
    aux_variables: tuple[Leaf, ...]


# ---------------------------------------------------------------------------
# Graph-implementation expansion

def _vec(e: Expression) -> Expression:
    if e.shape.rank == 1:
        return e
    return reshape(e, (e.shape.size,))


def lower(problem: Problem) -> LoweredProblem:
    """Expand nonlinear atoms into epigraph variables and cone constraints.

    Requires a problem that passed verification.  Constant subtrees are left
    in place; they fold to numbers during tensor extraction.
    """
    report = check_dpp(problem)
    if not report.valid:
        raise CompileError(f"problem is not compilable:\n{report}", report=report)

    taken = {v.name for v in problem.variables} | {p.name for p in problem.parameters}
    counter = [0]
    emitted: list[LoweredConstraint] = []
    aux: list[Leaf] = []
    memo: dict[int, Expression] = {}

    def fresh(dims) -> Expression:
        while True:
            counter[0] += 1
            name = f"_t{counter[0]}"
            if name not in taken:
                break
        v = variable(name, dims)
        aux.append(v.leaf)
        return v

    def transform(e: Expression) -> Expression:
        got = memo.get(id(e))
        if got is not None:
            return got
        if e.is_leaf or e.is_constant():
            memo[id(e)] = e
            return e
        args = [transform(a) for a in e.args]
        if e.atom == "norm2":
            t = fresh(())
            emitted.append(LoweredConstraint(vstack([t, _vec(args[0])]), SOC_KIND))
            out = t
        elif e.atom == "sum_squares":
            t = fresh(())
            block = vstack([add(constant(1.0), t),
                            sub(constant(1.0), t),
                            multiply(constant(2.0), _vec(args[0]))])
            emitted.append(LoweredConstraint(block, SOC_KIND))
            out = t
        elif e.atom == "abs":
            t = fresh(args[0].shape.dims)
            emitted.append(LoweredConstraint(sub(t, args[0]), NONNEG_KIND))
            emitted.append(LoweredConstraint(add(t, args[0]), NONNEG_KIND))
            out = t
        elif e.atom == "maximum":
            t = fresh(args[0].shape.dims)
            emitted.append(LoweredConstraint(sub(t, args[0]), NONNEG_KIND))
            emitted.append(LoweredConstraint(sub(t, args[1]), NONNEG_KIND))
            out = t
        else:
            out = make_node(e.atom, args, meta=e.meta)
        memo[id(e)] = out
        return out

    objective = transform(problem.objective)
    for c in problem.constraints:
        tl = transform(c.lhs)
        tr = transform(c.rhs)
        kind = NONNEG_KIND if c.relop == LE else ZERO_KIND
        emitted.append(LoweredConstraint(sub(tr, tl), kind))

    order = {ZERO_KIND: 0, NONNEG_KIND: 1, SOC_KIND: 2}
    ordered = sorted(enumerate(emitted), key=lambda t: (order[t[1].kind], t[0]))
    return LoweredProblem(
        problem=problem,
        objective=objective,
        constraints=tuple(c for _, c in ordered),
        aux_variables=tuple(aux),
    )


# ---------------------------------------------------------------------------
# Affine tree -> sparse tensor reduction

@dataclass(frozen=True)
class CanonContext:
    """Column/slice bookkeeping for the tensor reduction."""

    var_offsets: dict
    param_offsets: dict
    n_vars: int   # stacked cone-variable length N
    n_params: int  # parameter vector length p

    @property
    def n_cols(self) -> int:
        return self.n_vars + 1

    @property
    def n_slices(self) -> int:
        return self.n_params + 1

    @property
    def const_col(self) -> int:
        return self.n_vars

    @property
    def const_slice(self) -> int:
        return self.n_params


def leaf_tensor(leaf: Leaf, ctx: CanonContext) -> SparseTensor3:
    """Base-case tensor for a single leaf.

    Variables one-hot onto their columns in the constant slice, parameters
    one-hot onto their slices in the constant column, constants into the
    constant column and slice.
    """
    d = leaf.shape.size
    dims = (d, ctx.n_cols, ctx.n_slices)
    rng = np.arange(d, dtype=np.int64)
    if leaf.kind == VARIABLE:
        if leaf.name not in ctx.var_offsets:
            raise DeclarationError(f"variable {leaf.name!r} missing from layout")
        off = ctx.var_offsets[leaf.name]
        return SparseTensor3.from_entries(
            dims, rng, off + rng, np.full(d, ctx.const_slice), np.ones(d))
    if leaf.kind == PARAMETER:
        if leaf.name not in ctx.param_offsets:
            raise DeclarationError(f"parameter {leaf.name!r} missing from layout")
        off = ctx.param_offsets[leaf.name]
        return SparseTensor3.from_entries(
            dims, rng, np.full(d, ctx.const_col), off + rng, np.ones(d))
    flat = np.ravel(np.asarray(leaf.value, dtype=float), order="F")
    return SparseTensor3.from_entries(
        dims, rng, np.full(d, ctx.const_col), np.full(d, ctx.const_slice), flat)


def _map_tensor(L: sp.spmatrix, ctx: CanonContext) -> SparseTensor3:
    """Wrap a fixed linear map as a constant-slice tensor."""
    coo = sp.coo_matrix(L)
    return SparseTensor3.from_entries(
        (coo.shape[0], coo.shape[1], ctx.n_slices),
        coo.row, coo.col, np.full(coo.nnz, ctx.const_slice), coo.data)


def _fixed_linear_map(e: Expression) -> sp.spmatrix:
    """The flat (column-major) matrix of a fixed linear atom."""
    atom = e.atom
    in_shape = e.args[0].shape
    d_in = in_shape.size
    d_out = e.shape.size
    if atom == "neg":
        return -sp.identity(d_in, format="coo")
    if atom == "sum":
        return sp.coo_matrix(np.ones((1, d_in)))
    if atom == "reshape":
        return sp.identity(d_in, format="coo")
    if atom == "promote":
        return sp.coo_matrix(np.ones((d_out, 1)))
    if atom == "index":
        grid = np.arange(d_in, dtype=np.int64).reshape(in_shape.dims, order="F")
        key = tuple(slice(s, t, p) for (s, t, p) in e.meta)
        src = grid[key].ravel(order="F")
        m = sp.coo_matrix((np.ones(src.size), (np.arange(src.size), src)),
                          shape=(d_out, d_in))
        return m
    if atom == "transpose":
        if in_shape.rank < 2:
            return sp.identity(d_in, format="coo")
        grid = np.arange(d_in, dtype=np.int64).reshape(in_shape.dims, order="F")
        src = grid.T.ravel(order="F")
        return sp.coo_matrix((np.ones(d_in), (np.arange(d_in), src)),
                             shape=(d_out, d_in))
    raise ShapeError(f"atom {atom!r} has no fixed linear map")


def _stack_destinations(e: Expression) -> list[np.ndarray]:
    """Flat output index of each flat entry of every stacked argument."""
    if all(a.shape.rank <= 1 for a in e.args):
        offsets = np.cumsum([0] + [a.shape.size for a in e.args])
        return [np.arange(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
    out = []
    r_tot = e.shape.dims[0]
    off = 0
    for a in e.args:
        r_a, c_a = a.shape.dims
        rr = np.tile(np.arange(r_a), c_a)
        cc = np.repeat(np.arange(c_a), r_a)
        if e.atom == "vstack":
            out.append(off + rr + cc * r_tot)
            off += r_a
        else:
            out.append(rr + (off + cc) * r_tot)
            off += c_a
    return out


def _lift_product(e: Expression, data_tensor: SparseTensor3, data_side: int,
                  ctx: CanonContext) -> SparseTensor3:
    """Action tensor of a product node given the variable-free side's tensor.

    ``data_tensor`` must have entries only in the constant column; its flat
    index and slice pattern are rearranged into a (d_out x d_main x slices)
    tensor that left-composes with the other argument's tensor.
    """
    if data_tensor.nnz and not np.all(data_tensor.j == ctx.const_col):
        raise CompileError(
            "product data side has variable columns; verification should "
            "have rejected this tree")
    data = e.args[data_side]
    main = e.args[1 - data_side]
    idx, kk, vv = data_tensor.i, data_tensor.k, data_tensor.v
    d_out = e.shape.size
    d_main = main.shape.size
    dims = (d_out, d_main, ctx.n_slices)
    if e.atom == "mul_elem":
        return SparseTensor3.from_entries(dims, idx, idx, kk, vv)

    if data_side == 0:
        # out = mat(data) @ mat(main); effective shapes (a, b) @ (b, q)
        if data.shape.rank == 1:
            a, b = 1, data.shape.dims[0]
            r, t = np.zeros(idx.size, dtype=np.int64), idx
        else:
            a, b = data.shape.dims
            r, t = idx % a, idx // a
        q = main.shape.size // b
        c = np.tile(np.arange(q, dtype=np.int64), idx.size)
        rows = np.repeat(r, q) + c * a
        cols = np.repeat(t, q) + c * b
    else:
        # out = mat(main) @ mat(data); effective shapes (q, a) @ (a, b)
        if data.shape.rank == 1:
            a, b = data.shape.dims[0], 1
            t, c = idx, np.zeros(idx.size, dtype=np.int64)
        else:
            a, b = data.shape.dims
            t, c = idx % a, idx // a
        q = main.shape.size // a
        r = np.tile(np.arange(q, dtype=np.int64), idx.size)
        rows = r + np.repeat(c, q) * q
        cols = r + np.repeat(t, q) * q
    return SparseTensor3.from_entries(
        dims, rows, cols, np.repeat(kk, q), np.repeat(vv, q))


def canon_tensor(expr: Expression, ctx: CanonContext,
                 memo: dict | None = None) -> SparseTensor3:
    """Reduce an affine expression tree to its sparse tensor."""
    if memo is None:
        memo = {}
    got = memo.get(id(expr))
    if got is not None:
        return got

    if expr.is_constant():
        val = np.ravel(evaluate(expr, {}), order="F")
        d = expr.shape.size
        nz = np.flatnonzero(val)
        out = SparseTensor3.from_entries(
            (d, ctx.n_cols, ctx.n_slices),
            nz, np.full(nz.size, ctx.const_col),
            np.full(nz.size, ctx.const_slice), val[nz])
    elif expr.is_leaf:
        out = leaf_tensor(expr.leaf, ctx)
    elif expr.atom == "add":
        out = canon_tensor(expr.args[0], ctx, memo).add(
            canon_tensor(expr.args[1], ctx, memo))
    elif expr.atom in ("vstack", "hstack"):
        # The placement is injective, so the parts' entries move unchanged.
        parts = [canon_tensor(arg, ctx, memo) for arg in expr.args]
        dests = _stack_destinations(expr)
        out = SparseTensor3.from_entries(
            (expr.shape.size, ctx.n_cols, ctx.n_slices),
            np.concatenate([dest[t.i] for dest, t in zip(dests, parts)]),
            np.concatenate([t.j for t in parts]),
            np.concatenate([t.k for t in parts]),
            np.concatenate([t.v for t in parts]))
    elif expr.atom in ("neg", "sum", "index", "reshape", "transpose", "promote"):
        out = psi_combine(_map_tensor(_fixed_linear_map(expr), ctx),
                          canon_tensor(expr.args[0], ctx, memo))
    elif expr.atom in ("matmul", "mul_elem"):
        a, b = expr.args
        if a.variable_free:
            data_side = 0
        elif b.variable_free:
            data_side = 1
        else:
            raise CompileError(
                f"product {expr!r} has variables on both sides; verification "
                f"should have rejected this tree")
        data_tensor = canon_tensor(expr.args[data_side], ctx, memo)
        lifted = _lift_product(expr, data_tensor, data_side, ctx)
        out = psi_combine(lifted, canon_tensor(expr.args[1 - data_side], ctx, memo))
    else:
        raise CompileError(f"nonlinear atom {expr.atom!r} survived lowering")
    memo[id(expr)] = out
    return out


# ---------------------------------------------------------------------------
# Compiled form

@dataclass(frozen=True)
class ConeProgramData:
    """Problem data (A, b, c, K) for one parameter assignment."""

    A: sp.csr_matrix
    b: np.ndarray
    c: np.ndarray
    cones: ConeSpec

    def __post_init__(self):
        m, n = self.A.shape
        if self.b.shape != (m,) or self.c.shape != (n,):
            raise SolverInputError(
                f"inconsistent dims: A {self.A.shape}, b {self.b.shape}, "
                f"c {self.c.shape}")
        if self.cones.total_dim != m:
            raise SolverInputError(
                f"cone rows {self.cones.total_dim} != constraint rows {m}")
        if not (np.all(np.isfinite(self.A.data)) and np.all(np.isfinite(self.b))
                and np.all(np.isfinite(self.c))):
            raise SolverInputError("problem data contains NaN/Inf")


@dataclass(frozen=True)
class AsaForm:
    """Cached sparse canonicalizer maps plus layouts and the retrieval map.

    ``c_map @ theta_aug`` gives the cost vector, ``_b_map @ theta_aug`` gives
    b and ``_a_coeff @ theta_aug`` gives the entries of A on its fixed
    pattern ``(_a_rows, _a_cols)``; theta_aug is theta with a trailing 1.
    """

    c_map: sp.csr_matrix                # (N, p+1)
    cones: ConeSpec
    retrieval: sp.csr_matrix            # (total original var size, N)
    param_layout: tuple[LayoutSlot, ...]
    variable_layout: tuple[LayoutSlot, ...]
    cone_var_layout: tuple[LayoutSlot, ...]
    objective_offset_map: np.ndarray    # (p+1,)
    # Derived contraction caches: structural pattern of A plus per-entry and
    # per-row coefficient matrices over slices.
    _a_rows: np.ndarray
    _a_cols: np.ndarray
    _a_indptr: np.ndarray
    _a_coeff: sp.csr_matrix             # (nnz(A), p+1)
    _b_map: sp.csr_matrix               # (m, p+1)

    @cached_property
    def _adjoint_map(self) -> sp.csr_matrix:
        """The transposed map of ``materialize`` on theta: (p, nnz(A) + m +
        n), from (dA on A's pattern, db, dc) stacked to the gradient."""
        return sp.hstack([self._a_coeff.T, self._b_map.T, self.c_map.T],
                         format="csr")[:self.n_params]

    @property
    def n_cone_vars(self) -> int:
        return self.c_map.shape[0]

    @property
    def n_rows(self) -> int:
        return self._b_map.shape[0]

    @property
    def n_params(self) -> int:
        return self.c_map.shape[1] - 1

    def theta_aug(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.n_params:
            raise ShapeError(
                f"parameter vector has length {theta.size}, expected "
                f"{self.n_params}")
        if theta.size and not np.all(np.isfinite(theta)):
            raise SolverInputError("parameter vector contains NaN/Inf")
        return np.append(theta, 1.0)

    def flatten_params(self, values: dict) -> np.ndarray:
        theta = np.zeros(self.n_params)
        for slot in self.param_layout:
            if slot.name not in values:
                raise DeclarationError(f"no value bound for parameter {slot.name!r}")
            arr = np.asarray(values[slot.name], dtype=float)
            if arr.shape != slot.dims:
                raise ShapeError(
                    f"value for {slot.name!r} has shape {arr.shape}, "
                    f"expected {slot.dims}")
            theta[slot.offset:slot.offset + slot.size] = arr.ravel(order="F")
        return theta

    @cached_property
    def _param_runs(self) -> tuple[list, list]:
        """``param_layout`` for ``unflatten_params``, built once per layout:
        the slots' names in layout order, and the slots as runs of equal
        dims at equally spaced offsets.  A run is (names, offset, shape,
        strides) of the run's (k, *dims) view of a float theta, in bytes:
        from slot to slot, then in Fortran order within a slot."""
        groups: dict[tuple, list] = {}
        for slot in self.param_layout:
            groups.setdefault(slot.dims, []).append(slot)
        runs = []
        for dims, slots in groups.items():
            run = slots[:1]
            for slot in slots[1:]:
                if len(run) > 1 and (slot.offset - run[-1].offset
                                     != run[1].offset - run[0].offset):
                    runs.append(run)
                    run = []
                run.append(slot)
            runs.append(run)
        item = np.dtype(float).itemsize
        table = []
        for run in runs:
            dims = run[0].dims
            step = run[1].offset - run[0].offset if len(run) > 1 else 0
            table.append(([s.name for s in run], item * run[0].offset,
                          (len(run),) + dims, tuple(item * k for k in (
                              step, *np.cumprod((1,) + dims)[:-1].tolist()))))
        return [s.name for s in self.param_layout], table

    def unflatten_params(self, theta: np.ndarray) -> dict:
        """Each parameter's slice of ``theta`` in its shape, in Fortran
        order and keyed in layout order: a view of theta (of a contiguous
        float copy, when theta is strided or of another dtype), and a 0-d
        copy for a scalar.  A run of k slots of dims d (``_param_runs``) is
        one (k, *d) view of theta, whose rows are the slots' values."""
        theta = np.ascontiguousarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ShapeError(f"parameter vector has shape {theta.shape}, "
                             f"expected ({self.n_params},)")
        names, runs = self._param_runs
        out = dict.fromkeys(names)
        for run, offset, shape, strides in runs:
            block = np.ndarray(shape, float, theta, offset, strides)
            out.update(zip(run, block if len(shape) > 1
                           else map(np.asarray, block)))
        return out


def _collect_variable_order(lowered: LoweredProblem) -> list[Leaf]:
    seen: set[str] = set()
    order: list[Leaf] = []

    def walk(e: Expression):
        if e.is_leaf:
            if e.leaf.kind == VARIABLE and e.leaf.name not in seen:
                seen.add(e.leaf.name)
                order.append(e.leaf)
            return
        for a in e.args:
            walk(a)

    walk(lowered.objective)
    for c in lowered.constraints:
        walk(c.expr)
    for v in lowered.problem.variables:  # declared but unused variables
        if v.name not in seen:
            seen.add(v.name)
            order.append(v)
    return order


def _layout(leaves) -> tuple[tuple[LayoutSlot, ...], dict]:
    slots = []
    offsets = {}
    off = 0
    for leaf in leaves:
        slots.append(LayoutSlot(leaf.name, leaf.shape.dims, off, leaf.shape.size))
        offsets[leaf.name] = off
        off += leaf.shape.size
    return tuple(slots), offsets


def build_asa(lowered: LoweredProblem) -> AsaForm:
    """Reduce a lowered problem to its cached sparse maps."""
    var_order = _collect_variable_order(lowered)
    cone_var_layout, var_offsets = _layout(var_order)
    n_vars = sum(s.size for s in cone_var_layout)
    param_layout, param_offsets = _layout(lowered.problem.parameters)
    n_params = sum(s.size for s in param_layout)
    ctx = CanonContext(var_offsets, param_offsets, n_vars, n_params)
    memo: dict[int, SparseTensor3] = {}

    s_obj = canon_tensor(lowered.objective, ctx, memo)
    var_mask = s_obj.j < n_vars
    c_map = sp.csr_matrix(
        (s_obj.v[var_mask], (s_obj.j[var_mask], s_obj.k[var_mask])),
        shape=(n_vars, n_params + 1))
    offset_map = np.zeros(n_params + 1)
    np.add.at(offset_map, s_obj.k[~var_mask], s_obj.v[~var_mask])

    # Each list starts with an empty part, so a program without constraint
    # rows (m = 0) still concatenates.
    empty = np.zeros(0, dtype=np.int64)
    entries_i, entries_j, entries_k = [empty], [empty], [empty]
    entries_v = [np.zeros(0)]
    n_zero = n_nonneg = 0
    soc_dims: list[int] = []
    row = 0
    for con in lowered.constraints:
        s_e = canon_tensor(con.expr, ctx, memo)
        d = con.expr.shape.size
        sign = np.where(s_e.j < n_vars, -1.0, 1.0)
        entries_i.append(s_e.i + row)
        entries_j.append(s_e.j)
        entries_k.append(s_e.k)
        entries_v.append(s_e.v * sign)
        if con.kind == ZERO_KIND:
            n_zero += d
        elif con.kind == NONNEG_KIND:
            n_nonneg += d
        else:
            soc_dims.append(d)
        row += d
    m = row
    cones = ConeSpec(n_zero, n_nonneg, tuple(soc_dims))

    # Constraints own disjoint rows and each tensor is canonical, so the
    # concatenated entries hold no duplicates and no zeros.
    ab_i, ab_j, ab_k, ab_v = (np.concatenate(e) for e in
                              (entries_i, entries_j, entries_k, entries_v))

    # Structural pattern of A (union over slices), row-major order.
    a_mask = ab_j < n_vars
    flat = ab_i[a_mask] * np.int64(n_vars) + ab_j[a_mask]
    struct, inverse = np.unique(flat, return_inverse=True)
    a_rows = struct // max(n_vars, 1)
    a_cols = struct % max(n_vars, 1)
    a_indptr = np.searchsorted(a_rows, np.arange(m + 1))
    a_coeff = sp.csr_matrix(
        (ab_v[a_mask], (inverse, ab_k[a_mask])),
        shape=(struct.size, n_params + 1))
    b_mask = ~a_mask
    b_map = sp.csr_matrix(
        (ab_v[b_mask], (ab_i[b_mask], ab_k[b_mask])),
        shape=(m, n_params + 1))

    variable_layout, _ = _layout(lowered.problem.variables)
    total = sum(s.size for s in variable_layout)
    r_rows, r_cols = [], []
    for slot in variable_layout:
        r_rows.append(slot.offset + np.arange(slot.size))
        r_cols.append(var_offsets[slot.name] + np.arange(slot.size))
    retrieval = sp.csr_matrix(
        (np.ones(total), (np.concatenate(r_rows) if r_rows else np.zeros(0),
                          np.concatenate(r_cols) if r_cols else np.zeros(0))),
        shape=(total, n_vars))

    return AsaForm(
        c_map=c_map, cones=cones, retrieval=retrieval,
        param_layout=param_layout, variable_layout=variable_layout,
        cone_var_layout=cone_var_layout, objective_offset_map=offset_map,
        _a_rows=a_rows, _a_cols=a_cols, _a_indptr=a_indptr,
        _a_coeff=a_coeff, _b_map=b_map)


def canonicalize(problem: Problem) -> AsaForm:
    return build_asa(lower(problem))


# ---------------------------------------------------------------------------
# Materialization and its adjoint

def materialize(asa: AsaForm, theta) -> ConeProgramData:
    """Problem data for one parameter vector via sparse contractions only."""
    ta = asa.theta_aug(theta)
    a_data = asa._a_coeff @ ta
    A = sp.csr_matrix((a_data, asa._a_cols.copy(), asa._a_indptr),
                      shape=(asa.n_rows, asa.n_cone_vars))
    b = asa._b_map @ ta
    c = asa.c_map @ ta
    return ConeProgramData(A=A, b=np.asarray(b).ravel(),
                           c=np.asarray(c).ravel(), cones=asa.cones)


def _da_values(asa: AsaForm, dA) -> np.ndarray:
    if sp.issparse(dA):
        dA = dA.tocsr()
        dA.sort_indices()
        if dA.shape != (asa.n_rows, asa.n_cone_vars):
            raise ShapeError(f"dA has shape {dA.shape}")
        same = (dA.indptr.size == asa._a_indptr.size
                and np.array_equal(dA.indptr, asa._a_indptr)
                and np.array_equal(dA.indices, asa._a_cols))
        if same:
            return dA.data
        dense = dA.toarray()
    else:
        dense = np.asarray(dA, dtype=float)
        if dense.shape == asa._a_rows.shape:  # values on A's pattern
            return dense
        if dense.shape != (asa.n_rows, asa.n_cone_vars):
            raise ShapeError(f"dA has shape {dense.shape}")
    return dense[asa._a_rows, asa._a_cols]


def materialize_adjoint(asa: AsaForm, dA, db, dc) -> np.ndarray:
    """Adjoint of ``materialize``: cotangents on (A, b, c) back to theta.

    dA is an (m, n) matrix, sparse or dense, or the vector of its values
    on A's stored pattern (``_a_rows``, ``_a_cols``).  dA, db and dc may
    also be lists of B cotangents each: a (B, p) stack of gradients comes
    back, row j equal to ``materialize_adjoint(asa, dA[j], db[j], dc[j])``.
    Either way it is one product with ``_adjoint_map``.
    """
    if isinstance(dA, list):
        if not len(db) == len(dc) == len(dA):
            raise ShapeError(f"{len(dA)} dA given with {len(db)} db and "
                             f"{len(dc)} dc")
        stack = np.array([_cotangent_row(asa, *parts)
                          for parts in zip(dA, db, dc)]).reshape(
            len(dA), asa._adjoint_map.shape[1])
        return np.ascontiguousarray((asa._adjoint_map @ stack.T).T)
    return asa._adjoint_map @ _cotangent_row(asa, dA, db, dc)


def _cotangent_row(asa: AsaForm, dA, db, dc) -> np.ndarray:
    """(dA on A's pattern, db, dc) as one checked vector."""
    vals = _da_values(asa, dA)
    db = np.asarray(db, dtype=float).ravel()
    dc = np.asarray(dc, dtype=float).ravel()
    if db.shape != (asa.n_rows,):
        raise ShapeError(f"db has shape {db.shape}, expected ({asa.n_rows},)")
    if dc.shape != (asa.n_cone_vars,):
        raise ShapeError(f"dc has shape {dc.shape}, expected ({asa.n_cone_vars},)")
    return np.concatenate([vals, db, dc])


def retrieve(asa: AsaForm, x_tilde) -> dict:
    """Slice the cone-program primal back to named original variables."""
    x_tilde = np.asarray(x_tilde, dtype=float).ravel()
    if x_tilde.size != asa.n_cone_vars:
        raise ShapeError(
            f"solution has length {x_tilde.size}, expected {asa.n_cone_vars}")
    flat = asa.retrieval @ x_tilde
    out = {}
    for slot in asa.variable_layout:
        part = flat[slot.offset:slot.offset + slot.size]
        out[slot.name] = part.reshape(slot.dims, order="F") if slot.dims \
            else np.asarray(part[0])
    return out
