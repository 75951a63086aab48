"""Embedded conic solver for problems minimize c'x s.t. b - Ax in K.

The algorithm is operator splitting on the homogeneous self-dual embedding:
each iteration solves (I + Q) u~ = u + v and projects onto R^n x K* x R_+.
The loop keeps one state w per program instead of (u, v) (``_iterate``):
an iteration is p = Pi(w), r = 2p - w = u + v and w <- w + alpha ((I +
Q)^{-1} r - p), and u = p, v = p - w are formed only at the check
iterations.  The first step is seeded from (u0, v0) as p = u0, r = u0 +
v0 and w = u0 - v0, unprojected, since a warm start need not be a Moreau
pair.  With h = (c, b) and Q = [[0, A', c], [-A, 0, b], [-c', -b', 0]],

    I + Q = [[K, h], [-h', 1]],    K = [[I, A'], [-A, I]],

so the system can be solved with K alone (SCS's two-solve identity, which
the ``"reduced"`` and ``"superlu"`` K solves below use): for r = (w_xi,
w_tau),

    tau = (w_tau + h' K^{-1} w_xi) / (1 + h' K^{-1} h),
    xi  = K^{-1} w_xi - tau K^{-1} h,

where h' K^{-1} h = |K^{-1} h|^2 (K = I + skew), so the denominator is at
least 1.  K^{-1} h costs one solve per call.  After Ruiz scaling, A and
hence K depend on A alone, so ``IterationFactor`` (the scaling D, E and
what solves K, below) is built once per layer when A does not depend on the
parameters, and once per call otherwise, for the whole minibatch at once;
b, c and h are scaled per call.

A's sparsity pattern is fixed per layer, and so is the index work built on
it (``Pattern``): one Ruiz pass scales a whole (B, nnz) stack of A's
entries, with row and column maxima from ``np.maximum.reduceat`` over the
entries in CSR and in CSC order.  K is solved in one of three ways
(``IterationFactor.kind``, reported as ``info["iteration_system"]``):

- ``"dense"``: up to order ``K_DENSE_ORDER``, K^{-1} is a dense (B, k, k)
  stack from one ``np.linalg.inv``, shared as one (1, k, k) inverse when
  A is fixed.  Each call builds from it every program's (I + Q)^{-1}, by
  the block inverse of [[K, h], [-h', 1]] at O(B N^2), and each
  iteration's linear step is one stacked matmul with those, with no tau
  row.
- ``"reduced"``: above it, when A has at most ``REDUCED_ORDER`` columns,
  the y block is eliminated (SCS's reduced system): K [x; y] = [r_x; r_y]
  is x = S^{-1} (r_x - A' r_y), y = r_y + A x with S = I + A'A of order
  n, whose inverse is a dense (B, n, n) stack from each S's Cholesky
  factor, held and read in one triangle; the products with A and A' are
  sparse.  A dense (I + Q)^{-1} of such an order would cost far more per
  iteration than S^{-1} of order n, so this and the next K solve keep the
  two-solve identity.
- ``"superlu"``: otherwise K is factored by SuperLU.  K's pattern is
  symmetric, and every Schur complement of I + skew has symmetric part >=
  I, so diagonal pivots are safe: K is factored with a symmetric
  minimum-degree ordering of K' + K and no pivoting.  SuperLU's default
  COLAMD orders for K'K; on the benchmark's sparse QP (n + m = 1795) its
  factors of I + Q held 6.6x the nonzeros.

On the ``"reduced"`` and ``"superlu"`` K solves the loop is Anderson
accelerated (``_Anderson``, type II, memory ``ANDERSON_MEMORY``): it
treats an iteration as the fixed-point map g(w) = w + alpha (lin(2 Pi(w)
- w) - Pi(w)) and steps to the combination of its last plain points g
whose steps f = g(w) - w best cancel, from each program's differences of
f and g and their Gram matrix, by one regularised solve of order
``ANDERSON_MEMORY`` per program.  Two guards keep it safe.  A point whose
next step is longer than the step before is rejected: the program goes
back to its plain point and runs the iteration again from there.  A
point shorter than half its g, or whose tau entry falls below half of
g's, is replaced by g: w = 0 and the tau = 0 face are fixed points of the
embedding where no check finds a solution.  Either empties the program's
history.  Where the accelerated iterates converge only linearly, the
error they stop at varies with the data far faster than the plain
splitting's, so an accelerated solve that meets the tolerance after an
interval in which its residuals fell less than ``SETTLE_DROP``-fold runs
on, up to ``SETTLE_INTERVALS`` more intervals; a check on the way that
does not meet the tolerance ends it at its best point.  Soc-sum ends at 50
iterations instead of 175 and sparse-qp at 225 instead of 375.  The
``"dense"`` K solve, whose iterations cost 50-90 us of numpy calls on the
fixture layers, is not accelerated: its programs (N up to ``DENSE_ORDER``
on the fixture layers) take the dense polish at the first check, which
ends nearly all of them at 25 iterations, and Anderson's own work per
iteration (~60 us for 8 rows) would cost more than it saves there.  Each
program's products and solve are its own calls and the history's head
advances alike for all, so batches stay bit for bit their lone solves.

That order depends on A's pattern alone, so the ``Pattern`` keeps it, and
the lifted M system of a program above ``DENSE_ORDER`` is factored under
it, extended by a fixed rule, with no ordering pass of its own; a pattern
whose K is not factored by SuperLU computes it, once, when a lifted factor
first needs it.

Because splitting iterations gain accuracy slowly, the candidate solutions
of a program up to ``DENSE_ORDER`` (a bound on N) are periodically
polished by damped Gauss-Newton steps on the normalized residual map

    N(z) = ((Q - I) Pi + I)(z / |w|),

whose root encodes an exact primal-dual solution; on well-behaved problems
this reaches residuals near machine precision in a few steps.  The
Jacobian of the residual map is M = (Q - I) DPi(z) + I, and the steps
are the exact least-squares steps of least norm for the normalized
Jacobian J = M (I - z e_N'), with one line search.  One polish runs over
every column whose polish is due in a check round (``_dense_refine``).
M is a dense (k, N, N) stack (``_dense_m``, which ``MFactor``'s dense
backend shares), and the steps are one stacked ``np.linalg.qr`` of M's
first N - 1 columns and one stacked inverse of its triangular factors,
and at a degenerate point, where those columns are numerically
rank-deficient, one stacked ``np.linalg.pinv`` of J
(``_dense_gauss_newton_steps``).  The line search is stacked too, and
every polished candidate is checked in one ``_Batch.evaluate``.  It
ended 618 of the 640 minibatches of perfbench's seed-3 fixture-train run
at 25 iterations, where the splitting alone ran 100-200 in the median
minibatch; on a 2-vCPU x86 host (OpenBLAS on one thread) the median
forward took x0.67.  A polish stops stepping a program once a step
lowers its residual norm by less than a thousandth: the norm is then
stationary at a point that is no root, where each further step costs as
much as the first and wins nothing.  The stalled polishes measured took
three or four steps with the stop and four to ten without it, running on
to ``REFINE_STEPS`` or to a step no halving improves.

Above ``DENSE_ORDER`` the splitting alone ends a solve: no polish is ever
due.  A polish there, LSQR Gauss-Newton steps on SuperLU's lifted factor
of M, was deleted: no benchmark binding reached one, and on 16 sparse
QPs of N 260-2052 (``sparse_qp_data``, n 64-512, seeds 0-3) it ran on 2
at tolerance 1e-8 and on 6 at 1e-10, and the 16 solves took 0.35 and
0.52 s with it against 0.22 and 0.27 s without (2-vCPU x86, OpenBLAS on
one thread); every solve ended optimal either way.  ``MFactor`` serves the
derivatives module, up to ``DENSE_ORDER`` as a dense matrix with its
inverse, a batch's as one (B, N, N) stack with one ``np.linalg.inv``
call, and above it through SuperLU's factor of a sparse lifted matrix.

A polish falls due on a doubling schedule: at the first check whose
iterate misses the tolerance from ``CHECK_INTERVAL`` on; then from twice
the iteration of the last polish on, but never later than the first
check from ``REFINE_CAP`` on; and always at ``max_iters``, so the
polishes' total cost stays logarithmic in the iteration count.  A column
whose polish fails keeps iterating, and a program whose early polishes
stall (at a point where the residual norm is stationary but not zero) is
still polished at ``REFINE_CAP``.  Statuses for infeasible and unbounded
problems come from certificate residuals on the embedding iterates.

``solve`` takes one program or a batch of programs of one cone and one
pattern of A, and a single program is the batch of one: there is one
iteration loop (``_iterate``), over the (B, N) stack of the B programs'
states w.  Their linear steps are one stacked matmul of (N, N) by (N, 1)
products with the programs' (I + Q)^{-1}, or K solves: one symmetric
product (``dsymv``) per row with one triangle of its S^{-1} between two
block-diagonal sparse products, or SuperLU solves, one
multi-right-hand-side solve for programs that share a factor (a layer
whose A does not depend on the parameters) and row by row for the
others.  The cone projection walks the stacked rows once.  Every
other operation is elementwise or row by row, with each row's dot
products the BLAS dots of a lone solve, so each program's arithmetic is
the same whatever the batch.  The programs' data, their scaling of b and
c and their checks are (B, .) stacks too (``_Batch``): a check round
evaluates the residuals, tolerances, ratios and certificates of every
active program at once, with one product each with block-diagonal
matrices of the programs' A and A', which sum each row in the order of
its lone product.  Each program then decides alone (``_Column``): it
keeps its best point, runs on or falls due for a polish, which one
``_Batch.polish`` runs for every due program of the round, takes its
status, and leaves the loop at the iteration its lone solve would end.
The dense polish's stacked LAPACK calls (QR, inverse, pseudo-inverse)
factor each matrix alone, so batch results equal lone solves bit for
bit wherever SuperLU's multi-right-hand-side solve equals its
column-by-column solves, as it does on small systems; on large ones its
supernodal kernels may sum in another order.
"""

from __future__ import annotations

import copy
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .canon import ConeProgramData
from .cones import (
    RUN_MIN_BLOCKS,
    dproject_embedding,
    dproject_embedding_parts,
    project_embedding,
)
from .errors import ShapeError, SolverInputError, SolveStatusError

__all__ = [
    "SolverSettings",
    "ConeSolution",
    "MFactor",
    "IterationFactor",
    "Pattern",
    "solve",
    "normalized_point",
    "residuals",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_ITERS = "max_iters"


# Fixed parts of the splitting: its over-relaxation, the iterations
# between two checks of convergence and certificates, and the Gauss-Newton
# steps a polish takes at most.  Ruiz scaling is always on.
OVER_RELAX = 1.5
CHECK_INTERVAL = 25
REFINE_STEPS = 10
# The polishes' doubling from CHECK_INTERVAL never steps over the first
# check from this iteration on (25, 50, 100, 200, 250, 500, ...): a polish
# that stalls at 25-200 is tried again here, where perfbench's fixture
# binding (68: 4, 845) and gen_random_dpp seeds 13, 30 and 199 end, and
# the doubling from 200 would have run them to 275-400.
REFINE_CAP = 250
# Differences kept by the Anderson acceleration of the "reduced" and
# "superlu" K solves' splitting (``_Anderson``); 0 switches it off.  On a
# 2-vCPU x86 host (OpenBLAS on one thread) a whole forward took, against
# the plain splitting (medians of in-process paired ratios, perfbench's
# seed-1 bindings), x0.77, x0.75 and x0.62 on soc-sum (75, 75 and 50
# iterations instead of 175) and x1.10, x1.23 and x1.03 on sparse-qp (250,
# 262 and 225 instead of 375) with memories 5, 7 and 10: there the
# acceleration's own work per iteration, about 80 us beside a plain
# iteration's 100, costs what the fewer iterations save.
ANDERSON_MEMORY = 10
# An accelerated state shorter than its program's first plain point over
# this is scaled up by it, with its history (``_Anderson``): the map g is
# positively homogeneous and a power of two scales exactly, so only the
# iterates' scale changes, which the checks' absolute thresholds
# (tau > 1e-9, b'y < -1e-12) would otherwise meet.
RESCALE = 2.0 ** 10
# An accelerated solve whose iterate meets the tolerance at a check, but
# whose ratio of residual to tolerance fell less than SETTLE_DROP-fold over
# the last check interval, runs on, up to SETTLE_INTERVALS more intervals
# (``_Column._runs_another_interval``).  Where the acceleration converges
# only linearly, as on sparse-qp (about tenfold per interval), the error
# of the iterate it stops at varies with the data far faster than the
# plain splitting's: the derivative of the computed solution map missed
# its limit by about 3000 times the iterate's error after 175 accelerated
# iterations, against 25 times for the plain splitting, and perfbench's
# central-difference check of the first sparse-qp binding read up to
# 5e-4 over seeds 21-300 (the plain splitting's: at most 6e-6).  Each
# interval run on cuts that about tenfold; after one the check still read
# 1.2e-4 at seed 167, after two at most 2e-5 (225 iterations instead of
# 375).  Where it converges fast, as on soc-sum, whose ratio falls a
# hundredfold or more in its last interval, it ends at once.  Running the
# plain splitting from the first such interval instead (50 accelerated
# iterations, then 250-325 plain ones) left the check at up to 3.0e-4
# over seeds 1-100: the plain iterations damp the error of the
# accelerated start only slowly.
SETTLE_DROP = 100.0
SETTLE_INTERVALS = 2


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SolverSettings:
    """What a caller sets of a solve: the iteration limit, the absolute
    and relative tolerances, and whether the candidate points of a
    program up to ``DENSE_ORDER`` are polished (``refine``), from the
    first check (``CHECK_INTERVAL``) on; a larger program is never
    polished."""

    max_iters: int = 100_000
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    refine: bool = True

    def __post_init__(self):
        if not (_is_int(self.max_iters) and self.max_iters >= 1):
            raise ShapeError(f"max_iters must be an integer >= 1, got "
                             f"{self.max_iters!r}")
        if not isinstance(self.refine, (bool, np.bool_)):
            raise ShapeError(f"refine must be a bool, got {self.refine!r}")
        for name in ("eps_abs", "eps_rel"):
            eps = getattr(self, name)
            if not (isinstance(eps, numbers.Real) and math.isfinite(eps)
                    and eps > 0):
                raise ShapeError(f"{name} must be finite and positive, got "
                                 f"{eps!r}")


@dataclass(frozen=True)
class ConeSolution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str
    info: dict = field(default_factory=dict)


def _block_row_scales(scales: np.ndarray, spec) -> np.ndarray:
    """Make the second-order-cone rows of each row of a (B, m) stack share
    one scale; cone membership of a scaled slack requires a uniform
    positive factor per block."""
    out = scales.copy()
    for start, stop, k, d in spec.soc_runs:
        block = out[:, start:stop].reshape(len(out), k, d)
        block[...] = block.max(axis=2, keepdims=True)
    return out


class Pattern:
    """A's sparsity pattern (CSR) in the cone ``spec``, and the index work
    built on it: each entry's row, the entries in CSC order, the starts of
    the rows and columns that hold an entry, and, when first needed, the
    entries' places in a dense K or S = I + A'A and K's elimination order,
    and which K solve it takes (``k_solve``).  A layer fixes A's pattern,
    so it builds one and keeps it.
    """

    def __init__(self, A: sp.spmatrix, spec):
        A = A.tocsr()
        self.shape = m, n = A.shape
        self.spec, self.nnz = spec, A.nnz
        self.indptr, self.indices = A.indptr, A.indices
        counts = np.diff(A.indptr).astype(np.int64)
        self.rows = np.repeat(np.arange(m), counts)
        # the pairs of entries that share a row (``s_places``), counted in
        # 64 bits: a long-rowed A's count overflows scipy's int32 indptr
        self.pairs = int(counts @ counts)
        # reduceat gives an empty segment its start entry, not an empty
        # max, so only the rows and columns that hold an entry take part
        self._full_rows = counts > 0
        self._row_starts = A.indptr[:-1][self._full_rows]
        self._csc = np.argsort(A.indices, kind="stable")
        col_counts = np.bincount(A.indices, minlength=n)
        self._full_cols = col_counts > 0
        self._col_starts = (np.cumsum(col_counts)
                            - col_counts)[self._full_cols]
        self._t_indptr = np.concatenate([[0], np.cumsum(col_counts)])
        self._order = None
        self._blocks = {}  # the index arrays of ``blocks``, per B

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with entries ``data`` on this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def k_solve(self) -> str:
        """The K solve of ``IterationFactor`` on this pattern: ``"dense"``
        up to order ``K_DENSE_ORDER``, else ``"reduced"`` when A has at
        most ``REDUCED_ORDER`` columns and its pairs of entries in a row
        outnumber neither n^2 nor 8 nnz, else ``"superlu"``."""
        m, n = self.shape
        if m + n <= K_DENSE_ORDER:
            return "dense"
        if n <= REDUCED_ORDER and self.pairs <= max(n * n, 8 * self.nnz):
            return "reduced"
        return "superlu"

    def elimination_order(self) -> np.ndarray:
        """K's elimination order (``_factor_k``), which depends on the
        pattern alone: the first SuperLU factor of K on the pattern keeps
        it, else the first call computes it."""
        if self._order is None:
            self._order = _factor_k(self.matrix(np.ones(self.nnz)))[1]
        return self._order

    @cached_property
    def k_places(self) -> np.ndarray:
        """Flat places in a dense K = [[I, A'], [-A, I]], in C order, of
        its diagonal, of A's entries and of their negatives."""
        m, n = self.shape
        k = m + n
        return np.concatenate([np.arange(k) * (k + 1),
                               self.indices * k + n + self.rows,
                               (n + self.rows) * k + self.indices])

    @cached_property
    def s_places(self):
        """S = I + A'A on this pattern as index work: row i of A adds a_p
        a_q at (col_p, col_q) for every pair (p, q) of its entries, both
        orders and each entry with itself.  (first, second, places): each
        pair's entries, and the flat places in a dense S, in C order, of
        its diagonal and then of the pairs."""
        n = self.shape[1]
        counts = np.diff(self.indptr)[self.rows]  # each entry's row length
        ends = np.cumsum(counts)
        first = np.repeat(np.arange(self.nnz), counts)
        second = np.repeat(self.indptr[self.rows] - ends + counts,
                           counts) + np.arange(self.pairs)
        return first, second, np.concatenate([
            np.arange(n) * (n + 1),
            self.indices[first] * n + self.indices[second]])

    def block(self, data: np.ndarray) -> sp.csr_matrix:
        """A_r of each row of the (B, nnz) stack ``data`` of entries on
        this pattern, as the blocks of one block-diagonal CSR matrix; a
        product with it multiplies every block by its own slice, each row
        summed in the order of the block's lone product.  Its index arrays
        depend on B alone: the pattern keeps them per B, read-only, and
        each call copies the matrix with its own entries."""
        A = copy.copy(self._block_patterns(len(data))[0])
        A.data = np.ravel(data)
        return A

    def blocks(self, data: np.ndarray):
        """``block(data)`` and the block-diagonal CSR matrix of the A_r',
        whose product sums each row in the order of the CSC product of a
        lone A_r'."""
        At = copy.copy(self._block_patterns(len(data))[1])
        At.data = data[:, self._csc].ravel()
        return self.block(data), At

    def _block_patterns(self, count: int):
        """The block-diagonal CSR patterns of A and A' for B = ``count``,
        with read-only index arrays, built once per B."""
        if count not in self._blocks:
            m, n = self.shape
            shift = np.arange(count)[:, None]

            def stack(indptr, indices, shape):
                rows, cols = shape
                block = sp.csr_matrix(
                    (np.zeros(count * self.nnz),
                     (indices + shift * cols).ravel(),
                     np.append((indptr[:-1] + shift * self.nnz).ravel(),
                               count * self.nnz)),
                    shape=(count * rows, count * cols))
                block.indices.flags.writeable = False
                block.indptr.flags.writeable = False
                return block

            self._blocks[count] = (
                stack(self.indptr, self.indices, (m, n)),
                stack(self._t_indptr, self.rows[self._csc], (n, m)))
        return self._blocks[count]


def _ruiz(pattern: Pattern, a_data: np.ndarray, passes: int = 10):
    """Ruiz equilibration of a batch: the entries on ``pattern`` of A_hat_j
    = D_j A_j E_j, with the row and column scales (d_j, e_j) that bring
    A_j's row and column max-norms near one, for the entries of A_j in row
    j of the (B, nnz) stack ``a_data``; (B, nnz), (B, m) and (B, n) stacks.

    Every pass takes the row maxima of all B programs with one
    ``np.maximum.reduceat`` over the entries in CSR order, and the column
    maxima with one over the CSC order.  Maxima are exact, so each row of
    the result does not depend on the batch.
    """
    count = len(a_data)
    m, n = pattern.shape
    rows, cols = pattern.rows, pattern.indices
    d = np.ones((count, m))
    e = np.ones((count, n))
    row_max = np.zeros((count, m))
    col_max = np.zeros((count, n))
    absdata = np.abs(a_data)
    for _ in range(passes):
        scaled = absdata * d[:, rows] * e[:, cols]
        if pattern.nnz:
            row_max[:, pattern._full_rows] = np.maximum.reduceat(
                scaled, pattern._row_starts, axis=1)
            col_max[:, pattern._full_cols] = np.maximum.reduceat(
                scaled[:, pattern._csc], pattern._col_starts, axis=1)
        block_max = _block_row_scales(row_max, pattern.spec)
        d /= np.sqrt(np.where(block_max > 0, block_max, 1.0))
        e /= np.sqrt(np.where(col_max > 0, col_max, 1.0))
    return a_data * d[:, rows] * e[:, cols], d, e


def _factor_k(A: sp.spmatrix):
    """The LU of K = [[I, A'], [-A, I]] under a symmetric minimum-degree
    ordering of K' + K with no pivoting, and that order: K's rows in the
    order they are eliminated.  The order is a copy, since ``perm_c`` is a
    view that keeps the whole factor alive."""
    m, n = A.shape
    coo = A.tocoo()
    diag = np.arange(n + m)
    K = sp.csc_matrix(
        (np.concatenate([coo.data, -coo.data, np.ones(n + m)]),
         (np.concatenate([coo.col, n + coo.row, diag]),
          np.concatenate([n + coo.row, coo.col, diag]))),
        shape=(n + m, n + m))
    lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    return lu, np.argsort(lu.perm_c)


# K = [[I, A'], [-A, I]] of order n + m up to this is inverted densely,
# larger ones are reduced or factored by SuperLU (below).  On a 2-vCPU x86
# host (OpenBLAS on one thread) a whole forward took, dense against
# SuperLU: on sums of norms (A depends on theta, 175 iterations)
# 0.82-0.92x alone at orders 103-183, and 0.65-0.84x for minibatches of 8
# at 103-163 but 1.25x at 183; on sparse QPs whose A is fixed (50-75
# iterations) 0.87-0.92x alone at 87-171, and for minibatches of 8, which
# share one inverse, 0.98-1.01x at 87-115, 1.03x at 129, 1.06x at 143 and
# 1.13x at 171.
K_DENSE_ORDER = 150
# Above K_DENSE_ORDER, K is solved through a dense inverse of S = I + A'A,
# of order n, when A has at most this many columns; other K are factored by
# SuperLU.  On a 2-vCPU x86 host (OpenBLAS on one thread) a whole forward
# took, reduced against SuperLU, with S^{-1} applied by a general product
# of the whole matrix (np.matmul): on sparse QPs whose A is fixed (inverse
# built once, 225-250 iterations) 0.83x alone at n 258, 0.78x at 386,
# 0.74x at 514, 0.80x at 642, 0.89x at 770 and 0.87x at 898, and for
# minibatches of 8 sharing one inverse 0.74x at 258, 0.93x at 386 and
# 0.92x at 642; on sums of norms (A depends on theta, inverse built every
# forward from the Cholesky factor, 175 iterations) 0.82x alone at n 203,
# 0.87x at 353, 0.94x at 403 and 1.09x at 453 (0.88x, 1.09x, 1.24x and
# 1.27x with np.linalg.inv in its place), and for minibatches of 8,
# measured with np.linalg.inv, 0.57x at 153, 0.67x at 253 and 0.80x at
# 353.  With the symmetric product of one triangle (dsymv), which reads
# half the matrix, two rounds on the same host gave, alone: fixed-A QPs
# (no polish, 375, 500 and 250 iterations) 0.34-0.43x at n 513, 0.39-0.48x
# at 769 and 0.75-0.76x at 897, against 0.54-0.63x, 0.55-0.60x and
# 0.83-0.87x with the general product measured alongside; sums of norms
# 0.68-0.73x at 403, 0.70-0.85x at 453 (general product 0.83-0.90x and
# 0.91-0.96x), 0.87-0.92x at 553 and 0.90-1.00x at 653.  So a factor built
# every call (A depends on theta) now keeps up with SuperLU to about 650
# columns, close to this limit, and a kept one gains throughout.  With
# the Anderson-accelerated splitting (50-75 iterations instead of 175)
# the per-call inverse weighs more: sums of norms took 0.91x SuperLU's at
# n 353 and 453, 0.92-1.01x at 553, 0.97x at 603 and 0.96-1.21x at 653
# (two rounds), so a factor built every call now keeps up only to about
# 550-650 columns; the limit stays, since no workload has such an A.  The
# inverse stack, inverted in place of the scattered S stack, holds B n^2
# doubles for a minibatch of B programs whose A depends on theta: 1 MB per
# program at n 350, 3.9 MB at 700, against SuperLU factors that are small
# on a sparse A; nothing bounds B.
REDUCED_ORDER = 700


def _spd_inverses(S: np.ndarray) -> np.ndarray:
    """The inverses of a (B, n, n) stack of symmetric positive definite
    matrices, in place, one at a time, in one triangle: LAPACK's Cholesky
    factor and its inverse (``dpotrf``, ``dpotri``) overwrite the lower
    triangle of each C-ordered matrix, diagonal included, and leave the
    matrix's own entries in the strict upper one.  Each matrix's C-ordered
    storage is its transpose, the same matrix, in Fortran order, so LAPACK
    works on it without a copy, and the triangle it fills is that
    transpose's upper one, which ``dsymv`` reads by default.  Raises
    ``SolverInputError`` where LAPACK reports a failure."""
    for j, s in enumerate(S):
        chol, info = sla.lapack.dpotrf(s.T, overwrite_a=1, clean=0)
        if info == 0:
            info = sla.lapack.dpotri(chol, overwrite_c=1)[1]
        if info != 0:
            raise SolverInputError(
                f"S = I + A'A of program {j} is not positive definite "
                f"(LAPACK info {info})")
    return S


class IterationFactor:
    """The part of the iteration system that depends on A alone, for a
    batch of B programs on one pattern of A: each program's Ruiz scaling
    A_hat_j = D_j A_j E_j and what solves its K_j = [[I, A_hat_j'],
    [-A_hat_j, I]].

    The programs' entries on A's pattern are the rows of ``a_data``, a
    (B, nnz) stack, or A's own entries, the batch of one; ``pattern`` is
    A's ``Pattern`` when the caller keeps one.  ``data``, ``d`` and ``e``
    hold the scaled entries and the scales as (B, .) stacks, one Ruiz pass
    for the whole batch.  ``kind`` names the K solve, one of three:

    - ``"dense"``, up to order ``K_DENSE_ORDER``: ``inverse`` is the
      dense (B, k, k) stack of the K_j^{-1}, from one ``np.linalg.inv`` of
      the scattered stack of the K_j (K is not symmetric); each call's
      ``_IterationSystem`` builds every program's (I + Q)^{-1} from it.
    - ``"reduced"``, above it, when A has at most ``REDUCED_ORDER``
      columns: ``inverse`` is the dense (B, n, n) stack of the S_j^{-1},
      S_j = I + A_hat_j' A_hat_j, from one ``np.bincount`` of the pairs of
      entries in a row (``Pattern.s_places``) and each S_j's Cholesky
      factor (``_spd_inverses``).  Only the lower triangle of each
      C-ordered S_j^{-1}, diagonal included, holds it; the strict upper
      triangle holds S_j, and nothing reads it.
      K_j [x; y] = [r_x; r_y] is then x = S_j^{-1} (r_x - A_hat_j' r_y)
      and y = r_y + A_hat_j x.  S_j needs no conditioning guard: after
      Ruiz scaling every entry of A_hat_j is at most 1 in magnitude (the last pass divides it by the square roots
      of its row's and its column's maxima, each at least the entry), so
      |A_hat_j|_F^2 <= nnz and S_j's eigenvalues lie in [1, 1 + nnz].  A
      pattern whose pairs outnumber both n^2 and 8 nnz (long rows, a
      dense A) takes SuperLU instead, so the pair table never holds much
      more than S or A's entries.
    - ``"superlu"``, otherwise: ``lus`` holds each K_j's SuperLU factor
      under a symmetric minimum-degree ordering (``_factor_k``), and the
      pattern keeps the factors' elimination ``order``, which ``MFactor``
      extends to the lifted M system of a program above ``DENSE_ORDER``.

    ``inverse`` and ``lus`` are None where they do not apply.  ``seconds``
    holds the batch's build time of the scaling (``equilibrate``) and of
    the inverse or the LUs (``factorize``).
    """

    def __init__(self, A: sp.spmatrix, spec, a_data: np.ndarray | None = None,
                 pattern: Pattern | None = None):
        start = time.perf_counter()
        if pattern is None:
            pattern = Pattern(A, spec)
        if a_data is None:
            a_data = A.tocsr().data[None]
        self.pattern, self.count = pattern, len(a_data)
        m, n = pattern.shape
        self.data, self.d, self.e = _ruiz(pattern, a_data)
        scaled = time.perf_counter()
        self.kind = pattern.k_solve()
        self.inverse = self.lus = None
        if self.kind == "dense":
            # the K_j side by side, duplicate entries of A summed
            self.inverse = np.linalg.inv(self._scattered(
                pattern.k_places, m + n, [self.data, -self.data]))
        elif self.kind == "reduced":
            first, second, places = pattern.s_places
            self.inverse = _spd_inverses(self._scattered(places, n, [
                self.data[:, first] * self.data[:, second]]))
        else:
            factors = [_factor_k(self.scaled(j)) for j in range(self.count)]
            self.lus = [lu for lu, _ in factors]
            if pattern._order is None:
                pattern._order = factors[0][1]
        self.seconds = {"equilibrate": scaled - start,
                        "factorize": time.perf_counter() - scaled}

    def _scattered(self, places: np.ndarray, size: int, parts: list):
        """The batch's (size, size) matrices I + the entries ``parts``
        (each a (B, .) stack) at ``places``, which list the diagonal's
        first, as one (B, size, size) stack: one ``np.bincount`` of the
        whole batch, duplicates summed in the order of its batch of one."""
        count = self.count
        places = np.arange(count)[:, None] * (size * size) + places
        vals = np.concatenate([np.ones((count, size)), *parts], axis=1)
        return np.bincount(places.ravel(), vals.ravel(),
                           count * size * size).reshape(count, size, size)

    def scaled(self, j: int) -> sp.csr_matrix:
        """Program j's scaled matrix A_hat_j."""
        return self.pattern.matrix(self.data[j])


def _row_dots(X: np.ndarray, Y: np.ndarray):
    """``x @ y`` of two vectors, or of each pair of rows of two stacks: a
    stacked matmul of contiguous rows calls that BLAS dot row by row, so
    a row's value does not depend on the other rows."""
    if X.ndim == 1:
        return X @ Y
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


class _IterationSystem:
    """The iteration map of a batch: row w_r of W -> (I + Q_r)^{-1} w_r,
    written into row r of ``out``, for the program of row ``index[r]`` of
    the ``IterationFactor`` ``factor`` (row 0 for all, when the factor has
    one program) with scaled h_r = (c_r, b_r), row r of H.

    With a dense inverse of K, each row keeps its T_r = (I + Q_r)^{-1},
    the (B, N, N) stack ``T``, built from K^{-1} by the block inverse of
    I + Q = [[K, h], [-h', 1]]: with g = K^{-1} h, f' = h' K^{-1} and s =
    1 + h'g,

        T = [[K^{-1} - g f'/s, -g/s], [f'/s, 1/s]],

    so every row's map is one product of the stacked matmul, an (N, N) by
    (N, 1) product per row, and a row's value does not depend on the
    other rows.  The other K solves keep SCS's two-solve identity (module
    docstring): with dense inverses of S = I + A_hat'A_hat the K solve is
    one symmetric product per row (BLAS ``dsymv``, which reads the one
    triangle of S^{-1} that ``_spd_inverses`` fills, half the memory of
    the whole matrix) between two sparse products, one each with
    block-diagonal matrices of the rows' A_hat and A_hat'
    (``Pattern.blocks``); rows that share one program's S^{-1} each make
    their own call, so a row's value is its lone solve's.  With SuperLU
    factors, the rows of a factor of one program are solved by one
    multi-right-hand-side solve, and those of a factor of every program
    one row at a time, each with its own factor.  The tau row and the products are row-wise (``_row_dots``).  A
    single program's W, out and H may be vectors, which costs the least.

    ``kept`` is what ``subset`` keeps of its rows: T, or K^{-1} h."""

    def __init__(self, factor: IterationFactor, index: np.ndarray,
                 H: np.ndarray, kept: np.ndarray | None = None):
        self.factor, self.index, self.H = factor, index, H
        if factor.kind == "dense":
            # each row's inverse, or the one shared inverse, broadcast
            self.T = kept if kept is not None else _bordered_inverses(
                factor.inverse if factor.count == 1
                else factor.inverse[index], H)
            return
        if factor.kind == "reduced":
            # each row's S^{-1} as its Fortran-ordered transpose, a view
            # that BLAS reads without a copy
            self._inverses = [factor.inverse[j].T for j in index]
            self._a, self._at = factor.pattern.blocks(factor.data[index])
        self.KH = self._solve(H) if kept is None else kept
        self.denom = 1.0 + _row_dots(self.KH, self.KH)

    def _solve(self, R: np.ndarray) -> np.ndarray:
        """K_r^{-1} r_r for every row r_r of R."""
        if self.factor.kind == "reduced":
            n = self.factor.pattern.shape[1]
            r_x, r_y = R[..., :n], R[..., n:]
            rhs = r_x - (self._at @ r_y.ravel()).reshape(r_x.shape)
            rows = rhs.reshape(-1, n)
            x = np.empty(rows.shape)
            for r, inverse in enumerate(self._inverses):
                x[r] = sla.blas.dsymv(1.0, inverse, rows[r])
            x = x.reshape(r_x.shape)
            return np.concatenate(
                [x, r_y + (self._a @ x.ravel()).reshape(r_y.shape)], axis=-1)
        lus = self.factor.lus
        if self.factor.count == 1:
            return lus[0].solve(R.T).T
        out = np.empty(R.shape)
        for r, j in enumerate(self.index):
            out[r] = lus[j].solve(R[r])
        return out

    def __call__(self, W: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.factor.kind == "dense":
            N = W.shape[-1]
            np.matmul(self.T, W.reshape(-1, N, 1), out=out.reshape(-1, N, 1))
            return out
        # transposed, a stack and a vector index alike: a stack's rows
        # scale by their tau, and a vector's tau is a scalar
        kw = self._solve(W.T[:-1].T)
        tau = (W.T[-1] + _row_dots(self.H, kw)) / self.denom
        xi = out.T[:-1]
        np.multiply(self.KH.T, tau, out=xi)
        np.subtract(kw.T, xi, out=xi)
        out.T[-1] = tau
        return out

    def subset(self, keep: np.ndarray) -> "_IterationSystem":
        """The system of the rows where ``keep`` is True; their T, or their
        K^{-1} h, are sliced, not built again."""
        kept = self.T if self.factor.kind == "dense" else self.KH
        return _IterationSystem(self.factor, self.index[keep], self.H[keep],
                                kept[keep])


def _bordered_inverses(inverse: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The (B, N, N) stack of T_r = [[K_r, h_r], [-h_r', 1]]^{-1}, for the
    (B, k, k) stack of K_r^{-1} (or one (1, k, k) inverse, broadcast) and
    the rows h_r of H (a vector for a single program), by the block
    inverse (``_IterationSystem``).  Every product is one row's, so each
    T_r does not depend on the other rows."""
    H = H.reshape(-1, H.shape[-1])
    count, k = H.shape
    g = np.matmul(inverse, H[:, :, None])[:, :, 0]
    f = np.matmul(H[:, None, :], inverse)[:, 0, :]
    s = 1.0 + _row_dots(H, g)
    f /= s[:, None]
    T = np.empty((count, k + 1, k + 1))
    np.subtract(inverse, g[:, :, None] * f[:, None, :], out=T[:, :k, :k])
    np.divide(g, -s[:, None], out=T[:, :k, k])
    T[:, k, :k] = f
    T[:, k, k] = 1.0 / s
    return T


def _batch_matrices(datas: list) -> list:
    """The programs' A (CSR); raises ``ShapeError`` unless every program
    has the first one's cone and pattern of A.  The patterns of all the
    others are compared with the first's in one vectorized check."""
    As = [d.A.tocsr() for d in datas]
    A = As[0]
    rest = As[1:]
    if rest and not (
            all(d.cones == datas[0].cones for d in datas[1:])
            and all(a.shape == A.shape and a.indices.size == A.indices.size
                    for a in rest)
            and (np.array([a.indptr for a in rest]) == A.indptr).all()
            and (np.array([a.indices for a in rest]) == A.indices).all()):
        raise ShapeError("the programs of a batch must share their cone "
                         "and A's pattern")
    return As


def _stacked(datas: list):
    """The programs' shared pattern of A (CSR), and their A entries on it,
    b and c as (B, .) stacks; raises ``ShapeError`` unless every program
    has the first one's cone and pattern of A (``_batch_matrices``)."""
    As = _batch_matrices(datas)
    return (As[0], np.array([a.data for a in As], dtype=float).reshape(
        len(As), As[0].nnz), np.array([d.b for d in datas], dtype=float),
        np.array([d.c for d in datas], dtype=float))


def _skew_entries(A, a_data, b, c):
    """(elems, rows, cols, vals) of Q = [[0, A', c], [-A, 0, b], [-c', -b',
    0]] of each program of a batch: the entry's program, and its place and
    value in that program's Q.  The programs share A's pattern ``A`` (CSR);
    their entries on it, their b and their c are the rows of ``a_data``,
    ``b`` and ``c``.

    Q = U - U' for the strict upper triangle U = [[0, A', c], [0, 0, b],
    [0, 0, 0]], taken from A's stored entries and the nonzeros of b and c.
    Each program's entries come in the order of its batch of one.
    """
    m, n = A.shape
    count = len(a_data)
    ec, ic = np.nonzero(c)
    eb, ib = np.nonzero(b)
    elems = np.concatenate([np.repeat(np.arange(count), A.nnz), ec, eb])
    a_rows = np.repeat(np.arange(m), np.diff(A.indptr))
    rows = np.concatenate([np.broadcast_to(A.indices, a_data.shape).ravel(),
                           ic, n + ib])
    cols = np.concatenate([n + np.broadcast_to(a_rows, a_data.shape).ravel(),
                           np.full(ic.size + ib.size, n + m)])
    vals = np.concatenate([a_data.ravel(), c[ec, ic], b[eb, ib]])
    return (np.concatenate([elems, elems]), np.concatenate([rows, cols]),
            np.concatenate([cols, rows]), np.concatenate([vals, -vals]))


def skew_matrix(data: ConeProgramData) -> sp.csc_matrix:
    """Q (see ``_skew_entries``) in one sparse constructor call."""
    _, rows, cols, vals = _skew_entries(*_stacked([data]))
    N = sum(data.A.shape) + 1
    return sp.csc_matrix((vals, (rows, cols)), shape=(N, N))


def _norms(X: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a stack, as ``np.linalg.norm`` takes it
    of the row alone: sqrt(x @ x), the dot by ``_row_dots``."""
    return np.sqrt(_row_dots(X, X))


def _larger(a, b):
    """Python's ``max(a, b)`` elementwise: b where b > a, else a, NaN
    included."""
    return np.where(b > a, b, a)


def _kkt_residuals(A, At, b, c, X, Y, S):
    """Primal, dual and gap residual norms of the primal-dual point of
    each row of the (k, .) stacks X, Y and S, and its c'x and b'y, as (k,)
    arrays; b and c are the rows' b and c, and A and At a block-diagonal
    matrix of the rows' A (``Pattern.block``) and its transpose, or, for
    one row, A and A' themselves.  A product sums each row in the order of its
    block's lone product, so a row's residuals do not depend on the
    others."""
    pri = _norms((A @ X.ravel()).reshape(S.shape) + S - b)
    dua = _norms((At @ Y.ravel()).reshape(X.shape) + c)
    ctx, bty = _row_dots(c, X), _row_dots(b, Y)
    return pri, dua, np.abs(ctx + bty), ctx, bty


def residuals(data: ConeProgramData, sol: ConeSolution) -> tuple[float, float, float]:
    """Primal, dual, and gap residual norms of a primal-dual point; an x, y
    or s whose length is not A's column or row count raises ``ShapeError``."""
    m, n = data.A.shape
    x, y, s = (np.asarray(v, dtype=float) for v in (sol.x, sol.y, sol.s))
    for name, v, size in zip("xys", (x, y, s), (n, m, m)):
        if v.shape != (size,):
            raise ShapeError(f"{name} has shape {v.shape}, expected ({size},)")
    return tuple(float(r[0]) for r in _kkt_residuals(
        data.A, data.A.T, data.b[None], data.c[None], x[None], y[None],
        s[None])[:3])


def _splu_lifted(S: sp.csc_matrix):
    """splu of a lifted M system already permuted into its elimination
    order, with diagonal pivots preferred."""
    return spla.splu(S, permc_spec="NATURAL", diag_pivot_thresh=0.01,
                     options=dict(SymmetricMode=True))


def _lifted_places(order, urow, ucol, N, blocks):
    """Position of each row of the lifted matrix (see ``MFactor``) in its
    elimination order: the rows of K keep K's ``order``, the two lift rows
    of a boundary block go right after the last of the block's rows, and
    tau and the zhat edge go last.  Putting every lift row last instead
    raised the fill of a sum of 200 norms tenfold."""
    nk = N - 1
    pos = np.empty(nk, dtype=np.int64)
    pos[order] = np.arange(nk)
    last = np.full(blocks, -1)
    np.maximum.at(last, ucol // 2, pos[urow])
    key = np.concatenate([2 * pos, [2 * nk], 2 * np.repeat(last, 2) + 1,
                          [2 * nk + 1]])
    places = np.empty(key.size, dtype=np.int64)
    places[np.argsort(key, kind="stable")] = np.arange(key.size)
    return places


# M + zhat zhat' is held dense, with its inverse, when N = n + m + 1 is up
# to this, and SuperLU factors its lifted matrix when N is larger; every
# program of a batch shares N, so a batch never mixes the two.  On a
# 2-vCPU x86 host (OpenBLAS on one thread), assembly, factor and one solve
# took, in ms, dense against SuperLU (two rounds; lifted order in
# brackets), alone and per program in a batch of 8: on sums of norms
# 0.18 vs 0.48-0.49 and 0.05 vs 0.24-0.25 at N 24 (31), 0.27 vs 0.50-0.54
# and 0.13 vs 0.30-0.33 at 54 (75), 0.40-0.53 vs 0.54-0.58 and 0.29-0.35
# vs 0.33-0.34 at 79 (110), 0.57 vs 0.60-0.64 and 0.51-0.55 vs 0.37-0.38
# at 104 (145), 0.86-0.89 vs 0.60-0.63 and 0.83-0.85 vs 0.40-0.41 at 129
# (180), 1.27-1.31 vs 0.65-0.68 and 1.28-1.30 vs 0.44 at 154 (215), 2.31
# vs 0.74-0.78 and 2.4-3.0 vs 0.59-0.66 at 204 (285); on sparse QPs,
# alone, 0.29-0.30 vs 0.51-0.52 at N 52 (55), 0.42-0.44 vs 0.52-0.53 at 84
# (87), 0.79-0.85 vs 0.56-0.59 at 116 (119) and 1.18-1.60 vs 0.66-0.75 at
# 148 (151).  The fixture layers (N 14-21) are far below, soc-sum and
# sparse-qp (N 1004, 1796) far above.
DENSE_ORDER = 90
# A dense M + zhat zhat' whose exact 1-norm reciprocal condition number
# 1 / (|M|_1 |M^{-1}|_1), from its inverse, is below this counts as
# singular, as an exactly singular one does.  Over 1,040 backwards of the
# benchmark's minibatch layers (seeds 1 and 33) it was at least 1.1e-3
# except on 47 nonneg_least_squares systems, at 2.7e-23 to 7.2e-19, whose
# direct solves of a random right-hand side all missed the residual
# check.  It replaced a gate on LAPACK's estimate for the LU factor of the
# lifted matrix, which let 8 of 11 such solutions pass that check, 4 of
# them with gradients that missed the central difference by 1.6e-4 to
# 1.5e-2 (LSQR's: within 3e-7).
RCOND_MIN = 1e-12


def _nonzero(*entries):
    """COO entries (rows, cols, vals) less those whose value is exactly
    zero."""
    keep = entries[-1] != 0
    return entries if keep.all() else tuple(a[keep] for a in entries)


def _points(zs, count: int, N: int) -> np.ndarray:
    """The points of ``count`` programs of order N as a (count, N) float
    stack; raises ``ShapeError`` for a malformed one and
    ``SolverInputError`` for a non-finite or zero one, at which M is not
    defined."""
    try:
        Z = np.array(zs, dtype=float)
    except (TypeError, ValueError):
        raise ShapeError("the points are not numeric arrays") from None
    if Z.shape != (count, N):
        raise ShapeError(f"points of shape {Z.shape} given, expected "
                         f"{(count, N)}")
    if not np.isfinite(Z).all():
        raise SolverInputError("a point contains NaN/Inf")
    if not Z.any(axis=1).all():
        raise SolverInputError("a point is zero")
    return Z


class _Dense:
    """M + zhat zhat' of a batch of programs of one cone and one pattern of
    A, program j at row j of the (B, N) stack Z, as one dense (B, N, N)
    stack ``M``; ``inverse``, their inverses from one ``np.linalg.inv``
    call; and ``ok``, whether each inverse exists and the matrix's exact
    1-norm reciprocal condition number 1 / (|M|_1 |M^{-1}|_1) is at least
    ``RCOND_MIN``.

    M = (Q - I) DPi(z) + I is formed by ``_dense_m``, which the dense
    polish (``_dense_refine``) shares.  Every step is row by row or one
    program's product, so each program's M and inverse are its batch of
    one's, bit for bit.  ``np.linalg.inv`` raises for the whole stack
    when a matrix is exactly singular; the stack is then inverted matrix
    by matrix, and a singular one is not ``ok``.
    """

    def __init__(self, datas: list, Z: np.ndarray):
        A, a_data, b, c = _stacked(datas)
        self.N, self.Z = Z.shape[1], Z
        self.zhat = _unit_rows(Z)
        M = _dense_m(_skew_minus_identity(A, a_data, b, c), Z,
                     datas[0].cones, A.shape[1])
        M += self.zhat[:, :, None] * self.zhat[:, None, :]
        self.M = M
        try:
            self.inverse = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            self.inverse = np.full(M.shape, np.nan)
            for X, out in zip(M, self.inverse):
                try:
                    out[...] = np.linalg.inv(X)
                except np.linalg.LinAlgError:  # X is exactly singular
                    pass
        # a NaN inverse gives a NaN condition, which is not ok
        self.ok = 1.0 / (_norm_1(M) * _norm_1(self.inverse)) >= RCOND_MIN


def _skew_minus_identity(A, a_data, b, c) -> np.ndarray:
    """Q - I of each program of a batch (``_skew_entries``; A is the
    shared pattern, a CSR matrix or a ``Pattern``), dense, as one (B, N,
    N) stack scattered by one ``np.bincount``, each program's duplicates
    summed in the order of its batch of one."""
    count, N = len(a_data), sum(A.shape) + 1
    e, rows, cols, vals = _skew_entries(A, a_data, b, c)
    # float also when Q has no entries, where bincount counts in ints
    QI = np.bincount((e * N + rows) * N + cols, vals, count * N * N
                     ).astype(float, copy=False).reshape(count, N, N)
    diag = np.arange(N)
    QI[:, diag, diag] = -1.0
    return QI


def _dense_m(QI: np.ndarray, Z: np.ndarray, spec, n: int) -> np.ndarray:
    """M = (Q - I) DPi(z) + I at each row z of the (B, N) stack Z, as a
    (B, N, N) stack: one stacked matmul of the programs' Q - I, the stack
    QI (``_skew_minus_identity``), with the dense DPi(z)
    (``_projection_jacobians``)."""
    M = np.matmul(QI, _projection_jacobians(Z, spec, n))
    diag = np.arange(Z.shape[1])
    M[:, diag, diag] += 1.0
    return M


def _projection_jacobians(Z: np.ndarray, spec, n: int) -> np.ndarray:
    """DPi(z) of each row z of the (B, N) stack Z, dense, as a (B, N, N)
    stack.  DPi(z) is diagonal but on the second-order blocks, each a
    dense block of its own, so the derivative along direction j, the j-th
    unit vector of every block at once (and, for j = 0, ones on the other
    rows), holds column j of every block and, for j = 0, the diagonal.
    One ``dproject_embedding`` takes every program's directions, at least
    ``cones.RUN_MIN_BLOCKS`` of them, so that the walk takes each run with
    its run kernel however many programs the stack holds."""
    count, N = Z.shape
    first, size = np.arange(N), np.ones(N, dtype=np.int64)
    for start, stop, _, d in spec.soc_runs:
        rows = np.arange(n + start, n + stop)
        first[rows] -= (rows - n - start) % d
        size[rows] = d
    ways = max(int(size.max()), RUN_MIN_BLOCKS)
    directions = np.zeros((ways, N))
    directions[np.arange(N) - first, np.arange(N)] = 1.0
    along = dproject_embedding(
        np.repeat(Z, ways, axis=0), np.tile(directions, (count, 1)), spec,
        n).reshape(count, ways, N)
    # row r's entries lie in its block's columns first[r] + j, j < size[r]
    rows = np.repeat(np.arange(N), size)
    way = np.arange(rows.size) - np.repeat(np.cumsum(size) - size, size)
    J = np.zeros((count, N, N))
    J[:, rows, first[rows] + way] = along[:, way, rows]
    return J


def _norm_1(X: np.ndarray) -> np.ndarray:
    """The 1-norm of each matrix of a (B, N, N) stack: its largest column
    sum of absolute values."""
    return np.abs(X).sum(axis=1).max(axis=1)


def _unit_rows(Z: np.ndarray) -> np.ndarray:
    """Each row z of the (B, N) stack Z over |z|, np.linalg.norm's
    sqrt(z @ z)."""
    return Z / np.sqrt(_row_dots(Z, Z))[:, None]


def _lifted(data: ConeProgramData, z: np.ndarray, zhat: np.ndarray,
            order: np.ndarray):
    """The lifted matrix L (see ``MFactor``) of the program ``data`` at z,
    in CSC form, assembled already permuted under K's elimination
    ``order``; and each row's place in L (``_lifted_places``)."""
    A, a_data, b, c = _stacked([data])
    _, qrow, qcol, qval = _skew_entries(A, a_data, b, c)
    a_data, b = a_data[0], b[0]
    N, n = z.size, A.shape[1]
    D, (urow, ucol, uval), C = dproject_embedding_parts(z, data.cones, n)
    edge = N + 2 * len(C)
    # (Q - I) U: U's rows are second-order rows n + i, whose columns of Q
    # hold row i of A above -b_i
    i = urow - n
    starts, counts = A.indptr[i], np.diff(A.indptr)[i]
    ends = np.cumsum(counts)
    gather = np.repeat(starts - ends + counts, counts) + np.arange(
        ends[-1] if ends.size else 0)
    # C U': U's entry (j, c) meets both rows of c's 2 x 2 block of C
    block = N + ucol - ucol % 2
    diag = np.arange(N)
    lift = np.arange(N, edge)
    # D's zeros leave exact zeros in (Q - I) D, in every column where D =
    # 0, and on the diagonal 1 - D where D = 1.  They are left out, since
    # SuperLU would keep them as structure and fill around them.
    rows, cols, vals = (np.concatenate(a) for a in zip(
        _nonzero(qrow, qcol, qval * D[qcol]),
        _nonzero(diag, diag, 1.0 - D),
        (A.indices[gather], N + np.repeat(ucol, counts),
         a_data[gather] * np.repeat(uval, counts)),
        (np.full(i.size, N - 1), N + ucol, -b[i] * uval),
        (urow, N + ucol, -uval),
        ((block[:, None] + [0, 1]).ravel(), np.repeat(urow, 2),
         (uval[:, None] * C[ucol // 2, :, ucol % 2]).ravel()),
        (lift, lift, np.full(lift.size, -1.0)),
        (diag, np.full(N, edge), zhat),
        (np.full(N, edge), diag, zhat),
        ([edge], [edge], [-1.0])))
    places = _lifted_places(order, urow, ucol, N, len(C))
    return sp.csc_matrix((vals, (places[rows], places[cols])),
                         shape=(edge + 1, edge + 1)), places


def _checked_points(datas: list, zs, pattern) -> np.ndarray:
    """The points ``zs`` of the programs ``datas`` as a (B, N) stack
    (``_points``).  Raises ``ShapeError`` unless every program is a
    ``ConeProgramData`` and ``pattern`` is None or a ``Pattern`` of the
    first one's shape of A, and ``SolverInputError`` for a non-finite or
    zero point."""
    for d in datas:
        if not isinstance(d, ConeProgramData):
            raise ShapeError(f"an M system needs a ConeProgramData, got "
                             f"{type(d).__name__}")
    shape = datas[0].A.shape
    if pattern is not None and not (isinstance(pattern, Pattern)
                                    and pattern.shape == shape):
        raise ShapeError(f"the pattern must be a Pattern of A's shape "
                         f"{shape}")
    return _points(zs, len(datas), sum(shape) + 1)


def _products(factors: list, X: np.ndarray, transpose: bool = False,
              inverse: bool = False) -> np.ndarray:
    """Row j is ``factors[j].apply(X[j], transpose)``, or, with
    ``inverse``, ``factors[j].solve(X[j], transpose)``.  The dense
    factors' rows are one stacked matmul, which makes each row its own
    matrix's product, so a row's value does not depend on the others."""
    out = np.empty(X.shape)
    dense = [j for j, f in enumerate(factors) if f._M is not None]
    if dense:
        mats = np.array([factors[j]._inverse if inverse else factors[j]._M
                         for j in dense])
        Y = X[dense]
        out[dense] = (np.matmul(Y[:, None, :], mats)[:, 0, :] if transpose
                      else np.matmul(mats, Y[:, :, None])[:, :, 0])
    for j, f in enumerate(factors):
        if f._M is None:
            out[j] = (f.solve if inverse else f.apply)(X[j], transpose)
    return out


class MFactor:
    """M + zhat zhat' at z, zhat = z / |z|, for the program ``data``, and
    its exact factor; M = (Q - I) DPi(z) + I is the Jacobian of the
    residual map u -> Q Pi(u) - Pi(u) + u at z, which the derivatives
    (``derivatives``) solve with.  ``batch`` builds the factors of many
    programs of one cone and one pattern of A.  Which of two backends
    holds it depends on N alone, which every program of a batch shares.

    Up to ``DENSE_ORDER`` it is held dense with its inverse (``_Dense``),
    one (B, N, N) stack and one ``np.linalg.inv`` call per batch; ``solve``
    and ``apply`` are products with them, ``order`` is N and ``nnz`` N**2,
    and ``ok`` is False when the matrix is exactly singular or its exact
    1-norm reciprocal condition number is below ``RCOND_MIN``.
    ``_products`` runs a list of factors on the rows of a stack, the dense
    ones in one stacked product.

    Above it, SuperLU factors each program's lifted matrix (``_lifted``)

        L = [[(Q - I) D + I, (Q - I) U, zhat],
             [C U',          -I,        0   ],
             [zhat',          0,       -1   ]],

    with DPi(z) = diag(D) + U C U' (``cones.dproject_embedding_parts``),
    which has M + zhat zhat' as the Schur complement of its trailing -I,
    so a solve of L, or of L', gives one with M + zhat zhat', or its
    transpose.  L's entries are index arithmetic on those of A, b, c and
    U: (Q - I) D scales Q's entries by D at their column, and (Q - I) U
    gathers rows of A, with no sparse product.  L is factored with no
    ordering pass: it is assembled already permuted, row i at
    ``places[i]``, under the elimination order of K = [[I, A'], [-A, I]],
    which depends on A's pattern alone: ``Pattern.elimination_order`` of
    ``pattern``, A's ``Pattern`` when the caller keeps one (a layer does,
    so the order is computed once per layer), else one built for the
    call; see ``_lifted_places``.  ``order`` is L's order, N plus 2 per
    boundary block plus 1, and ``nnz`` the factor's stored entries, 0 when
    SuperLU found an exactly zero pivot, which leaves ``ok`` False.  The
    SuperLU factor keeps no condition guard: reading U's diagonal out of
    SuperLU caches CSC copies of L and U on the factor.

    Callers fall back to least squares on ``apply`` when ``ok`` is False.
    A ``data`` that is not a ``ConeProgramData``, a ``pattern`` that is
    not a ``Pattern`` of A's shape, or a point of the wrong length, raises
    ``ShapeError``; a non-finite or zero point raises ``SolverInputError``.
    """

    def __init__(self, data: ConeProgramData, z: np.ndarray,
                 pattern: Pattern | None = None,
                 dense: _Dense | None = None, index: int = 0):
        """``dense``, when given, is the ``_Dense`` stack of a batch whose
        program ``index`` is (data, z); ``batch`` passes it."""
        if dense is None:
            Z = _checked_points([data], [z], pattern)
            if Z.shape[1] <= DENSE_ORDER:
                dense = _Dense([data], Z)
        self._M = self._inverse = None
        if dense is not None:
            N = self.size = self.order = dense.N
            self.z, self.zhat = dense.Z[index], dense.zhat[index]
            self.nnz, self.ok = N * N, bool(dense.ok[index])
            self._M, self._inverse = dense.M[index], dense.inverse[index]
            return
        N = self.size = Z.shape[1]
        self.z, self.zhat = Z[0], _unit_rows(Z)[0]
        if pattern is None:
            pattern = Pattern(data.A, data.cones)
        self._L, places = _lifted(data, self.z, self.zhat,
                                  pattern.elimination_order())
        self.order = self._L.shape[0]
        # where the rows of M + zhat zhat' and the lift rows sit in L
        self._head, self._tail = places[:N], places[N:]
        try:
            self._lu = _splu_lifted(self._L)
        except RuntimeError:  # the factor is exactly singular
            self._lu = None
        self.ok = self._lu is not None
        self.nnz = self._lu.nnz if self.ok else 0

    @classmethod
    def batch(cls, datas: list, zs, pattern: Pattern | None = None
              ) -> list["MFactor"]:
        """``MFactor(data, z, pattern)`` of every program of ``datas`` (of
        one cone and one pattern of A, else ``ShapeError``) at its point in
        ``zs``: on the dense backend from one stack and one inverse call,
        on SuperLU each factored alone under the one elimination order of
        ``pattern``, or of a ``Pattern`` built once for the batch.  Each
        factor is its lone one's, bit for bit."""
        try:
            datas = list(datas)
        except TypeError:
            raise ShapeError(f"MFactor.batch takes a list of programs, got "
                             f"{type(datas).__name__}") from None
        if not datas:
            return []
        Z = _checked_points(datas, zs, pattern)
        dense = None
        if Z.shape[1] <= DENSE_ORDER:
            dense = _Dense(datas, Z)
        else:
            _batch_matrices(datas)
            if pattern is None:
                pattern = Pattern(datas[0].A, datas[0].cones)
        return [cls(data, z, pattern, dense, j)
                for j, (data, z) in enumerate(zip(datas, Z))]

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """g with (M + zhat zhat') g = rhs, or its transpose; needs ``ok``."""
        if self._inverse is not None:
            return rhs @ self._inverse if transpose else self._inverse @ rhs
        b = np.zeros(self.order)
        b[self._head] = rhs
        return self._lu.solve(b, "T" if transpose else "N")[self._head]

    def apply(self, u: np.ndarray, transpose: bool = False) -> np.ndarray:
        """(M + zhat zhat') u, or its transpose; on SuperLU as L11 u + L12
        (L21 u)."""
        if self._M is not None:
            return u @ self._M if transpose else self._M @ u
        head, tail = self._head, self._tail
        L = self._L.T if transpose else self._L
        x = np.zeros(self.order)
        x[head] = u
        y = L @ x
        x[head] = 0.0
        x[tail] = y[tail]
        return y[head] + (L @ x)[head]


def _dense_gauss_newton_steps(M: np.ndarray, Z: np.ndarray,
                               R: np.ndarray) -> np.ndarray:
    """The Gauss-Newton step of each row z of the (k, N) stack Z, whose
    last entry is 1, for the residual of the same row of R, where M is
    the (k, N, N) stack of M at the points (``_dense_m``): the
    least-squares solution of least norm of J dz = r, with J = M (I - z
    e_N') the Jacobian of the normalized residual map z -> N(z / |w|) at
    a point with w = 1, the step LSQR converges to from zero.

    J's range is that of M's first N - 1 columns, so where those have
    full rank, by one stacked ``np.linalg.qr`` and an exact 1-norm
    reciprocal condition of its triangular factor of at least
    ``RCOND_MIN``, the step is their least-squares solution d, from that
    QR and one stacked inverse of the triangular factors, less its
    projection on z.  Elsewhere (degenerate points) it comes from one
    stacked ``np.linalg.pinv`` of J, which drops singular values below
    ``RCOND_MIN`` times the largest.  pinv's SVD for every row cost the
    polish of perfbench's fixture-train layers (N 14-21, up to 8 rows)
    0.38 ms a step against 0.10 ms, and their median forward 6.92 ms
    against 5.69 (three alternating 30 s perfbench pairs, 2-vCPU x86).
    LAPACK runs on each matrix alone, so a row's step does not depend on
    the other rows."""
    basis, tri = np.linalg.qr(M[:, :, :-1])
    # an exactly singular factor would make the stacked inverse raise; its
    # NaN inverse gives a NaN condition, which is not full rank
    inverse = np.full(tri.shape, np.nan)
    regular = np.diagonal(tri, axis1=1, axis2=2).all(axis=1)
    if regular.any():
        inverse[regular] = np.linalg.inv(tri[regular])
    full = 1.0 / (_norm_1(tri) * _norm_1(inverse)) >= RCOND_MIN
    steps = np.zeros(Z.shape)
    if full.any():
        rhs = np.matmul(R[full][:, None, :], basis[full])
        steps[full, :-1] = np.matmul(inverse[full], rhs.transpose(0, 2, 1)
                                     )[:, :, 0]
        Zf = Z[full]
        steps[full] -= (_row_dots(Zf, steps[full])
                        / _row_dots(Zf, Zf))[:, None] * Zf
    if not full.all():
        J = M[~full]
        J[:, :, -1] -= np.matmul(J, Z[~full][:, :, None])[:, :, 0]
        rest = np.matmul(np.linalg.pinv(J, rcond=RCOND_MIN),
                         R[~full][:, :, None])[:, :, 0]
        # an entry no residual depends on steps by exactly 0, as in LSQR,
        # not by the SVD's rounding: a variable absent from A and c stays 0
        rest[~J.any(axis=1)] = 0.0
        steps[~full] = rest
    return steps


def _dense_refine(QI: np.ndarray, Z: np.ndarray, spec, n: int
                  ) -> np.ndarray:
    """Up to ``REFINE_STEPS`` damped Gauss-Newton steps on the normalized
    residual map of each row z of the (k, N) stack Z, whose last entries
    are 1, for the program whose Q - I is the matrix of the same row of
    the (k, N, N) stack QI (``_skew_minus_identity``), all rows at once;
    returns each row's best point.

    Each step is the exact least-norm step, for every row that still
    steps at once (``_dense_gauss_newton_steps``).  The line search takes
    all rows at each length at once: a row takes the first of up to five
    halvings whose point, rescaled to a last entry of 1, lowers its
    residual norm, and stops stepping when none does, when the norm is at
    most 1e-15, or when the step lowered it by less than a thousandth (a
    stall).  Every operation is a row's own, so each row is its stack of
    one's."""
    best = Z.copy()
    R = np.matmul(QI, project_embedding(best, spec, n)[:, :, None])[:, :, 0]
    R += best
    norms = _norms(R)
    live = np.flatnonzero(norms > 1e-15)
    for _ in range(REFINE_STEPS):
        if not live.size:
            break
        points, last_norms = best[live], norms[live]
        steps = _dense_gauss_newton_steps(
            _dense_m(QI[live], points, spec, n), points, R[live])
        improved = np.zeros(live.size, dtype=bool)
        searching = np.arange(live.size)  # places in live
        scale = 1.0
        for _ in range(5):
            cand = best[live[searching]] - scale * steps[searching]
            valid = cand[:, -1] > 1e-12
            rows = live[searching[valid]]
            cand = cand[valid] / cand[valid, -1:]
            r_cand = np.matmul(QI[rows], project_embedding(
                cand, spec, n)[:, :, None])[:, :, 0]
            r_cand += cand
            cand_norms = _norms(r_cand)
            lower = cand_norms < norms[rows]
            took = rows[lower]
            best[took], R[took], norms[took] = \
                cand[lower], r_cand[lower], cand_norms[lower]
            valid[valid] = lower  # now: which of searching took a point
            improved[searching[valid]] = True
            searching = searching[~valid]
            if not searching.size:
                break
            scale *= 0.5
        live = live[improved & (norms[live] > 1e-15)
                    & (norms[live] <= 0.999 * last_norms)]
    return best


def _warm_start_point(warm_start, n: int, m: int) -> list[np.ndarray]:
    """A warm start as finite float vectors (x, y, s) of lengths (n, m, m);
    a complex part, whose imaginary part a cast would drop, raises."""
    try:
        parts = tuple(warm_start)
    except TypeError:
        parts = ()
    if len(parts) != 3:
        raise SolverInputError(
            f"warm start must be an (x, y, s) triple, got {warm_start!r}")
    out = []
    for name, part, size in zip("xys", parts, (n, m, m)):
        try:
            arr = np.asarray(part)
            if np.iscomplexobj(arr):
                raise SolverInputError(f"warm start {name} is complex")
            arr = arr.astype(float, copy=False)
        except (TypeError, ValueError):
            raise SolverInputError(
                f"warm start {name} is not numeric: {part!r}") from None
        if arr.shape != (size,):
            raise SolverInputError(
                f"warm start {name} has shape {arr.shape}, expected ({size},)")
        if not np.all(np.isfinite(arr)):
            raise SolverInputError(f"warm start {name} contains NaN/Inf")
        out.append(arr)
    return out


class _Column:
    """One program of a batch, row ``index`` of its ``_Batch``: its own
    decisions on the checks of its iterates, which ``_Batch.check`` makes
    for every row at once.  It keeps its best point, whether it runs on
    after meeting the tolerance, when a polish falls due, and its status.
    """

    def __init__(self, batch: "_Batch", index: int, timings: dict,
                 setup_s: float):
        """``timings`` and ``setup_s``: the program's share of the build
        times of its factor and batch."""
        self.batch, self.index, self.settings = batch, index, batch.settings
        self.timings, self.setup_s = timings, setup_s
        self.best = None  # (residual score, x, y, s, res) in original units
        self.status = MAX_ITERS
        self.iters = self.polishes = 0
        self.polish_s = 0.0
        # the splitting's accelerated points (``_Anderson``), set by the loop
        # at every check; until then the batch's one zero count
        self.acceleration = batch.unaccelerated
        self.deferred = 0  # intervals run on since it met the tolerance
        # polish attempts are exponentially spaced so their total cost stays
        # logarithmic in the iteration count; the first is due at the first
        # check (``_Batch.polish`` sets the next)
        self.next_refine = CHECK_INTERVAL
        # (iteration, ratio) of the last iterate check, from which
        # ``_runs_another_interval`` reads the last interval's drop; a
        # polish's candidate never enters it
        self.last_check = None

    def consider(self, x, y, s, res) -> None:
        """Keeps a candidate point, with its residuals ``res``, when it is
        the best so far."""
        score = max(res)
        if self.best is None or score < self.best[0]:
            self.best = (score, x, y, s, tuple(res))

    def polish_due(self, it: int) -> bool:
        """Whether a polish runs at iteration ``it``, whose iterate does not
        meet the tolerance: for a program that polishes
        (``_Batch.polishing``), on the doubling schedule, and at
        ``max_iters``."""
        return self.batch.polishing and (it == self.settings.max_iters
                                         or it >= self.next_refine)

    def _runs_another_interval(self, it: int, q: float) -> bool:
        """Whether an accelerated solve whose iterate meets the tolerance at
        iteration ``it``, with ratio q, runs one more check interval
        instead of ending: before ``max_iters``, when its ratio fell less
        than ``SETTLE_DROP``-fold over the last interval, at most
        ``SETTLE_INTERVALS`` times."""
        return bool(self.acceleration["accepted"]
                    and self.deferred < SETTLE_INTERVALS
                    and it != self.settings.max_iters
                    and self.last_check is not None
                    and self.last_check[1] < SETTLE_DROP * q)

    def solution(self, iterate_s: float) -> ConeSolution:
        """The column's result, given its share of the loop's time."""
        finishing = time.perf_counter()
        batch = self.batch
        n, m = batch.n, batch.m
        if self.best is None:  # no check had a candidate: the zero point
            ev = batch.evaluate(np.array([self.index]), *np.zeros(
                (2, 1, n + m + 1)))
            self.best = (np.inf, ev.X[0], ev.Y[0], ev.S[0], tuple(ev.res[0]))
        _, x, y, s, res = self.best
        info = {"iterations": self.iters, "polishes": self.polishes,
                "timings": dict(self.timings, iterate=iterate_s,
                                polish=self.polish_s),
                "iteration_system": batch.factor.kind,
                "acceleration": self.acceleration, "sizes": batch.sizes}
        if self.status not in (INFEASIBLE, UNBOUNDED):
            info.update(primal_residual=res[0], dual_residual=res[1],
                        gap_residual=res[2])
        info["solve_time"] = (self.setup_s + iterate_s + self.polish_s
                              + time.perf_counter() - finishing)
        return ConeSolution(x=x, y=y, s=s, status=self.status, info=info)


class _Batch:
    """The B programs of one solve as (B, .) stacks, and the checks of
    their iterates.

    It holds their data in original units, their scaling (row ``rows[j]``
    of the ``IterationFactor`` ``factor`` for program j), their scaled and
    normalized b and c and h = (c, b), and their first iterates U0 and V0.
    A's entries are the blocks of a block-diagonal matrix of A
    (``Pattern.block``).  ``check`` evaluates every row's residuals,
    tolerances, ratio q and certificates at once, as (B,) arrays
    (``evaluate``); each program's ``_Column`` then decides alone.  Every
    product is a block-diagonal product, which sums each row in the order
    of its block's lone product, and every dot a row's own BLAS dot
    (``_row_dots``), so each row's arithmetic is that of its lone solve.
    """

    def __init__(self, a_data: np.ndarray, b: np.ndarray, c: np.ndarray,
                 factor: IterationFactor, settings: SolverSettings,
                 warm_starts: list):
        start = time.perf_counter()
        self.factor, self.settings, self.count = factor, settings, len(b)
        pattern = factor.pattern
        self.spec = pattern.spec
        self.m, self.n = m, n = pattern.shape
        self.rows = np.arange(self.count) if factor.count > 1 else \
            np.zeros(self.count, dtype=int)
        self.b, self.c = b, c
        # A' as the CSC view of A, which shares its arrays and sums each
        # row of A' in the order of a lone A' product
        self.A = pattern.block(a_data)
        self.At = self.A.T
        # the primal and dual tolerances; the gap's depends on the point
        eps_abs, eps_rel = settings.eps_abs, settings.eps_rel
        self.tol_pri = eps_abs + eps_rel * (1.0 + _norms(b))
        self.tol_dua = eps_abs + eps_rel * (1.0 + _norms(c))
        scaling = time.perf_counter()
        D, E = factor.d[self.rows], factor.e[self.rows]
        b_hat, c_hat = D * b, E * c
        sigma = np.fmax(1.0, _norms(b_hat))[:, None]
        rho = np.fmax(1.0, _norms(c_hat))[:, None]
        self.b_hat, self.c_hat = b_hat / sigma, c_hat / rho
        self.H = np.concatenate([self.c_hat, self.b_hat], axis=1)
        # x = sigma E x_hat, y = rho D y_hat and s = sigma s_hat / D
        self.x_scale, self.y_scale = sigma * E, rho * D
        self.sigma, self.D = sigma, D
        self.scaling_s = time.perf_counter() - scaling
        N = n + m + 1
        # only programs up to DENSE_ORDER are polished (``_dense_refine``)
        self.polishing = settings.refine and N <= DENSE_ORDER
        # every result of the solve shares these two dicts
        spec = self.spec
        self.sizes = {"n": n, "m": m, "N": N, "zero": spec.n_zero,
                      "nonneg": spec.n_nonneg,
                      "soc_blocks": len(spec.soc_dims),
                      "soc_rows": sum(spec.soc_dims)}
        self.unaccelerated = {"accepted": 0, "rejected": 0}
        self.U0, self.V0 = np.zeros((self.count, N)), np.zeros((self.count, N))
        self.U0[:, -1] = 1.0
        for j, warm in enumerate(warm_starts):
            if warm is not None:
                x0, y0, s0 = warm
                self.U0[j, :n] = x0 / self.x_scale[j]
                self.U0[j, n:n + m] = y0 / self.y_scale[j]
                self.V0[j, n:n + m] = s0 * D[j] / sigma[j]
        self.setup_s = time.perf_counter() - start

    def evaluate(self, rows: np.ndarray, U: np.ndarray, V: np.ndarray):
        """Every quantity the checks read off the iterates u and v of the
        programs ``rows`` (ascending), the rows of U and V, in original
        units: ``has``, whether tau = u[-1] is large enough for a
        candidate point; the candidate (u_x, u_y, v_s) / tau (/ 1 where
        tau is not), as stacks X, Y and S, its residuals ``res``, one
        (primal, dual, gap) per row, whether it meets every tolerance
        (``ok``) and q, the largest ratio of a residual to its tolerance;
        and which iterates certify infeasibility (with the certificate
        ``Yc``) and unboundedness (``Xc``, ``Sc``; ``Sc`` is None when no
        row certifies it).  Masks, residuals and ratios are lists."""
        n, m, count, settings = self.n, self.m, self.count, self.settings
        k = len(rows)
        pick = (lambda a: a) if k == count else (lambda a: a[rows])
        x_scale, y_scale, sigma, D, b, c = map(pick, (
            self.x_scale, self.y_scale, self.sigma, self.D, self.b, self.c))
        U_x, U_y, V_s = U[:, :n], U[:, n:n + m], V[:, n:n + m]
        tau = U[:, -1]
        # Python's max(1.0, |u|) is fmax's, even for a NaN |u|
        has = tau > 1e-9 * np.fmax(1.0, _norms(U))
        t = (tau if has.all() else np.where(has, tau, 1.0))[:, None]
        X = x_scale * (U_x / t)
        Y = y_scale * (U_y / t)
        S = sigma * (V_s / t) / D
        out = _kkt_residuals(self.A, self.At, self.b, self.c, *(
            self._spread(rows, Z) for Z in (X, Y, S)))
        pri, dua, gap, ctx, bty = out if k == count else (
            r[rows] for r in out)
        tol_gap = settings.eps_abs + settings.eps_rel * (
            1.0 + np.abs(ctx) + np.abs(bty))
        tol_pri, tol_dua = pick(self.tol_pri), pick(self.tol_dua)
        ok = (pri <= tol_pri) & (dua <= tol_dua) & (gap <= tol_gap)
        q = _larger(_larger(pri / tol_pri, dua / tol_dua), gap / tol_gap)
        # the certificates y / -b'y and (x, s) / -c'x, whose norms |A'y|
        # and |Ax + s| are taken where b'y or c'x is negative
        Yc = y_scale * U_y
        bty_c = _row_dots(b, Yc)
        infeasible = bty_c < -1e-12
        if infeasible.any():
            Yc = Yc / np.where(infeasible, -bty_c, 1.0)[:, None]
            infeasible &= _norms(self._product(self.At, rows, Yc)) \
                <= settings.eps_abs
        Xc, Sc = x_scale * U_x, None
        ctx_c = _row_dots(c, Xc)
        unbounded = ctx_c < -1e-12
        if unbounded.any():
            scale = np.where(unbounded, -ctx_c, 1.0)[:, None]
            Xc, Sc = Xc / scale, sigma * V_s / D / scale
            unbounded &= _norms(self._product(self.A, rows, Xc) + Sc) \
                <= settings.eps_abs
        return SimpleNamespace(
            has=has.tolist(), X=X, Y=Y, S=S,
            res=list(zip(pri.tolist(), dua.tolist(), gap.tolist())),
            ok=ok.tolist(), q=q.tolist(), infeasible=infeasible.tolist(),
            Yc=Yc, unbounded=unbounded.tolist(), Xc=Xc, Sc=Sc)

    def _spread(self, rows: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """The rows of Z, which belong to the programs ``rows``, in a (B, .)
        stack whose other rows are zeros; Z itself when it holds every
        program (``rows`` ascend, so they are then 0, ..., B - 1)."""
        if len(rows) == self.count:
            return Z
        full = np.zeros((self.count, Z.shape[1]))
        full[rows] = Z
        return full

    def _product(self, M, rows: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """The block-diagonal M's products with the rows of Z, which belong
        to the programs ``rows``."""
        out = (M @ self._spread(rows, Z).ravel()).reshape(self.count, -1)
        return out if len(rows) == self.count else out[rows]

    def check(self, it: int, cols: list, U: np.ndarray,
              V: np.ndarray) -> np.ndarray:
        """The checks of iteration ``it`` of the columns ``cols``, whose
        iterates u and v are the rows of U and V: convergence, one polish
        of every column whose polish is due (``polish``), and the
        infeasibility and unboundedness certificates.  Returns which
        columns go on."""
        n, m = self.n, self.m
        ev = self.evaluate(np.array([col.index for col in cols]), U, V)
        ok, q = ev.ok, ev.q
        runs_on = np.zeros(len(cols), dtype=bool)
        due = []
        for r, col in enumerate(cols):
            col.iters = it
            if ev.has[r]:
                col.consider(ev.X[r], ev.Y[r], ev.S[r], ev.res[r])
                if ok[r] and col._runs_another_interval(it, q[r]):
                    col.deferred += 1
                    col.last_check = (it, q[r])
                    runs_on[r] = True
                # a check after one that met the tolerance and ran on ends
                # the solve at its best point, whether it meets the
                # tolerance or not
                elif ok[r] or col.deferred:
                    col.status = OPTIMAL
                else:
                    col.last_check = (it, q[r])
                    if col.polish_due(it):
                        due.append(r)
            elif col.deferred:  # as above
                col.status = OPTIMAL
        if due:
            polished = self.polish(it, [cols[r] for r in due], U[due], V[due])
            for r, good in zip(due, polished):
                if good:
                    cols[r].status = OPTIMAL
        keep = np.ones(len(cols), dtype=bool)
        for r, col in enumerate(cols):
            if col.status == MAX_ITERS and not runs_on[r]:
                if ev.infeasible[r]:
                    col.status = INFEASIBLE
                    col.best = (np.inf, np.zeros(n), ev.Yc[r], np.zeros(m),
                                None)
                elif ev.unbounded[r]:
                    col.status = UNBOUNDED
                    col.best = (np.inf, ev.Xc[r], np.zeros(m), ev.Sc[r], None)
            keep[r] = col.status == MAX_ITERS
        return keep

    def polish(self, it: int, cols: list, U: np.ndarray,
               V: np.ndarray) -> list:
        """Polishes the candidates of the iterates u and v of the columns
        ``cols`` at iteration ``it``, the rows of U and V, and lets each
        column consider its polished point; whether each meets the
        tolerance.

        The candidate of (u, v) is z = (u_x, u_y - v_s, tau) / tau in the
        scaled embedding, and the columns' candidates are polished as one
        stack (``_dense_refine``).  A polished z, whose last entry is 1,
        gives the iterates u = Pi(z) and v = Pi(z) - z, whose candidate is
        (x, y, s) = (z_x, Pi*(z_v), Pi*(z_v) - z_v), and every column's
        are checked in one ``evaluate``.  Each column counts one polish,
        and its next is due from twice ``it`` on, or from ``REFINE_CAP``
        on when ``it`` is below it and twice ``it`` above.  Its
        ``polish_s`` takes an equal share of the round's wall time."""
        start = time.perf_counter()
        n, m, spec, factor = self.n, self.m, self.spec, self.factor
        rows = np.array([col.index for col in cols])
        tau = U[:, -1:]
        Z = np.concatenate([U[:, :n] / tau, U[:, n:n + m] / tau
                            - V[:, n:n + m] / tau, np.ones((len(cols), 1))],
                           axis=1)
        Z = _dense_refine(_skew_minus_identity(
            factor.pattern, factor.data[self.rows[rows]],
            self.b_hat[rows], self.c_hat[rows]), Z, spec, n)
        P = project_embedding(Z, spec, n)
        ev = self.evaluate(rows, P, P - Z)
        share = (time.perf_counter() - start) / len(cols)
        for r, col in enumerate(cols):
            col.consider(ev.X[r], ev.Y[r], ev.S[r], ev.res[r])
            col.polishes += 1
            col.next_refine = 2 * it if it >= REFINE_CAP \
                else min(2 * it, REFINE_CAP)
            col.polish_s += share
        return ev.ok


class _Anderson:
    """Safeguarded type-II Anderson acceleration of the splitting map g of
    a (B, N) stack of states, one history per row (Walker & Ni 2011; the
    safeguard as in SCS 3.0, Zhang, O'Donoghue & Boyd 2020).

    Each row keeps the differences of its last ``memory`` steps f = g(w) -
    w and plain points g(w), as the (B, memory, N) stacks ``dF`` and
    ``dG``, in a ring whose head advances alike for every row, and their
    Gram matrix dF dF' as a (B, memory, memory) stack that each new
    difference updates by one row and column.  The accelerated point is
    g - dG' gamma, with gamma from the normal equations (dF dF' + 1e-10
    trace I) gamma = dF f, solved by LAPACK's Cholesky solver (``dposv``).
    A slot that holds no difference, emptied or not yet filled, is zero,
    and so are its row and column of the Gram matrix and its right-hand
    side, so its coefficient is exactly 0.  The stacked updates are
    elementwise, and every product and solve is one row's own call, as
    the reduced K solve's ``dsymv``, so a row's arithmetic does not depend
    on the batch.

    Two guards.  The safeguard (``rejects``): a row whose step at its
    accelerated point is longer than the step at the point before goes
    back to that point's plain g.  The collapse guard: a row whose
    accelerated point is shorter than half its g, or whose last entry
    (tau - kappa) falls below half of g's where g's is positive, takes g
    instead, since w = 0 is a fixed point of the embedding and so is every
    point of its tau = 0 face, where no check finds a solution.  A
    rejection empties the row's history, and so does a system that LAPACK
    does not find positive definite.  ``accepted`` counts each row's
    accelerated points that no guard rejected, ``rejected`` those the
    guards rejected.  An accepted point shorter than the row's first g
    over ``RESCALE`` is scaled up by ``RESCALE``, with the row's history.
    """

    def __init__(self, count: int, N: int, memory: int):
        self.memory, self.head = memory, 0
        self.dF = np.zeros((count, memory, N))
        self.dG = np.zeros((count, memory, N))
        self.gram = np.zeros((count, memory, memory))
        self.floor = None  # squared lengths below which a state is scaled
        # each row's newest difference of f and its last step f, side by
        # side for one product with its dF
        self.pair = np.zeros((count, 2, N))
        self.g = None  # the last plain points
        self.norm = [0.0] * count  # |f|^2 of each row's last step
        self.taken = [False] * count  # whether a row's state is accelerated
        self.accepted = [0] * count
        self.rejected = [0] * count

    def _clear(self, r: int) -> None:
        """Empty row r's history, counting a rejection."""
        self.dF[r] = 0.0
        self.dG[r] = 0.0
        self.gram[r] = 0.0
        self.rejected[r] += 1

    def rejects(self, norms: list) -> np.ndarray:
        """The rows whose state is an accelerated point and whose step
        there, of squared length ``norms[r]``, is longer than the step at
        the point before; their histories are emptied, and ``g`` holds the
        plain points to go back to."""
        out = np.zeros(len(norms), dtype=bool)
        for r, (taken, norm) in enumerate(zip(self.taken, norms)):
            if taken and norm > self.norm[r]:
                out[r] = True
                self._clear(r)
                self.accepted[r] -= 1
        return out

    def point(self, W: np.ndarray, F: np.ndarray, norms: list) -> np.ndarray:
        """The next states of the rows of W, whose steps are the rows of F,
        of squared lengths ``norms``: each row's accelerated point, or its
        g = w + f where its history is empty or a guard rejects the
        point."""
        G = W + F
        first, k = self.g is None, self.head
        if not first:
            np.subtract(F, self.pair[:, 1], out=self.pair[:, 0])
            self.dF[:, k] = self.pair[:, 0]
            np.subtract(G, self.g, out=self.dG[:, k])
        self.pair[:, 1] = F
        self.g, self.norm, self.taken = G, norms, [False] * len(G)
        if first:
            self.floor = [float(g @ g) / RESCALE ** 2 for g in G]
            return G
        self.head = (k + 1) % self.memory
        out = G.copy()
        for r, (dF, gram) in enumerate(zip(self.dF, self.gram)):
            # the Gram matrix's new row and column, and dF f
            both = dF @ self.pair[r].T
            gram[k, :] = gram[:, k] = both[:, 0]
            trace = gram.trace()
            if trace == 0.0:
                continue
            system = gram.copy()
            system.flat[::self.memory + 1] += 1e-10 * trace
            gamma, info = sla.lapack.dposv(system, both[:, 1])[1:]
            if info != 0:
                self._clear(r)
                continue
            point = np.subtract(G[r], gamma @ self.dG[r], out=out[r])
            length, tau = point @ point, G[r, -1]
            if length < 0.25 * (G[r] @ G[r]) or (
                    0.0 < tau and point[-1] < 0.5 * tau):
                point[:] = G[r]
                self._clear(r)
                continue
            self.taken[r] = True
            self.accepted[r] += 1
            if length < self.floor[r]:
                self._rescale(r, out)
        return out

    def _rescale(self, r: int, out: np.ndarray) -> None:
        """Scale row r's state ``out[r]``, plain point and history by
        RESCALE, and its squared lengths by its square."""
        for part in (out[r], self.g[r], self.pair[r], self.dF[r],
                     self.dG[r]):
            part *= RESCALE
        self.gram[r] *= RESCALE ** 2
        self.norm[r] *= RESCALE ** 2

    def subset(self, keep: np.ndarray) -> None:
        """Keep the rows where ``keep`` is True; ``g`` and ``floor`` are
        None until the first ``point``."""
        for name in ("dF", "dG", "gram", "pair", "g"):
            if getattr(self, name) is not None:
                setattr(self, name, getattr(self, name)[keep])
        for name in ("norm", "floor", "taken", "accepted", "rejected"):
            if getattr(self, name) is not None:
                setattr(self, name, [v for v, k in zip(getattr(self, name),
                                                       keep) if k])


def _iterate(cols: list, batch: _Batch) -> None:
    """The splitting iterations of every column, as one loop over the
    (B, N) stack of one state w per column.

    The splitting (SCS's u, v recurrence) in one state w = u_tilde_alpha -
    v, the point the next iterate is the projection of: with p = Pi(w) and
    r = 2p - w = u + v, an iteration is

        w <- w + alpha (lin(r) - p),    p = Pi(w),    r = 2p - w,

    and the checks receive u = p and v = p - w, formed only at the check
    iterations.  The first step is seeded from each column's (u0, v0) as
    p = u0, r = u0 + v0 and w = u0 - v0: a warm start need not be a Moreau
    pair, so w0 is not projected first.

    Each iteration solves every row's system (``_IterationSystem``) and
    projects the stacked rows in one walk; every other update is
    elementwise.  So a row's arithmetic does not depend on the other rows,
    and every column runs the iterations, checks and polishes of its own
    solve.  A column whose checks end its solve leaves the stacks.

    On the ``"reduced"`` and ``"superlu"`` K solves, with
    ``ANDERSON_MEMORY`` above 0, the new state is not g = w + alpha
    (lin(r) - p) but the accelerated point ``_Anderson.point`` makes of
    it, from the second iteration on (the seeded first step is no step of
    g).  A row the safeguard rejects (``_Anderson.rejects``) goes back to
    its last plain point g and runs the iteration again from there: its
    projection and its system, through ``_IterationSystem.subset`` when
    only some rows go back, before the new points are made.  The
    ``"dense"`` K solve runs the plain splitting.  Each column's counts of
    accepted and rejected points are handed to it at every check, and
    every check round checks the active columns' rows at once
    (``_Batch.check``).
    """
    factor, settings, spec, n = batch.factor, batch.settings, batch.spec, \
        batch.n
    # a lone program iterates on vectors, which costs the least; every
    # operation below takes vectors or stacks alike
    row = slice(None) if len(cols) > 1 else 0
    P, V0 = batch.U0[row], batch.V0[row]
    R = P + V0
    W = P - V0
    N = W.shape[-1]
    lin = _IterationSystem(factor, batch.rows, batch.H[row])
    alpha = OVER_RELAX
    step = np.empty(W.shape)
    accel = None
    if ANDERSON_MEMORY > 0 and factor.kind != "dense":
        accel = _Anderson(len(cols), N, ANDERSON_MEMORY)
    active = cols
    for it in range(1, settings.max_iters + 1):
        lin(R, step)
        np.subtract(step, P, out=step)
        np.multiply(step, alpha, out=step)
        # the seeded first step is no step of the map g, so it enters no
        # history
        if accel is None or it == 1:
            np.add(W, step, out=W)
        else:
            F = step.reshape(-1, N)
            norms = [float(f @ f) for f in F]
            back = accel.rejects(norms)
            if back.any():
                # the iteration again, from the plain points g
                rows = ... if back.all() else back
                W_b = accel.g.reshape(W.shape)[rows]
                P_b = project_embedding(W_b, spec, n)
                R_b = np.subtract(np.multiply(P_b, 2.0), W_b)
                step_b = (lin if rows is ... else lin.subset(back))(
                    R_b, np.empty(W_b.shape))
                np.subtract(step_b, P_b, out=step_b)
                np.multiply(step_b, alpha, out=step_b)
                W[rows], step[rows] = W_b, step_b
                for r in np.flatnonzero(back):
                    norms[r] = float(F[r] @ F[r])
            W = accel.point(W.reshape(-1, N), F, norms).reshape(W.shape)
        P = project_embedding(W, spec, n)
        np.multiply(P, 2.0, out=R)
        np.subtract(R, W, out=R)

        if it % CHECK_INTERVAL != 0 and it != settings.max_iters:
            continue
        if accel is not None:
            for c, a, r in zip(active, accel.accepted, accel.rejected):
                c.acceleration = {"accepted": a, "rejected": r}
        U = P.reshape(-1, N)
        keep = batch.check(it, active, U, U - W.reshape(-1, N))
        if not keep.all():
            if not keep.any():
                return
            active = [c for c, k in zip(active, keep) if k]
            P, R, W, lin = P[keep], R[keep], W[keep], lin.subset(keep)
            step = step[:len(active)]
            if accel is not None:
                accel.subset(keep)


def solve(data, settings: SolverSettings | None = None, warm_start=None,
          factor: IterationFactor | None = None):
    """Solve a cone program, or a batch of them; never raises on
    non-optimal outcomes.

    Returns a primal-dual-slack triple with status optimal/infeasible/
    unbounded/max_iters, KKT residuals, iteration counts, per-stage
    ``timings`` and the program's ``sizes`` in ``info``.  ``factor`` is an
    ``IterationFactor`` of ``data.A`` built earlier by a caller whose A
    does not change; without it one is built here.  A malformed warm
    start raises ``SolverInputError``; ``settings`` that are not
    ``SolverSettings``, or ``data`` that is not a ``ConeProgramData`` or a
    list of them, raise ``ShapeError``.  Deterministic given (data,
    settings, warm_start).

    ``data`` may also be a list of programs of one cone and one pattern of
    A, with ``warm_start`` a list of one entry per program (or None); a
    list of solutions comes back, and solution j equals ``solve(data[j],
    settings, warm_start[j])``.  ``factor`` is then an ``IterationFactor``
    of one program, whose A every program shares, or of every program in
    turn; without it one is built here for the whole batch, with one Ruiz
    pass and, for a dense or reduced K solve, one stacked inverse.  A single
    program is the batch of one: there is one iteration loop, over the
    stacked iterates of every program (``_iterate``), and one check of
    every active program per check round (``_Batch.check``).  Each
    program keeps its own scaling, best point, polishes and status, and
    leaves the loop at the iteration its own solve ends.

    ``timings["equilibrate"]`` and ``timings["factorize"]`` of each
    program are the build time of the factor built here, shared out
    equally over the programs (0.0 when ``factor`` is given), plus, in
    ``equilibrate``, an equal share of the batch's scaling of b and c.
    ``timings["polish"]`` of each is its equal share of every polish round
    it took part in (``_Batch.polish``), 0.0 above ``DENSE_ORDER``, and
    ``timings["iterate"]`` the loop's wall time, less every program's
    polish time, shared out in proportion to the programs' iteration
    counts.  Every result's
    ``info["sizes"]`` is one dict, and so is an unaccelerated result's
    ``info["acceleration"]``.  Every warm start and the factor are checked
    before any program is solved.
    """
    if isinstance(data, ConeProgramData):
        return solve([data], settings, [warm_start], factor)[0]
    if settings is None:
        settings = SolverSettings()
    elif not isinstance(settings, SolverSettings):
        raise ShapeError(f"settings must be SolverSettings, got "
                         f"{type(settings).__name__}")
    try:
        datas = list(data)
    except TypeError:
        datas = [data]
    for d in datas:
        if not isinstance(d, ConeProgramData):
            raise ShapeError(f"solve takes ConeProgramData or a list of them, "
                             f"got {type(d).__name__}")
    count = len(datas)
    warm_starts = [None] * count if warm_start is None else list(warm_start)
    if len(warm_starts) != count:
        raise ShapeError(f"{count} programs given with {len(warm_starts)} "
                         f"warm starts")
    if not count:
        return []
    A, a_data, b, c = _stacked(datas)
    spec = datas[0].cones
    m, n = A.shape
    if factor is not None:
        if factor.pattern.shape != (m, n):
            raise ShapeError(f"iteration factor of a {factor.pattern.shape} "
                             f"matrix given for A of shape {(m, n)}")
        if factor.count not in (1, count):
            raise ShapeError(f"iteration factor of {factor.count} programs "
                             f"given for {count}")
    warm_starts = [None if w is None else _warm_start_point(w, n, m)
                   for w in warm_starts]
    built = {"equilibrate": 0.0, "factorize": 0.0}
    if factor is None:
        factor = IterationFactor(A, spec, a_data)
        built = {k: t / count for k, t in factor.seconds.items()}
    batch = _Batch(a_data, b, c, factor, settings, warm_starts)
    timings = dict(built, equilibrate=built["equilibrate"]
                   + batch.scaling_s / count)
    setup_s = batch.setup_s / count + sum(built.values())
    cols = [_Column(batch, j, dict(timings), setup_s) for j in range(count)]
    looping = time.perf_counter()
    _iterate(cols, batch)
    loop_s = time.perf_counter() - looping
    share = (loop_s - sum(c.polish_s for c in cols)) / sum(
        c.iters for c in cols)
    return [c.solution(share * c.iters) for c in cols]


def normalized_point(sol: ConeSolution) -> np.ndarray:
    """The embedding point z = (x, y - s, 1) of an optimal solution.

    Feeding z through the reconstruction (u, Pi(v), Pi(v) - v) / w recovers
    (x, y, s) because y and s are the Moreau pair of v = y - s.
    """
    if sol.status != OPTIMAL:
        raise SolveStatusError(
            f"normalized point requires an optimal solution, got {sol.status}")
    return np.concatenate([sol.x, sol.y - sol.s, [1.0]])
