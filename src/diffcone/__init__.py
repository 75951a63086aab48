"""Differentiable convex optimization toolkit.

Build a parametrized problem from expression trees, verify it against the
parametrized ruleset, compile it once into cached affine maps around an
embedded conic solver, then evaluate and differentiate the solution map.
"""

from .canon import (
    AsaForm,
    ConeProgramData,
    build_asa,
    canonicalize,
    leaf_tensor,
    lower,
    materialize,
    materialize_adjoint,
    retrieve,
)
from .cones import (
    ConeBlock,
    ConeSpec,
    dproject,
    dproject_embedding,
    project,
    project_embedding,
)
from .derivatives import (
    adjoint_derivative,
    forward_derivative,
    solve_m_system,
)
from .errors import (
    CompileError,
    DeclarationError,
    DiffconeError,
    ParseError,
    ShapeError,
    SolveStatusError,
    SolverInputError,
)
from .expressions import (
    Curvature,
    Expression,
    Leaf,
    Shape,
    Sign,
    absval,
    add,
    classify,
    constant,
    evaluate,
    hstack,
    index,
    make_node,
    matmul,
    maximum,
    multiply,
    neg,
    norm2,
    parameter,
    promote,
    reshape,
    sub,
    sum_entries,
    sum_squares,
    transpose,
    variable,
    vstack,
)
from .io import (
    dump_problem_document,
    dump_values,
    load_problem_document,
    load_values,
    parse_problem,
    problem_to_document,
    read_cone_data,
    write_cone_data,
)
from .layer import ForwardResult, Layer
from .problem import (
    Constraint,
    DppReport,
    DppViolation,
    Problem,
    check_dpp,
    eq,
    ge,
    le,
    substitute_parameters,
)
from .solver import (
    ConeSolution,
    MOperator,
    SolverSettings,
    normalized_point,
    residuals,
    solve,
)
from .tensor3 import SparseTensor3, psi_combine

__version__ = "0.1.0"
