"""Extremal function of a compact convex polytope in C^d.

The value at a point is the maximum of explicit simplex formulas over the
polytope's certified supporting simplices and strips.  Typical flow: validate
a halfspace description, enumerate its supports once, then evaluate anywhere:

    from polyextremal import enumerate_supports, eval_extremal, validate

    quad = validate([([1, 0], 0), ([0, 1], 0), ([-1, -3], 3), ([-3, -1], 3)], 2)
    supports = enumerate_supports(quad)
    eval_extremal(supports, [2 + 1j, 0.5]).value
"""

from .linalg import (
    DEFAULT_TOL,
    Infeasible,
    LinalgError,
    Singular,
    Tolerances,
    ZeroSpan,
    interior_point,
    orthonormal_basis,
    rank,
    recession_direction,
    solve_real,
)
from .polytope import (
    Degenerate,
    Empty,
    GuardExceeded,
    Halfspace,
    NotFullDimensional,
    ParseError,
    PolytopeError,
    PolytopeH,
    RedundantHalfspace,
    Unbounded,
    VertexIncidence,
    ZeroNormal,
    canonicalize,
    contains,
    enumerate_vertices,
    from_json,
    from_vertices_2d,
    validate,
)
from .supports import (
    NoCover,
    SimplexSupport,
    StripSupport,
    SupportSet,
    check_minimality,
    enumerate_supports,
    support_records,
    try_simplex,
    try_strip,
)
from .extremal import (
    DomainError,
    EvalResult,
    barycentric,
    eval_extremal,
    eval_extremal_many,
    eval_interval,
    eval_simplex,
    eval_simplex_many,
    eval_supports_many,
    inv_joukowski_log,
    lundin_ball,
)

__version__ = "0.1.0"
