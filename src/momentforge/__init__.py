"""Exact moment matrices of hypersurfaces under the special linear action,
symmetric-group orbit enumeration of monomial supports, diagonal-family
filtering, and critical points of the moment-map square length."""

from .critical import (
    AlgebraicNumber,
    CriticalSolution,
    gradient_system,
    solve_family,
    solve_real,
    torus_canonical,
    verify_critical,
)
from .diagonal import DiagonalVerdict, diagonal_families, is_identically_diagonal
from .moment import (
    gradient,
    gradient_symbolic,
    moment_matrix,
    square_length,
    square_length_symbolic,
    symbolic_moment_matrix,
)
from .orbits import (
    ParamFamily,
    build_family,
    canonical_representative,
    orbit_classes,
    permute,
    uses_all_variables,
)
from .polyring import (
    DegenerateInputError,
    ExponentVector,
    ParamPoly,
    SparsePoly,
    poly_from_json,
    poly_to_json,
    substitute_params,
)
from .symd import (
    enumerate_monomials,
    inner_product,
    weight,
)

__version__ = "0.1.0"
