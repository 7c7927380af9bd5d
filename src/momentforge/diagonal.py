"""Families whose moment matrix is identically diagonal.

A critical point of the square length necessarily has a diagonal moment
matrix, so families failing this filter can be dropped before any solving.
"Diagonal" here means diagonal as polynomials in the parameters: each
off-diagonal entry of the moment matrix has a numerator that is a quadratic
form in the parameters, and that form must vanish identically.

For families that fail, a rational witness with all parameters nonzero is
recorded (an assignment making some off-diagonal entry nonzero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .moment import _family_inner_products
from .orbits import ParamFamily, build_family, orbit_classes, uses_all_variables
from .polyring import ParamPoly


@dataclass(frozen=True)
class DiagonalVerdict:
    family: ParamFamily
    is_diagonal: bool
    # ((i, j), numerator) for each off-diagonal entry that is not identically 0
    offending_entries: tuple[tuple[tuple[int, int], ParamPoly], ...]
    # parameter assignment (all nonzero) exhibiting a nonzero off-diagonal entry
    witness: tuple[Fraction, ...] | None


def _nonzero_witness(numerators: list[ParamPoly], nparams: int) -> tuple[Fraction, ...]:
    # a nonzero polynomial of degree at most D in each parameter cannot vanish
    # on all of {1, ..., D + 1}^k, so this lexicographic walk finds a witness
    top = max((num.degree_in(i) for num in numerators for i in range(nparams)), default=0)
    for point in product(range(1, top + 2), repeat=nparams):
        point = tuple(Fraction(v) for v in point)
        if any(num.subs(point) != 0 for num in numerators):
            return point
    raise ValueError("every numerator vanishes identically")


def is_identically_diagonal(family: ParamFamily) -> DiagonalVerdict:
    """Decide diagonality exactly over the parameter ring.

    Off-diagonal entries of the moment matrix share the generically nonzero
    denominator ``d |f|^2``, so only the numerators ``2 <d_i f, d_j f>`` are
    tested for identical vanishing.
    """
    gram = _family_inner_products(family.poly)
    n = family.poly.n
    offending = tuple(
        ((i, j), gram[i][j])
        for i in range(n)
        for j in range(i + 1, n)
        if not gram[i][j].is_zero()
    )
    witness = None
    if offending:
        witness = _nonzero_witness([num for _, num in offending], family.nparams)
    return DiagonalVerdict(family, not offending, offending, witness)


def diagonal_families(n: int, d: int, m: int) -> list[ParamFamily]:
    """All-variables orbit representatives with ``m`` terms whose moment
    matrix is identically diagonal."""
    if m < 2:
        raise ValueError("parametric families need at least two terms")
    reps = [
        rep for rep in orbit_classes(n, d, m) if uses_all_variables(rep.support)
    ]
    families = [build_family(rep.support) for rep in reps]
    verdicts = [is_identically_diagonal(family) for family in families]
    return [v.family for v in verdicts if v.is_diagonal]
