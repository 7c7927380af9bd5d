"""Structure of the space of degree-d forms in n variables.

The monomial basis (a tuple of exponent vectors in the canonical order,
built once per ``(n, d)``), the permutation-invariant weights
``w(a) = a_1! ... a_n! / d!``, the unitarily invariant inner product built
from them, and the root relation between exponents.

Square roots are never materialized: every downstream use of the weighted
coefficient vector is quadratic, so the inner product folds the weight in
directly and stays rational.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from .polyring import (
    ExponentVector,
    Scalar,
    SparsePoly,
    canonical_key,
    degree,
)


@lru_cache(maxsize=None)
def enumerate_monomials(n: int, d: int) -> tuple[ExponentVector, ...]:
    """The degree-``d`` exponent vectors in ``n`` variables, canonically
    ordered; there are binomial(n+d-1, d) of them."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    exponents = (a for a in product(range(d + 1), repeat=n) if sum(a) == d)
    basis = tuple(sorted(exponents, key=canonical_key))
    if len(basis) != comb(n + d - 1, d):
        raise ArithmeticError(f"{len(basis)} monomials of degree {d} in {n} variables")
    return basis


@lru_cache(maxsize=None)
def weight(alpha: ExponentVector) -> Fraction:
    """Squared norm of the monomial ``x^alpha``: a_1! ... a_n! / d!."""
    num = 1
    for e in alpha:
        num *= factorial(e)
    return Fraction(num, factorial(degree(alpha)))


def inner_product(f: SparsePoly, g: SparsePoly) -> Scalar:
    """Invariant hermitian product; conjugation is the identity on real scalars.

    Computed as ``sum_a conj(f_a) g_a w(a)`` with exact rational weights.
    """
    if (f.n, f.d) != (g.n, g.d):
        raise ValueError(f"inner product needs equal shapes, got {(f.n, f.d)} and {(g.n, g.d)}")
    total: Scalar = Fraction(0)
    small, large = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    for exp, c in small.terms.items():
        other = large.terms.get(exp)
        if other is None:
            continue
        total = total + c * other * weight(exp)
    return total


def root_pair(a: ExponentVector, b: ExponentVector) -> tuple[int, int] | None:
    """``(i, j)`` with ``i < j`` if ``a - b = +-(e_i - e_j)``, else None.

    Off-diagonal entry (i, j) of the Gram and moment matrices sums over the
    pairs of support exponents related this way, and over nothing else.
    """
    moved = [k for k in range(len(a)) if a[k] != b[k]]
    if len(moved) == 2 and a[moved[0]] - b[moved[0]] == b[moved[1]] - a[moved[1]] in (1, -1):
        return moved[0], moved[1]
    return None
