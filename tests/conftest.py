"""Shared generators for randomized property tests (seeded, deterministic),
and a reference for ``verify_critical``."""

from __future__ import annotations

import random
from fractions import Fraction

from momentforge.moment import gradient
from momentforge.polyring import SparsePoly
from momentforge.symd import enumerate_monomials


def random_rational_poly(
    rng: random.Random, n: int = 3, d: int = 3, density: float = 1.0
) -> SparsePoly:
    """Random nonzero polynomial with coefficients k/8 in [-2, 2].

    At least one coefficient has magnitude >= 1/2, keeping the squared norm
    comfortably away from zero for numerical comparisons.
    """
    basis = enumerate_monomials(n, d)
    while True:
        terms = {}
        for alpha in basis:
            if rng.random() <= density:
                c = Fraction(rng.randint(-16, 16), 8)
                if c != 0:
                    terms[alpha] = c
        if terms and max(abs(c) for c in terms.values()) >= Fraction(1, 2):
            return SparsePoly(n, d, dict(terms))


def random_sparse_poly(rng: random.Random, n: int = 3, d: int = 3) -> SparsePoly:
    return random_rational_poly(rng, n, d, density=0.5)


def scale_poly(f: SparsePoly, lam) -> SparsePoly:
    """``lam * f``; the zero polynomial when ``lam`` is 0."""
    return SparsePoly(f.n, f.d, {a: c * lam for a, c in f.terms.items() if lam != 0})


def add_poly(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """``f + g`` for two polynomials of one shape; zero sums are dropped."""
    exps = f.terms.keys() | g.terms.keys()
    return SparsePoly.make(f.n, f.d, {a: f.terms.get(a, 0) + g.terms.get(a, 0) for a in exps})


def reference_verify_critical(f: SparsePoly) -> str:
    """``repr`` of ``verify_critical(f)`` for exact ``f`` as computed from the
    gradient's ``Fraction``s, or ``ValueError`` where it is beyond the float
    range."""
    try:
        return repr(float(max(abs(g) for g in gradient(f))))
    except OverflowError:
        return "ValueError"


def verify_outcome(verify, f: SparsePoly) -> str:
    """``repr`` of ``verify(f)``, or ``ValueError``, as the reference gives it."""
    try:
        return repr(verify(f))
    except ValueError as error:
        assert str(error) == "the gradient is beyond the floating-point range"
        return "ValueError"
