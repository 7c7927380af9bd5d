"""Reference computations that share as little as possible with the code
they check: forward jets through the trace formula, the derivative of the
normalized norm along one-parameter subgroups, the projective fixed-point
criterion of diagonal moment matrices, and the merge of a closed-form
point's sign patterns with every pattern canonicalised on its own."""

from __future__ import annotations

from fractions import Fraction

from momentforge.critical import (
    RESIDUAL_TOL,
    CriticalSolution,
    polys_close,
    torus_canonical,
    verify_critical,
)
from momentforge.moment import _trace_parts, moment_matrix
from momentforge.polyring import DegenerateInputError, SparsePoly, canonical_key
from momentforge.symd import enumerate_monomials, inner_product


class Jet:
    """A value and its first-order parts ``{direction: derivative}``.

    Products keep only the first-order part, so the whole trace formula
    stays polynomial.  A jet times a jet follows the product rule; a jet
    times a rational constant scales value and parts (for float jets that
    product has the bits of converting the constant to float once).  Parts
    multiplied by a zero value are dropped, not kept as zeros.
    """

    __slots__ = ("value", "parts")

    def __init__(self, value, parts: dict):
        self.value = value
        self.parts = parts

    def __add__(self, other: Jet) -> Jet:
        ad, bd = self.parts, other.parts
        if not ad:
            parts = bd
        elif not bd:
            parts = ad
        else:
            parts = dict(ad)
            for k, v in bd.items():
                parts[k] = parts[k] + v if k in parts else v
        return Jet(self.value + other.value, parts)

    def __mul__(self, other) -> Jet:
        av, ad = self.value, self.parts
        if not isinstance(other, Jet):
            return Jet(av * other, {k: v * other for k, v in ad.items()})
        bv, bd = other.value, other.parts
        parts: dict = {}
        if ad and bv != 0:
            for k, v in ad.items():
                parts[k] = v * bv
        if bd and av != 0:
            for k, v in bd.items():
                parts[k] = parts[k] + av * v if k in parts else av * v
        return Jet(av * bv, parts)


def jet_numerators(zero, coeffs, n: int, d: int):
    """``(numerators, norm2)`` in canonical basis order from jets seeded in
    every basis direction, with the quotient rule applied once: entry ``k``
    of the gradient is ``numerators[k] / (d^2 norm2^3)``."""
    basis = enumerate_monomials(n, d)
    terms = dict(coeffs)
    one = zero + 1
    jets = [(alpha, Jet(terms.get(alpha, zero), {k: one})) for k, alpha in enumerate(basis)]
    p, norm2 = _trace_parts(Jet(zero, {}), jets, n, d)
    numerators = [
        p.parts.get(k, zero) * norm2.value - 2 * p.value * norm2.parts.get(k, zero)
        for k in range(len(basis))
    ]
    return numerators, norm2.value


def flow_derivative(f: SparsePoly, i: int, j: int):
    """Derivative at ``t = 0`` of the normalized norm along ``exp(t E_ij)``.

    The elementary matrix ``E_ij`` acts by the substitution
    ``x_i -> x_i + t x_j`` for ``i != j`` (its exponential is ``I + t E_ij``)
    and by ``x_i -> e^t x_i`` on the diagonal; either flow starts along the
    velocity ``x_j d_i f``, so the derivative is ``2 <x_j d_i f, f> / |f|^2``.
    This is ``2 H(f)_ij``, worked out apart from the trace-formula engine; it
    ties Lie-algebra flows to the hermitian-matrix construction.
    """
    if f.is_zero():
        raise DegenerateInputError("the zero polynomial has no moment matrix")
    if f.is_parametric():
        raise TypeError("flow_derivative expects a numeric polynomial")
    if not (1 <= i <= f.n and 1 <= j <= f.n):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{f.n}")
    ii, jj = i - 1, j - 1
    velocity = {}
    for alpha, c in f.terms.items():
        if alpha[ii]:
            beta = list(alpha)
            beta[ii] -= 1
            beta[jj] += 1
            velocity[tuple(beta)] = alpha[ii] * c
    return 2 * inner_product(SparsePoly(f.n, f.d, velocity), f) / inner_product(f, f)


def fixed_point_check(f: SparsePoly) -> bool:
    """True iff the one-parameter subgroup generated by the (diagonal) moment
    matrix fixes ``f`` in projective space.

    The action scales the term ``x^a`` by ``e^(a . diag)``; after projective
    normalization the form is fixed iff every support exponent pairs to the
    same value.  Decided exactly for rational input, and within
    ``RESIDUAL_TOL`` for float input.
    """
    if f.is_zero():
        raise DegenerateInputError("zero polynomial")
    m = moment_matrix(f)
    exact = f.is_exact()
    offdiag = [m[i][j] for i in range(f.n) for j in range(f.n) if i != j]
    if exact:
        if any(v != 0 for v in offdiag):
            raise ValueError("fixed-point criterion needs a diagonal moment matrix")
    elif any(abs(float(v)) > RESIDUAL_TOL for v in offdiag):
        raise ValueError("fixed-point criterion needs a diagonal moment matrix")
    lam = [m[i][i] for i in range(f.n)]
    support = sorted(f.terms, key=canonical_key)
    base = support[0]
    mu0 = sum(e * l for e, l in zip(base, lam))
    for alpha in support[1:]:
        mu = sum(e * l for e, l in zip(alpha, lam))
        delta = mu - mu0
        if exact:
            if delta != 0:
                return False
        elif abs(float(delta)) > RESIDUAL_TOL:
            return False
    return True


def per_pattern_merge(family, patterns) -> list:
    """The solutions that the sign patterns ``patterns`` (tuples of values,
    in order) give the family: each pattern substituted by
    ``ParamPoly.subs`` and canonicalised by ``torus_canonical`` on its own,
    then merged into the first torus class within ``RESIDUAL_TOL`` by
    ``polys_close`` when its score is lower (all values positive first, then
    the float coefficients in canonical order), each class verified and the
    classes sorted by their float values."""
    kept = []  # (score, values, poly, canonical form) per class
    for values in patterns:
        subs = [v if isinstance(v, Fraction) else float(v) for v in values]
        poly = SparsePoly(family.poly.n, family.poly.d,
                          {a: c.subs(subs) for a, c in family.poly.terms.items()})
        canonical = torus_canonical(poly)
        coeffs = tuple(float(poly.terms[a]) for a in sorted(poly.terms, key=canonical_key))
        score = (0 if all(float(v) > 0 for v in values) else 1, coeffs)
        k = next((k for k, c in enumerate(kept) if polys_close(c[3], canonical)), len(kept))
        if k == len(kept) or score < kept[k][0]:
            kept[k:k + 1] = [(score, values, poly, canonical)]
    solutions = [CriticalSolution(family, values, verify_critical(poly), canonical)
                 for _, values, poly, canonical in kept]
    return sorted(solutions, key=lambda s: tuple(map(float, s.values)))
