"""The integer univariate kernel against sympy and an exact Fraction reference."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from momentforge import univariate as uni
from momentforge.polyring import ParamPoly

X = sympy.Symbol("x")
B1, B2 = sympy.symbols("b1 b2")


def fraction_horner(p, x: Fraction) -> Fraction:
    """Reference value of p(x) in exact rationals."""
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def to_sympy(p):
    return sympy.Poly(list(reversed(p)), X)


def planted_poly(rng: random.Random):
    """Integer polynomial with rational and quadratic-irrational roots, some
    of them repeated, times a random factor."""
    p = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([-2, -1, 1, 3])]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randint(-12, 12), rng.randint(1, 6)
        factor = [-a, b] if rng.random() < 0.6 else [-a, 0, b]  # b*x - a or b*x^2 - a
        for _ in range(rng.choice([1, 1, 2])):
            p = uni.mul(p, factor)
    return p


# sparse ones first: their remainder sequences skip degrees, so a pseudo-division
# takes an odd number of steps and a negative scale factor would flip a sign
SPARSE = [[0, 2, 0, 1], [3, 0, 0, 0, -1, 0, 1], [2, 0, 0, 0, 2, 1], [1, 0, 0, 0, 1, 1]]
POLYS = SPARSE + [
    p for p in (planted_poly(random.Random(seed)) for seed in range(42)) if uni.deg(p) >= 1
]


def distinct_real_roots(p):
    return sorted(set(sympy.real_roots(to_sympy(p))))


@pytest.mark.parametrize("p", POLYS)
def test_sturm_counts_match_sympy(p):
    chain = uni.sturm_chain(uni.squarefree_part(p))
    roots = distinct_real_roots(p)
    for lo, hi in [(-100, 100), (0, 100), (-100, 0), (Fraction(-3, 2), Fraction(7, 3))]:
        if uni.sign_at(p, lo) == 0 or uni.sign_at(p, hi) == 0:
            continue
        want = sum(1 for r in roots if lo < r <= hi)
        # Sturm's theorem: the roots in (lo, hi] are the lost sign variations
        count = uni._sign_variations(chain, Fraction(lo)) - uni._sign_variations(chain, Fraction(hi))
        assert count == want


@pytest.mark.parametrize("p", POLYS)
def test_isolated_intervals_hold_one_sympy_root_each(p):
    roots = distinct_real_roots(p)
    square_free = uni.squarefree_part(p)
    # a repeated root is still isolated once; refinement needs the squarefree part
    for poly in (p, square_free):
        intervals = uni.isolate_real_roots(poly)
        assert len(intervals) == len(roots)
        for (lo, hi), root in zip(intervals, roots):
            assert lo < root < hi
    for (lo, hi), root in zip(uni.isolate_real_roots(square_free), roots):
        rlo, rhi = uni.refine_interval(square_free, lo, hi, Fraction(1, 10**12))
        assert rlo <= root <= rhi and rhi - rlo <= Fraction(1, 10**12)


@pytest.mark.parametrize("p", POLYS)
def test_squarefree_part_and_gcd_match_sympy(p):
    got = uni.squarefree_part(p)
    assert to_sympy(got).monic() == sympy.sqf_part(to_sympy(p)).monic()
    assert got[-1] > 0 and math.gcd(*got) == 1
    derivative = uni.derivative(p)
    g = uni.poly_gcd(p, derivative)
    want = sympy.gcd(to_sympy(p), to_sympy(derivative))
    assert sympy.Poly(list(reversed(g)), X).monic() == want.monic()
    assert g[-1] > 0 and math.gcd(*g) == 1


BIVARIATE_PAIRS = [
    ({(2, 1): 1, (0, 1): 3, (0, 0): -1}, {(1, 2): 1, (1, 0): -1, (0, 0): 2}),
    ({(3, 0): 2, (1, 2): -5, (0, 1): 7, (0, 0): 1}, {(2, 2): 3, (1, 1): -1, (0, 3): 4}),
    ({(1, 1): 1, (0, 0): -6}, {(2, 0): 1, (0, 2): 1, (0, 0): -13}),
    ({(2, 0): 1, (1, 1): 2, (0, 2): 1}, {(1, 0): 1, (0, 1): 1, (0, 0): 3}),
]


@pytest.mark.parametrize("a, b", BIVARIATE_PAIRS)
@pytest.mark.parametrize("eliminate", [0, 1])
def test_resultant_matches_sympy(a, b, eliminate):
    p, q = ParamPoly(2, a), ParamPoly(2, b)

    def expr(terms):
        return sum(c * B1**i * B2**j for (i, j), c in terms.items())

    sym, other = (B1, B2) if eliminate == 0 else (B2, B1)
    want = sympy.Poly(sympy.resultant(expr(a), expr(b), sym), other)
    got = uni.resultant(p, q, eliminate)
    assert got == [int(c) for c in reversed(want.all_coeffs())]


def test_resultant_clears_denominators_by_a_positive_factor():
    a, b = BIVARIATE_PAIRS[0]
    halves = ParamPoly(2, {e: Fraction(c, 2) for e, c in a.items()})
    got = uni.resultant(halves, ParamPoly(2, b), 0)
    assert got == uni.resultant(ParamPoly(2, a), ParamPoly(2, b), 0)


def test_inexact_division_raises():
    with pytest.raises(ArithmeticError):
        uni.exact_quotient([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(ArithmeticError):
        uni.exact_quotient([1, 2], [0, 2])  # 2x + 1 over 2x
    with pytest.raises(ArithmeticError):
        uni.exact_quotient([0, 3], [0, 2])  # 3x over 2x
    assert uni.exact_quotient([-1, 0, 1], [1, 1]) == [-1, 1]


integer_polys = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9).filter(
    lambda p: p[-1] != 0
)
rationals = st.fractions(max_denominator=10**6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=integer_polys, x=rationals, plant_root=st.booleans())
def test_integer_sign_matches_fraction_horner(p, x, plant_root):
    if plant_root:  # make x an exact root: multiply by (den*t - num)
        p = uni.mul(p, [-x.numerator, x.denominator])
    value = fraction_horner(p, x)
    assert uni.sign_at(p, x) == (value > 0) - (value < 0)
    if plant_root:
        assert uni.sign_at(p, x) == 0
