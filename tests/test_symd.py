import random
from fractions import Fraction
from math import comb

import pytest

from conftest import add_poly, random_rational_poly, scale_poly
from momentforge.fixtures import M2_BASIS, M3_BASIS, mono
from momentforge.polyring import SparsePoly
from momentforge.symd import enumerate_monomials, inner_product, weight


class TestEnumerateMonomials:
    def test_printed_fixtures(self):
        assert list(enumerate_monomials(3, 2)) == [mono(s) for s in M2_BASIS]
        assert list(enumerate_monomials(3, 3)) == [mono(s) for s in M3_BASIS]

    def test_single_variable(self):
        assert enumerate_monomials(1, 5) == ((5,),)

    def test_counts(self):
        for n in range(1, 6):
            for d in range(1, 7):
                basis = enumerate_monomials(n, d)
                assert len(basis) == comb(n + d - 1, d)
                assert len(set(basis)) == len(basis)
                assert all(sum(a) == d for a in basis)

    def test_cached(self):
        assert enumerate_monomials(3, 4) is enumerate_monomials(3, 4)

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            enumerate_monomials(0, 3)
        with pytest.raises(ValueError):
            enumerate_monomials(3, 0)


class TestWeight:
    def test_pure_power(self):
        assert weight((3, 0, 0)) == 1

    def test_two_variables(self):
        assert weight((2, 1, 0)) == Fraction(1, 3)

    def test_all_distinct(self):
        assert weight((1, 1, 1)) == Fraction(1, 6)


class TestInnerProduct:
    def test_monomial_norm(self):
        f = SparsePoly.monomial(3, (3, 0, 0))
        assert inner_product(f, f) == 1

    def test_orthogonality(self):
        f = SparsePoly.make(3, 3, {mono("x3"): Fraction(1), mono("y3"): Fraction(1)})
        assert inner_product(f, SparsePoly.monomial(3, (3, 0, 0))) == 1

    def test_weighted(self):
        f = SparsePoly.make(3, 2, {mono("xy"): Fraction(2)})
        g = SparsePoly.make(3, 2, {mono("xy"): Fraction(3)})
        assert inner_product(f, g) == 3

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(SparsePoly.monomial(3, (3, 0, 0)), SparsePoly.monomial(3, (2, 0, 0)))

    def test_symmetric_bilinear_positive(self):
        rng = random.Random(23)
        for _ in range(30):
            f = random_rational_poly(rng, 3, 3, density=0.5)
            g = random_rational_poly(rng, 3, 3, density=0.5)
            h = random_rational_poly(rng, 3, 3, density=0.5)
            lam = Fraction(rng.randint(-8, 8), 3)
            assert inner_product(f, g) == inner_product(g, f)
            assert inner_product(f, add_poly(g, scale_poly(h, lam))) == inner_product(
                f, g
            ) + lam * inner_product(f, h)
            assert inner_product(f, f) > 0

    def test_orthogonality_table_exhaustive(self):
        # <m^a, m^b> = 0 for a != b and = weight(a) on the diagonal
        for d in (3, 4):
            basis = enumerate_monomials(3, d)
            for a in basis:
                for b in basis:
                    value = inner_product(
                        SparsePoly.monomial(3, a), SparsePoly.monomial(3, b)
                    )
                    assert value == (weight(a) if a == b else 0)
