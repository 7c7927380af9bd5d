import random
from fractions import Fraction
from math import comb

import pytest

from conftest import random_rational_poly
from momentforge.fixtures import M2_BASIS, M3_BASIS, mono
from momentforge.polyring import ParamPoly, RationalFunction, SparsePoly, poly_scale
from momentforge.symd import (
    MonomialBasis,
    coefficient_vector,
    enumerate_monomials,
    inner_product,
    projective_normalize,
    weight,
)


class TestEnumerateMonomials:
    def test_printed_fixtures(self):
        assert list(enumerate_monomials(3, 2).order) == [mono(s) for s in M2_BASIS]
        assert list(enumerate_monomials(3, 3).order) == [mono(s) for s in M3_BASIS]

    def test_single_variable(self):
        assert enumerate_monomials(1, 5).order == ((5,),)

    def test_counts(self):
        for n in range(1, 6):
            for d in range(1, 7):
                basis = enumerate_monomials(n, d)
                assert len(basis) == comb(n + d - 1, d)
                assert len(set(basis.order)) == len(basis)
                assert all(sum(a) == d for a in basis.order)

    def test_cached(self):
        assert enumerate_monomials(3, 4) is enumerate_monomials(3, 4)

    def test_value_semantics(self):
        basis = enumerate_monomials(3, 2)
        copy = MonomialBasis(3, 2, tuple(basis.order))
        assert copy is not basis
        assert copy == basis and hash(copy) == hash(basis)
        assert basis != enumerate_monomials(3, 3)
        assert basis != (basis.n, basis.d, basis.order)
        assert repr(enumerate_monomials(1, 2)) == "MonomialBasis(n=1, d=2, order=((2,),))"

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
            from momentforge.polyring import poly_add

            assert inner_product(f, poly_add(g, poly_scale(h, lam))) == inner_product(
                f, g
            ) + lam * inner_product(f, h)
            assert inner_product(f, f) > 0

    def test_orthogonality_table_exhaustive(self):
        # <m^a, m^b> = 0 for a != b and = weight(a) on the diagonal
        for d in (3, 4):
            basis = enumerate_monomials(3, d)
            for a in basis.order:
                for b in basis.order:
                    value = inner_product(
                        SparsePoly.monomial(3, a), SparsePoly.monomial(3, b)
                    )
                    assert value == (weight(a) if a == b else 0)


class TestCoefficientVector:
    def test_x3_plus_y3(self):
        f = SparsePoly.make(3, 3, {mono("x3"): Fraction(1), mono("y3"): Fraction(1)})
        assert [int(c) for c in coefficient_vector(f).entries] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0]

    def test_xyz_position(self):
        v = coefficient_vector(SparsePoly.monomial(3, (1, 1, 1)))
        assert [int(c) for c in v.entries] == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]

    def test_zero(self):
        v = coefficient_vector(SparsePoly.zero(3, 3))
        assert all(c == 0 for c in v.entries)

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            f = random_rational_poly(rng, 3, 4, density=0.5)
            v = coefficient_vector(f)
            terms = {a: c for a, c in zip(v.basis.order, v.entries) if c != 0}
            assert SparsePoly(f.n, f.d, terms) == f


class TestProjectiveNormalize:
    def test_basic(self):
        f = SparsePoly.make(3, 3, {mono("x2y"): Fraction(2), mono("xy2"): Fraction(4)})
        out = projective_normalize(coefficient_vector(f))
        assert list(out.entries)[1:3] == [Fraction(1), Fraction(2)]

    def test_idempotent_and_scale_invariant(self):
        rng = random.Random(37)
        for _ in range(20):
            f = random_rational_poly(rng, 3, 3, density=0.4)
            v = projective_normalize(coefficient_vector(f))
            assert projective_normalize(v) == v
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            w = projective_normalize(coefficient_vector(poly_scale(f, lam)))
            assert w == v

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            projective_normalize(coefficient_vector(SparsePoly.zero(3, 3)))

    def test_parametric_family_normalization(self):
        # b3*z^3 + x*y*z + b2*y^3 + b1*x^3 -> [1,0,0,b2/b1,0,1/b1,0,0,0,b3/b1]
        b1, b2, b3 = (ParamPoly.symbol(3, i) for i in range(3))
        one = ParamPoly.const(3, 1)
        fam = SparsePoly.make(
            3,
            3,
            {mono("z3"): b3, mono("xyz"): one, mono("y3"): b2, mono("x3"): b1},
        )
        out = projective_normalize(coefficient_vector(fam))
        assert out.entries[0] == RationalFunction.make(b1, b1)
        assert out.entries[3] == RationalFunction.make(b2, b1)
        assert out.entries[5] == RationalFunction.make(one, b1)
        assert out.entries[9] == RationalFunction.make(b3, b1)
        assert all(
            e == 0 for k, e in enumerate(out.entries) if k not in (0, 3, 5, 9)
        )
