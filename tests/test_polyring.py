import json
import random
import re
from fractions import Fraction

import pytest

from conftest import random_rational_poly
from momentforge.fixtures import mono
from momentforge.polyring import (
    ParamPoly,
    SparsePoly,
    canonical_key,
    format_poly,
    parameter_symbols,
    poly_from_json,
    poly_to_json,
    scalar_is_zero,
    substitute_params,
)
from momentforge.symd import enumerate_monomials


def P(**kw):
    """Cubic polynomial from compact monomial names, e.g. P(x3=1, x2y=-2)."""
    terms = {mono(name): Fraction(c) for name, c in kw.items()}
    d = sum(next(iter(terms)))
    return SparsePoly.make(3, d, terms)


class TestSparsePolyValue:
    def test_equality_is_on_shape_and_terms(self):
        f = P(x3=1, x2y=-2)
        assert f == SparsePoly(3, 3, {mono("x3"): Fraction(1), mono("x2y"): Fraction(-2)})
        assert f != P(x3=1)
        assert SparsePoly(3, 3, {}) != SparsePoly(3, 4, {})
        assert SparsePoly(3, 3, {}) != SparsePoly(2, 3, {})
        assert f != (f.n, f.d, f.terms)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(P(x3=1))

    def test_repr_is_the_printed_form(self):
        f = P(x3=1, xyz=Fraction(-1, 2))
        assert repr(f) == str(f) == format_poly(f)


class TestParamPoly:
    def test_ring_laws_randomized(self):
        rng = random.Random(3)

        def rand_param(k=2):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exp = tuple(rng.randint(0, 2) for _ in range(k))
                terms[exp] = terms.get(exp, Fraction(0)) + Fraction(rng.randint(-4, 4))
            return ParamPoly(k, {e: c for e, c in terms.items() if c})

        for _ in range(60):
            a, b, c = rand_param(), rand_param(), rand_param()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_no_stored_zero_coefficients(self):
        p = ParamPoly(2, {(1, 0): Fraction(1)}) + ParamPoly(2, {(1, 0): Fraction(-1)})
        assert p.terms == {}

    def test_diff_and_subs(self):
        b1 = ParamPoly.symbol(2, 0)
        b2 = ParamPoly.symbol(2, 1)
        p = b1 * b1 * 3 + b1 * b2 - 7
        assert p.diff(0) == b1 * 6 + b2
        assert p.subs([Fraction(2), Fraction(5)]) == 12 + 10 - 7

    def test_constant_equals_its_value_and_is_unhashable(self):
        for value in (Fraction(1), Fraction(-3, 7), Fraction(0)):
            const = ParamPoly.const(1, value)
            assert const == value
            with pytest.raises(TypeError):
                hash(const)
        assert ParamPoly.const(2, 5).key() == (((0, 0), Fraction(5)),)

    def test_float_mixing_rejected(self):
        with pytest.raises(TypeError):
            ParamPoly.symbol(1, 0) * 0.5


class TestSubstituteParams:
    def test_basic(self):
        b1 = ParamPoly.symbol(1, 0)
        fam = SparsePoly.make(
            3, 3, {mono("x2z"): b1, mono("xy2"): ParamPoly.const(1, 1)}
        )
        assert substitute_params(fam, [Fraction(1)]) == P(x2z=1, xy2=1)

    def test_two_symbols(self):
        b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
        fam = SparsePoly.make(
            3,
            3,
            {mono("z3"): b1, mono("y3"): b2, mono("x3"): ParamPoly.const(2, 1)},
        )
        out = substitute_params(fam, [Fraction(0), Fraction(1)])
        assert out == P(y3=1, x3=1)

    def test_float_mode(self):
        import math

        b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
        fam = SparsePoly.make(
            3,
            3,
            {mono("xz2"): b1, mono("y3"): b2, mono("x3"): ParamPoly.const(2, 1)},
        )
        out = substitute_params(fam, [Fraction(3), math.sqrt(2)])
        assert out.terms[mono("xz2")] == 3
        assert out.terms[mono("y3")] == pytest.approx(math.sqrt(2))

    def test_missing_symbol(self):
        b1 = ParamPoly.symbol(2, 0)
        fam = SparsePoly.make(3, 3, {mono("x3"): b1})
        with pytest.raises(ValueError):
            substitute_params(fam, [Fraction(1)])


def reference_substitute_params(f, values):
    """``substitute_params`` with ``ParamPoly.subs`` on every coefficient."""
    nsyms = parameter_symbols(f)
    if nsyms == 0:
        return f
    if len(values) != nsyms:
        raise ValueError(f"expected {nsyms} parameter values, got {len(values)}")
    values = [v if isinstance(v, float) else Fraction(v) for v in values]
    out = {}
    for exp, coeff in f.terms.items():
        c = coeff.subs(values) if isinstance(coeff, ParamPoly) else coeff
        if not scalar_is_zero(c):
            out[exp] = c
    return SparsePoly(f.n, f.d, out)


def typed_terms(f):
    # repr tells -0.0 from 0.0 and round-trips every other float bit for bit
    return [(a, type(c), repr(c)) for a, c in f.terms.items()]


class TestOneTermSubstitution:
    def draw_family(self, rng, k):
        """A cubic with one-term coefficients (symbols, the pinned 1, powers,
        int constants) and now and then a sum of terms or a rational."""
        support = rng.sample(enumerate_monomials(3, 3), rng.randint(1, 5))
        terms = {}
        for a in support:
            exp = tuple(rng.choice([0, 0, 1, 2]) for _ in range(k))
            kind = rng.randrange(6)
            if kind == 0:
                terms[a] = ParamPoly._trusted(k, {exp: rng.choice([1, -3])})  # int
            elif kind == 1:
                terms[a] = ParamPoly(k, {exp: 1, tuple(reversed(exp)): Fraction(1, 3)})
            elif kind == 2:
                terms[a] = Fraction(rng.randint(-5, 5) or 1, 3)
            else:
                terms[a] = ParamPoly(k, {exp: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))})
        return SparsePoly(3, 3, terms)

    def draw_value(self, rng):
        return rng.choice([
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(0), 0.0, -0.0,
            rng.uniform(-3, 3), -rng.uniform(1e-3, 1), rng.randint(-3, 3),
        ])

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_subs_on_every_coefficient(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            k = rng.randint(1, 3)
            f = self.draw_family(rng, k)
            values = [self.draw_value(rng) for _ in range(k)]
            if rng.random() < 0.3:  # all exact, so the exact path runs too
                values = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k)]
            got = substitute_params(f, values)
            assert typed_terms(got) == typed_terms(reference_substitute_params(f, values))

    def test_a_family_with_zero_values(self):
        b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
        fam = SparsePoly.make(3, 3, {mono("x3"): b1, mono("y3"): b2,
                                     mono("z3"): ParamPoly.const(2, 1)})
        for values in ([Fraction(-3, 2), Fraction(5)], [-1.25, 0.1], [Fraction(0), Fraction(5)],
                       [Fraction(2), -0.0], [0.0, Fraction(-1, 3)]):
            got = substitute_params(fam, values)
            assert typed_terms(got) == typed_terms(reference_substitute_params(fam, values))

    @pytest.mark.parametrize("values", [
        [Fraction(1)], [Fraction(1)] * 3, [None, Fraction(1)], ["x", Fraction(1)],
        [Fraction(1), 1j],
    ])
    def test_errors_are_unchanged(self, values):
        b1 = ParamPoly.symbol(2, 0)
        fam = SparsePoly.make(3, 3, {mono("x3"): b1, mono("y3"): ParamPoly.const(2, 1)})
        with pytest.raises((ValueError, TypeError)) as want:
            reference_substitute_params(fam, values)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            substitute_params(fam, values)

    def test_a_coefficient_in_another_ring_is_refused_by_subs(self):
        fam = SparsePoly(3, 3, {mono("x3"): ParamPoly.symbol(2, 0),
                                mono("y3"): ParamPoly.symbol(3, 1)})
        with pytest.raises(ValueError, match="^wrong number of parameter values$"):
            substitute_params(fam, [Fraction(1), Fraction(2)])


class TestJsonFormat:
    def test_round_trip_exact(self):
        rng = random.Random(13)
        for _ in range(20):
            f = random_rational_poly(rng, 3, 3, density=0.6)
            assert poly_from_json(json.loads(json.dumps(poly_to_json(f)))) == f

    def test_round_trip_parametric(self):
        b1 = ParamPoly.symbol(1, 0)
        fam = SparsePoly.make(
            3, 3, {mono("x2z"): b1 * Fraction(2, 3), mono("xy2"): ParamPoly.const(1, 1)}
        )
        again = poly_from_json(json.loads(json.dumps(poly_to_json(fam))))
        assert again == fam

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_coefficient_rejected(self, flag):
        with pytest.raises(ValueError):
            poly_from_json({"n": 3, "d": 3, "terms": [{"exp": [3, 0, 0], "coeff": flag}]})

    def test_rational_coefficients_as_strings(self):
        payload = poly_to_json(P(x3=1))
        assert payload["terms"][0]["coeff"] == "1"

    def test_canonical_term_order(self):
        payload = poly_to_json(P(z3=1, x3=1, xyz=1))
        exps = [tuple(t["exp"]) for t in payload["terms"]]
        assert exps == sorted(exps, key=canonical_key)
