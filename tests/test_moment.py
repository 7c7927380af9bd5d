import json
import math
import random
from fractions import Fraction
from math import factorial, prod

import pytest
import sympy

from conftest import random_rational_poly, scale_poly
from momentforge import cli
from momentforge.critical import solve_family, verify_critical
from momentforge.diagonal import diagonal_families
from momentforge.fixtures import CRITICAL_CUBICS, CRITICAL_QUARTICS, critical_fixture_poly, mono
from momentforge.moment import (
    _float_numerators,
    _float_plan,
    _inner_products,
    _divided,
    _lie_numerators,
    _moment_numerators,
    _norm2,
    _parametric,
    _root_difference_free,
    _trace_parts,
    _u_quotients,
    gradient,
    gradient_symbolic,
    moment_matrix,
    square_length,
    square_length_symbolic,
    symbolic_moment_matrix,
)
from momentforge.orbits import build_family, orbit_classes
from momentforge.polyring import (
    DegenerateInputError,
    ParamPoly,
    SparsePoly,
    parameter_symbols,
    substitute_params,
)
from momentforge.symd import enumerate_monomials, root_pair, weight
from oracles import Jet, flow_derivative, jet_numerators


def P(**kw):
    terms = {mono(name): Fraction(c) for name, c in kw.items()}
    d = sum(next(iter(terms)))
    return SparsePoly.make(3, d, terms)


X3Y3 = P(x3=1, y3=1)


def diag(*values):
    """The diagonal matrix with these entries, as rows."""
    n = len(values)
    return tuple(tuple(v if i == j else 0 for j in range(n)) for i, v in enumerate(values))


def hermitian(f):
    """The matrix ``H(f) = m/2 + (d/n) I``, from the moment matrix."""
    m = moment_matrix(f)
    shift = Fraction(f.d, f.n)
    return tuple(
        tuple(m[i][j] / 2 + (shift if i == j else 0) for j in range(f.n)) for i in range(f.n)
    )


class TestHermitianMatrix:
    def test_x3(self):
        assert hermitian(P(x3=1)) == diag(3, 0, 0)

    def test_fermat_cubic(self):
        assert hermitian(P(x3=1, y3=1, z3=1)) == diag(1, 1, 1)

    def test_x4(self):
        assert hermitian(SparsePoly.monomial(3, (4, 0, 0))) == diag(4, 0, 0)

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            moment_matrix(SparsePoly(3, 3, {}))

    def test_real_symmetry(self):
        rng = random.Random(41)
        for _ in range(20):
            h = hermitian(random_rational_poly(rng, 3, 3, density=0.6))
            assert all(h[i][j] == h[j][i] for i in range(3) for j in range(3))


class TestMomentMatrix:
    def test_published_example(self):
        assert moment_matrix(X3Y3) == diag(1, 1, -2)

    def test_xyz_is_minimal(self):
        m = moment_matrix(SparsePoly.monomial(3, (1, 1, 1)))
        assert all(v == 0 for row in m for v in row)

    def test_x3(self):
        assert moment_matrix(P(x3=1)) == diag(4, -2, -2)

    def test_trace_zero_exactly(self):
        rng = random.Random(43)
        for d in (3, 4):
            for _ in range(50):
                m = moment_matrix(random_rational_poly(rng, 3, d, density=0.5))
                assert sum(m[i][i] for i in range(3)) == 0

    def test_scale_invariance(self):
        rng = random.Random(47)
        for _ in range(50):
            f = random_rational_poly(rng, 3, 3, density=0.5)
            lam = Fraction(rng.randint(1, 12), rng.randint(1, 12)) * rng.choice((1, -1))
            assert moment_matrix(scale_poly(f, lam)) == moment_matrix(f)
            assert square_length(scale_poly(f, lam)) == square_length(f)


    @pytest.mark.parametrize("k", [-1000, -300, 300, 1000])
    def test_power_of_two_scaling_is_bit_exact(self, k):
        # m and |m|^2 have degree 0 in the coefficients, and a power of two
        # commutes with rounding, so 2^k f gives the bits of f, on the gated
        # float cubic x^3 + 0.5*x^2*y + y^3 + z^3; unscaled, the squared norm
        # overflowed or underflowed
        f = SparsePoly.make(3, 3, {**P(x3=1, y3=1, z3=1).terms, mono("x2y"): 0.5})
        scaled = SparsePoly.make(3, 3, {a: c * Fraction(2) ** k if isinstance(c, Fraction)
                                        else math.ldexp(c, k) for a, c in f.terms.items()})
        assert repr(moment_matrix(scaled)) == repr(moment_matrix(f))
        assert repr(square_length(scaled)) == repr(square_length(f))


class TestSquareLength:
    def test_examples(self):
        assert square_length(X3Y3) == 6
        assert square_length(P(x3=1, y3=1, z3=1)) == 0
        assert square_length(P(x3=1)) == 24

    def test_nonnegative(self):
        rng = random.Random(53)
        for _ in range(40):
            assert square_length(random_rational_poly(rng, 3, 3, density=0.4)) >= 0


def quotient_at(pair, point):
    numer, denom = pair
    return numer.subs(point) / denom.subs(point)


def reduction_families():
    b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
    # every coefficient a multiple of b1: the pair cancels b1^4
    yield SparsePoly.make(3, 3, {mono("x3"): b1 * b2, mono("x2z"): b1 * 3, mono("y3"): b1})
    for support in orbit_classes(3, 3, 3):
        yield build_family(support).poly


class TestSquareLengthSymbolic:
    def test_single_parameter_scale_family_is_constant(self):
        # 216 b^4 / (9 b^4): the monomial b^4 and the content 9 cancel
        fam = SparsePoly.make(3, 3, {mono("x3"): ParamPoly.symbol(1, 0)})
        assert square_length_symbolic(fam) == (ParamPoly.const(1, 24), ParamPoly.const(1, 1))

    def test_zero_numerator_comes_with_denominator_one(self):
        fam = SparsePoly.make(3, 3, {mono("xyz"): ParamPoly.symbol(1, 0)})
        assert square_length_symbolic(fam) == (ParamPoly(1), ParamPoly.const(1, 1))

    def test_monomial_and_content_reduction(self):
        # the pair equals P / (d^2 norm2^2), shares no parameter monomial,
        # and its denominator is primitive with a positive leading term
        for fam in reduction_families():
            numer, denom = square_length_symbolic(fam)
            p, norm2 = _trace_parts(*_parametric(fam), fam.n, fam.d)
            assert numer * norm2 * norm2 * (fam.d * fam.d) == p * denom
            assert all(min(a, b) == 0 for a, b in zip(numer.monomial_gcd(), denom.monomial_gcd()))
            assert denom.content() == 1 and denom.terms[max(denom.terms)] > 0

    def test_numeric_input_is_refused(self):
        with pytest.raises(TypeError, match="use square_length"):
            square_length_symbolic(P(x3=1, y3=1))

    def test_substitution_consistency(self):
        b1 = ParamPoly.symbol(1, 0)
        fam = SparsePoly.make(
            3, 3, {mono("x2z"): b1, mono("xy2"): ParamPoly.const(1, 1)}
        )
        numeric = substitute_params(fam, [Fraction(1)])
        assert quotient_at(square_length_symbolic(fam), [Fraction(1)]) == square_length(numeric)

    def test_general_quartic_agrees_with_numeric(self):
        basis = enumerate_monomials(3, 4)
        size = len(basis)
        general = SparsePoly.make(
            3, 4, {a: ParamPoly.symbol(size, k) for k, a in enumerate(basis)}
        )
        pair = square_length_symbolic(general)
        rng = random.Random(59)
        for _ in range(3):
            point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
            while all(v == 0 for v in point):
                point = [Fraction(rng.randint(-4, 4)) for _ in range(size)]
            numeric = SparsePoly.make(
                3, 4, {a: c for a, c in zip(basis, point) if c}
            )
            assert quotient_at(pair, point) == square_length(numeric)


class TestSymbolicMomentMatrix:
    def test_quartic_spot_coefficients(self):
        basis = enumerate_monomials(3, 4)
        size = len(basis)
        general = SparsePoly.make(
            3, 4, {a: ParamPoly.symbol(size, k) for k, a in enumerate(basis)}
        )
        numerators, denom = symbolic_moment_matrix(general)

        def coeff(poly, sub_a, sub_b):
            exp = [0] * size
            exp[basis.index(sub_a)] += 1
            exp[basis.index(sub_b)] += 1
            return poly.terms.get(tuple(exp), Fraction(0))

        assert coeff(denom, (4, 0, 0), (4, 0, 0)) == 36
        assert coeff(numerators[0][0], (4, 0, 0), (4, 0, 0)) == 192
        assert coeff(numerators[1][1], (4, 0, 0), (4, 0, 0)) == -96
        assert coeff(numerators[0][1], (3, 1, 0), (4, 0, 0)) == 72


    def test_family_with_vanishing_entries(self):
        # b1*x^3 + y^3: every off-diagonal entry and the z-row vanish identically
        fam = SparsePoly.make(3, 3, {mono("x3"): ParamPoly.symbol(1, 0), mono("y3"): 1})
        numerators, denom = symbolic_moment_matrix(fam)
        b1 = ParamPoly.symbol(1, 0)
        assert denom == b1 * b1 + 1
        assert numerators[0][0] == b1 * b1 * 4 - 2
        assert numerators[2][2] == b1 * b1 * -2 - 2
        assert all(numerators[i][j].is_zero() for i in range(3) for j in range(3) if i != j)


class TestGradient:
    def test_zero_at_fermat_cubic(self):
        grad = gradient(P(x3=1, y3=1, z3=1))
        assert len(grad) == 10
        assert all(g == 0 for g in grad)

    def test_zero_at_monomial(self):
        assert all(g == 0 for g in gradient(P(x3=1)))

    def test_matches_finite_differences(self):
        # independent oracle: central differences of the square length
        rng = random.Random(61)
        basis = enumerate_monomials(3, 3)
        h = 1e-5
        for _ in range(25):
            f = random_rational_poly(rng, 3, 3)
            grad = [float(g) for g in gradient(f)]
            coeffs = [float(f.terms.get(a, 0)) for a in basis]
            for k, alpha in enumerate(basis):
                up = dict(zip(basis, coeffs))
                dn = dict(zip(basis, coeffs))
                up[alpha] += h
                dn[alpha] -= h
                fd = (
                    square_length(SparsePoly(3, 3, {a: c for a, c in up.items() if c}))
                    - square_length(SparsePoly(3, 3, {a: c for a, c in dn.items() if c}))
                ) / (2 * h)
                assert abs(grad[k] - fd) < 1e-7

    def test_euler_relation(self):
        # degree-0 homogeneity: sum_a c_a dL/dc_a = 0 exactly
        rng = random.Random(67)
        basis = enumerate_monomials(3, 3)
        for _ in range(30):
            f = random_rational_poly(rng, 3, 3, density=0.6)
            grad = gradient(f)
            total = sum(
                (f.terms.get(a, Fraction(0)) * g for a, g in zip(basis, grad)),
                Fraction(0),
            )
            assert total == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateInputError):
            gradient(SparsePoly(3, 3, {}))

    @pytest.mark.parametrize("k", [-1000, -300, 300, 1000])
    def test_power_of_two_scaling_is_bit_exact(self, k):
        # the gradient has degree -1 in the coefficients and a power of two
        # commutes with rounding, so 2^k f gives the entries of f times 2^-k,
        # on the gated float cubic x^3 + 0.5*x^2*y + y^3 + z^3; unscaled, the
        # numerators and d^2 norm2^3 overflowed or underflowed first
        f = SparsePoly.make(3, 3, {**P(x3=1, y3=1, z3=1).terms, mono("x2y"): 0.5})
        scaled = SparsePoly.make(3, 3, {a: c * Fraction(2) ** k if isinstance(c, Fraction)
                                        else math.ldexp(c, k) for a, c in f.terms.items()})
        expected = [math.ldexp(g, -k) for g in gradient(f)]
        assert [repr(g) for g in gradient(scaled)] == [repr(g) for g in expected]

    def test_critical_monomial_beyond_the_unscaled_range(self):
        # unscaled, the y^3 entry was inf - inf = nan
        f = SparsePoly.make(3, 3, {mono("y3"): 1e63})
        assert [repr(g) for g in gradient(f)] == ["0.0"] * 10
        assert verify_critical(f) == 0.0


class TestGradientSymbolic:
    def test_matches_pointwise_gradient(self):
        b1 = ParamPoly.symbol(1, 0)
        fam = SparsePoly.make(
            3, 3, {mono("x2z"): b1, mono("xy2"): ParamPoly.const(1, 1)}
        )
        numerators, denom = gradient_symbolic(fam)
        assert len(numerators) == 10
        for value in (Fraction(1), Fraction(-2), Fraction(3, 7)):
            numeric = substitute_params(fam, [value])
            dvalue = denom.subs([value])
            point = gradient(numeric)
            for num, g in zip(numerators, point):
                assert num.subs([value]) == g * dvalue


def jet_gradient(zero, coeffs, n, d):
    """Reference: forward jets in every basis direction, quotient rule once,
    as ``(numerators, d^2 norm2^3)``."""
    numerators, norm2 = jet_numerators(zero, coeffs, n, d)
    return numerators, norm2 * norm2 * norm2 * (d * d)


ORACLE_SHAPES = [(2, 3), (3, 3), (3, 4), (3, 5), (4, 3)]


def oracle_families(n, d):
    # seeded draws over the term counts 2..4; 28 of the 42 are not diagonal
    rng = random.Random(1000 * n + d)
    for m in (2, 3, 4):
        reps = orbit_classes(n, d, m)
        for support in rng.sample(reps, min(3, len(reps))):
            yield build_family(support).poly


class TestClosedFormGradient:
    """``gradient`` and ``gradient_symbolic`` against the full-basis jet
    reference, exactly: the u-form on diagonal supports, the Lie-algebra
    formula on the others."""

    @pytest.mark.parametrize("n, d", ORACLE_SHAPES)
    def test_symbolic_matches_jets(self, n, d):
        for family in oracle_families(n, d):
            zero, coeffs = _parametric(family)
            assert gradient_symbolic(family) == jet_gradient(zero, coeffs, n, d)

    @pytest.mark.parametrize("n, d", ORACLE_SHAPES)
    def test_exact_matches_jets(self, n, d):
        rng = random.Random(100 * n + d)
        for density in (0.3, 0.6, 1.0):
            for _ in range(4):
                f = random_rational_poly(rng, n, d, density=density)
                numerators, denom = jet_gradient(Fraction(0), list(f.terms.items()), n, d)
                assert gradient(f) == [numer / denom for numer in numerators]

    @pytest.mark.parametrize("n, d", ORACLE_SHAPES)
    def test_moment_numerators_are_traceless(self, n, d):
        # the u-form rests on M being traceless, so Tr M must vanish identically
        def trace(zero, coeffs):
            norm2 = _norm2(zero, coeffs)
            m = _moment_numerators(_inner_products(zero, coeffs, n), norm2, n, d)
            return sum((m[i][i] for i in range(n)), zero)

        for family in oracle_families(n, d):
            assert trace(*_parametric(family)).is_zero()
        rng = random.Random(7 * n + d)
        for _ in range(5):
            f = random_rational_poly(rng, n, d, density=0.5)
            assert trace(Fraction(0), list(f.terms.items())) == 0


def to_sympy(c, symbols):
    """A ``Fraction`` or ``ParamPoly`` as a sympy expression in ``symbols``."""
    if not isinstance(c, ParamPoly):
        return sympy.Rational(c.numerator, c.denominator)
    return sum((to_sympy(v, symbols) * prod(b**e for b, e in zip(symbols, exp))
                for exp, v in c.terms.items()), sympy.Integer(0))


def sympy_gradient(family, symbols):
    """Every ``d |m|^2 / d c_a`` of a family, built in sympy from the
    definitions alone: ``H_ij = <d_j f, d_i f> / (d |f|^2)`` with
    ``|x^a|^2 = a_1! ... a_n! / deg!``, ``m = 2 (H - (d/n) I)`` and
    ``|m|^2 = tr(m^2)``, differentiated in one symbol per basis coefficient
    and then evaluated at the family's coefficients."""
    n, d = family.n, family.d
    basis = enumerate_monomials(n, d)
    xs = sympy.symbols(f"x1:{n + 1}")
    cs = sympy.symbols(f"c1:{len(basis) + 1}")
    f = sum(c * prod(x**e for x, e in zip(xs, a)) for c, a in zip(cs, basis))

    def inner(p, q, deg):
        p, q = sympy.Poly(p, *xs), sympy.Poly(q, *xs)
        return sum(coeff * q.coeff_monomial(mono) * sympy.Rational(prod(map(factorial, mono)),
                                                                  factorial(deg))
                   for mono, coeff in p.terms())

    norm2 = inner(f, f, d)
    partials = [sympy.diff(f, x) for x in xs]
    m = [[2 * inner(partials[j], partials[i], d - 1) / (d * norm2)
          - (2 * sympy.Rational(d, n) if i == j else 0) for j in range(n)] for i in range(n)]
    square = sum(m[i][j] * m[j][i] for i in range(n) for j in range(n))
    at = {c: to_sympy(family.terms[a], symbols) if a in family.terms else 0
          for c, a in zip(cs, basis)}
    return [sympy.diff(square, c).subs(at) for c in cs]


def sympy_oracle_families():
    # the cubic of the `grad` byte gate, and two families with a root
    # difference from each of three shapes
    b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
    yield SparsePoly.make(3, 3, {mono("x2y"): b1, mono("xyz"): b2,
                                 mono("x3"): 1, mono("y3"): 1, mono("z3"): 1})
    for n, d in ((2, 3), (3, 3), (3, 4)):
        families = [f for f in oracle_families(n, d) if not _root_difference_free(tuple(f.terms))]
        yield from families[:2]


class TestSympyOracle:
    """``gradient_symbolic`` and ``gradient`` on supports with a root
    difference against a sympy derivation that shares no code with the
    trace-formula engine."""

    @pytest.mark.parametrize("family", list(sympy_oracle_families()), ids=str)
    def test_gradient_matches_definition(self, family):
        symbols = sympy.symbols(f"b1:{parameter_symbols(family) + 1}")
        expected = sympy_gradient(family, symbols)
        numerators, denominator = gradient_symbolic(family)
        denominator = to_sympy(denominator, symbols)
        assert len(numerators) == len(expected)
        for numer, want in zip(numerators, expected):
            assert sympy.cancel(want - to_sympy(numer, symbols) / denominator) == 0

        values = [Fraction(3, 2), Fraction(-2, 5), Fraction(7, 3)][:len(symbols)]
        point = dict(zip(symbols, (sympy.Rational(v.numerator, v.denominator) for v in values)))
        got = gradient(substitute_params(family, values))
        assert [to_sympy(g, symbols) for g in got] == [want.subs(point) for want in expected]

    @pytest.mark.parametrize("family", list(sympy_oracle_families()), ids=str)
    def test_gradient_matches_jets(self, family):
        zero, coeffs = _parametric(family)
        assert gradient_symbolic(family) == jet_gradient(zero, coeffs, family.n, family.d)
        f = substitute_params(family, [Fraction(3, 2), Fraction(-2, 5)][:zero.nsyms])
        numerators, denom = jet_gradient(Fraction(0), list(f.terms.items()), f.n, f.d)
        assert gradient(f) == [numer / denom for numer in numerators]


# every identically diagonal family of these shapes and term counts
DIAGONAL_CASES = [(3, 3, 2), (3, 3, 3), (3, 3, 4), (3, 4, 2), (3, 4, 3), (3, 4, 4),
                  (3, 5, 3), (3, 5, 4), (4, 3, 3), (4, 3, 4)]


@pytest.fixture(scope="module")
def diagonal_polys():
    return [fam.poly for n, d, m in DIAGONAL_CASES for fam in diagonal_families(n, d, m)]


class TestDiagonalSupportGradient:
    """The u-form on every diagonal family against the full-basis jet
    reference, which holds for any support."""

    def test_symbolic_matches_general_form(self, diagonal_polys):
        assert len(diagonal_polys) == 427
        for family in diagonal_polys:
            zero, coeffs = _parametric(family)
            assert _root_difference_free(tuple(family.terms))
            expected = jet_gradient(zero, coeffs, family.n, family.d)
            assert gradient_symbolic(family) == expected, family

    def test_exact_matches_general_form_at_rational_points(self, diagonal_polys):
        rng = random.Random(83)
        for family in diagonal_polys:
            nsyms = family.terms[next(iter(family.terms))].nsyms
            values = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
                      for _ in range(nsyms)]
            f = substitute_params(family, values)
            numerators, denom = jet_gradient(Fraction(0), list(f.terms.items()), f.n, f.d)
            assert gradient(f) == [numer / denom for numer in numerators], f


def reference_u_form(zero, coeffs, n, d):
    """Reference: the u-form in the coefficients' own ring (``Fraction`` or
    ``ParamPoly``), as the package computed it before its integer kernel:
    the numerators in basis order and the denominator ``d^2 norm2^3``."""
    support = [alpha for alpha, _ in coeffs]
    u = [c * c * weight(alpha) for alpha, c in coeffs]
    norm2 = zero
    for u_b in u:
        norm2 = norm2 + u_b
    pairs = [(j, k, sum(x * y for x, y in zip(support[j], support[k])), u[j] * u[k])
             for j in range(len(u)) for k in range(j, len(u))]
    sums = {}
    for a in support:
        a_dot = [sum(x * y for x, y in zip(a, b)) for b in support]
        inner = zero
        for j, k, b_dot_c, product in pairs:
            coeff = a_dot[j] - b_dot_c if j == k else a_dot[j] + a_dot[k] - 2 * b_dot_c
            if coeff:
                inner = inner + product * coeff
        sums[a] = inner
    terms = dict(coeffs)
    numerators = [terms[a] * (16 * d * d * weight(a)) * sums[a] if a in terms else zero
                  for a in enumerate_monomials(n, d)]
    return numerators, norm2 * norm2 * norm2 * (d * d)


def in_term_order(pair):
    """Numerators and denominator as lists of terms in dict order, which the
    solver's float residuals sum in."""
    numerators, denominator = pair
    return [list(p.terms.items()) for p in numerators], list(denominator.terms.items())


def random_parametric_coefficient(rng, nsyms):
    """A rational constant, or a polynomial of one to three terms such as
    ``b1 - 2/3 b2``."""
    if rng.random() < 0.2:
        return Fraction(rng.randint(1, 9), rng.randint(1, 4))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(0, 2) for _ in range(nsyms))
        terms[exp] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 6))
    return ParamPoly(nsyms, terms)


class TestUFormIsTheDiagonalCase:
    """On supports with no root difference the integer u-form gives the
    Lie-algebra formula's entries exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_input(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(25):
            n, d = rng.choice([(2, 5), (3, 3), (3, 4), (3, 5), (4, 3)])
            support = list(random_root_difference_free(rng, n, d).terms)
            f = SparsePoly.make(n, d, {
                a: Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(1, 12)),
                            rng.randint(1, 10**rng.randint(1, 12))) for a in support})
            quotients, cube = _u_quotients(f)
            numerators, norm2 = _lie_numerators(Fraction(0), list(f.terms.items()), n, d)
            denom = d * d * norm2**3
            assert [Fraction(quotients.get(a, 0), cube) for a in enumerate_monomials(n, d)] == [
                numer / denom for numer in numerators], f

    def test_every_diagonal_family(self, diagonal_polys):
        for family in diagonal_polys:
            zero, coeffs = _parametric(family)
            numerators, norm2 = _lie_numerators(zero, coeffs, family.n, family.d)
            expected = numerators, norm2 * norm2 * norm2 * (family.d * family.d)
            assert gradient_symbolic(family) == expected, family


class TestIntegerUForm:
    """The integer u-form against ``reference_u_form``: equal values, and
    for families equal terms in the same order."""

    SHAPES = [(3, 3), (3, 4), (3, 5), (4, 3)]

    def test_every_diagonal_family_term_by_term(self):
        families = [fam.poly for n, d in self.SHAPES for m in (2, 3, 4)
                    for fam in diagonal_families(n, d, m)]
        assert len(families) == 457  # 914 outputs: the numerators and the denominator
        for family in families:
            expected = reference_u_form(*_parametric(family), family.n, family.d)
            assert in_term_order(gradient_symbolic(family)) == in_term_order(expected), family

    @pytest.mark.parametrize("seed", range(8))
    def test_non_monomial_coefficients_term_by_term(self, seed):
        rng = random.Random(seed)
        for _ in range(15):
            n, d = rng.choice(self.SHAPES)
            support = list(random_root_difference_free(rng, n, d).terms)
            nsyms = rng.randint(1, 3)
            family = SparsePoly.make(n, d, {
                a: random_parametric_coefficient(rng, nsyms) for a in support})
            if parameter_symbols(family) == 0:
                continue
            expected = reference_u_form(*_parametric(family), n, d)
            assert in_term_order(gradient_symbolic(family)) == in_term_order(expected), family

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_input(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(25):
            n, d = rng.choice(self.SHAPES + [(2, 5)])
            support = list(random_root_difference_free(rng, n, d).terms)
            f = SparsePoly.make(n, d, {
                a: Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(1, 30)),
                            rng.randint(1, 10**rng.randint(1, 30))) for a in support})
            numerators, denominator = reference_u_form(Fraction(0), list(f.terms.items()), n, d)
            got = gradient(f)
            assert got == [numer / denominator for numer in numerators], f
            assert all(type(g) is Fraction for g in got)


def reference_integer_u_form(lifted):
    """Reference: ``moment._u_form`` with the ``_centroid_sums`` it called
    before the polynomial sums were folded into one dict, where every step
    builds a new polynomial."""
    support = [alpha for alpha, _ in lifted]
    factorials = [prod(map(factorial, alpha)) for alpha in support]
    u = [c * c * k for (_, c), k in zip(lifted, factorials)]
    pairs = [
        (j, k, sum(x * y for x, y in zip(support[j], support[k])), u[j] * u[k])
        for j in range(len(u))
        for k in range(j, len(u))
    ]
    sums = []
    for a in support:
        a_dot = [sum(x * y for x, y in zip(a, b)) for b in support]
        inner = 0
        for j, k, b_dot_c, product in pairs:
            coeff = a_dot[j] - b_dot_c if j == k else a_dot[j] + a_dot[k] - 2 * b_dot_c
            if coeff:
                inner = inner + product * coeff
        sums.append(inner)
    return sum(u), {a: c * k * s for (a, c), k, s in zip(lifted, factorials, sums)}


def reference_integer_gradient_symbolic(family):
    """``gradient_symbolic`` on a support with no root difference, over
    ``reference_integer_u_form``."""
    zero, coeffs = _parametric(family)
    n, d = family.n, family.d
    scale = math.lcm(*(v.denominator for _, c in coeffs for v in c.terms.values()))
    lifted = [(a, ParamPoly._trusted(zero.nsyms, {e: v.numerator * (scale // v.denominator)
                                                  for e, v in c.terms.items()}))
              for a, c in coeffs]
    norm, parts = reference_integer_u_form(lifted)
    cube = factorial(d) ** 3 * scale**5
    numerators = [_divided(parts[a], 16 * d * d, cube) if a in parts else zero
                  for a in enumerate_monomials(n, d)]
    return numerators, _divided(norm * norm * norm, d * d, cube * scale)


class TestFoldedCentroidSums:
    """The polynomial centroid sums folded into one dict against the fold
    that built a new polynomial per term: equal terms in the same order."""

    def test_every_diagonal_family_term_by_term(self):
        families = [fam.poly for n, d in TestIntegerUForm.SHAPES for m in (2, 3, 4)
                    for fam in diagonal_families(n, d, m)]
        assert len(families) == 457
        for family in families:
            expected = reference_integer_gradient_symbolic(family)
            assert in_term_order(gradient_symbolic(family)) == in_term_order(expected), family

    def test_non_monomial_coefficients_through_grad(self, tmp_path, capsys):
        # (b1 + b2) x^3 + b1 y^3 + x y z: sums in which terms cancel
        b1 = {"exp": [1, 0], "coeff": "1"}
        b2 = {"exp": [0, 1], "coeff": "1"}
        body = {"n": 3, "d": 3, "terms": [
            {"exp": [3, 0, 0], "coeff": {"nsyms": 2, "params": [b1, b2]}},
            {"exp": [0, 3, 0], "coeff": {"nsyms": 2, "params": [b1]}},
            {"exp": [1, 1, 1], "coeff": "1"},
        ]}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(body))
        family = cli._load_poly(str(path))
        numerators, denominator = expected = reference_integer_gradient_symbolic(family)
        assert in_term_order(gradient_symbolic(family)) == in_term_order(expected)
        assert cli.main(["grad", "--poly", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "denominator": str(denominator), "numerators": [str(e) for e in numerators]}


def float_quotients(p, norm2, d, size):
    """The float gradient from the jets of ``P`` and ``norm2``, in the
    order of operations of ``gradient``."""
    (p0, p1), (n0, n1) = (p.value, p.parts), (norm2.value, norm2.parts)
    denom = d * d * n0 * n0 * n0
    return [(p1.get(k, 0.0) * n0 - 2 * p0 * n1.get(k, 0.0)) / denom for k in range(size)]


def all_directions_gradient(f):
    """Float reference: jets in every basis direction through the engine."""
    basis = enumerate_monomials(f.n, f.d)
    jets = [(a, Jet(float(f.terms.get(a, 0.0)), {k: 1.0})) for k, a in enumerate(basis)]
    p, norm2 = _trace_parts(Jet(0.0, {}), jets, f.n, f.d)
    return float_quotients(p, norm2, f.d, len(basis))


def assert_bit_identical(f):
    assert [g.hex() for g in gradient(f)] == [g.hex() for g in all_directions_gradient(f)], f


def assert_near_exact(f, rel=1e-14):
    """Float ``gradient(f)`` within ``rel`` of the exact gradient at the same
    point, relative to the exact gradient's largest entry."""
    exact = gradient(SparsePoly(f.n, f.d, {a: Fraction(c) for a, c in f.terms.items()}))
    bound = rel * max(map(abs, exact))
    assert all(abs(Fraction(g) - e) <= bound for g, e in zip(gradient(f), exact)), f


def random_root_difference_free(rng, n, d):
    basis = enumerate_monomials(n, d)
    size = rng.randint(1, 6)
    support = []
    for a in rng.sample(basis, len(basis)):
        if all(root_pair(a, b) is None for b in support):
            support.append(a)
            if len(support) == size:
                break
    draws = (lambda: rng.uniform(-3, 3), lambda: rng.uniform(-1e-3, 1e-3),
             lambda: float(rng.choice([-3, -2, -1, 1, 2, 3])))
    return SparsePoly(n, d, {a: rng.choice(draws)() for a in support})


class TestSupportOnlyJets:
    """Float gradients on root-difference-free supports, which replay the
    jets on the support alone, are bit-identical to jets carrying every
    basis direction, signed zeros included."""

    def test_float_solver_outputs(self):
        outputs = []
        for n, d in ((3, 5), (4, 3)):
            for family in diagonal_families(n, d, 3):
                outputs += [sol.polynomial() for sol in solve_family(family)]
        floats = [f for f in outputs if not f.is_exact()]
        assert len(floats) == 97
        for f in floats:
            assert _root_difference_free(tuple(f.terms))
            assert_bit_identical(f)

    def test_float_fixtures(self):
        polys = [critical_fixture_poly(e) for e in CRITICAL_CUBICS + CRITICAL_QUARTICS]
        floats = [f for f in polys if not f.is_exact()]
        assert len(floats) == 19
        for f in floats:
            assert _root_difference_free(tuple(f.terms))
            assert_bit_identical(f)

    def test_random_supports(self):
        rng = random.Random(89)
        for _ in range(300):
            f = random_root_difference_free(rng, rng.choice([2, 3, 4]), rng.choice([2, 3, 4, 5]))
            assert _root_difference_free(tuple(f.terms))
            assert_bit_identical(f)

    @pytest.mark.parametrize("signs", [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-3, 3, -3)])
    def test_minimal_points(self, signs):
        # |m|^2 = 0 on the Fermat cubic and on x^4 - y^4 + z^4, up to signs
        a, b, c = (float(s) for s in signs)
        assert_bit_identical(SparsePoly.make(3, 3, {mono("x3"): a, mono("y3"): b, mono("z3"): c}))
        quartic = {(4, 0, 0): a, (0, 4, 0): -b, (0, 0, 4): c}
        assert_bit_identical(SparsePoly.make(3, 4, quartic))

    def test_root_difference_keeps_off_support_directions(self):
        # x^2*y - x*y^2 = e_1 - e_2 couples x^3 + x^2*y to the direction x*y^2
        f = SparsePoly.make(3, 3, {mono("x3"): 1.5, mono("x2y"): -0.75})
        assert not _root_difference_free(tuple(f.terms))
        grad = gradient(f)
        off_support = enumerate_monomials(3, 3).index(mono("xy2"))
        assert grad[off_support] != 0.0
        assert_near_exact(f)


class TestFloatReplay:
    """The float replay on supports with no root difference against jets in
    every basis direction, by ``repr``: every bit, signed zeros and the
    positions of NaNs included.  The replay sums with explicit ``+`` as the
    jets do, so this holds on every interpreter."""

    @staticmethod
    def assert_replay_matches_jets(f):
        coeffs = {a: float(c) for a, c in f.terms.items()}
        plan = _float_plan(f.n, f.d, tuple(f.terms))
        assert plan is not None, f
        numerators, norm2 = _float_numerators(plan, coeffs)
        expected, expected_norm2 = jet_numerators(0.0, list(coeffs.items()), f.n, f.d)
        assert [repr(v) for v in numerators] == [repr(v) for v in expected], f
        assert repr(norm2) == repr(expected_norm2), f

    @pytest.mark.parametrize("n, d, m", [
        (3, 3, 2), (3, 3, 3), (3, 3, 4), (3, 4, 2), (3, 4, 3), (3, 4, 4),
        (3, 5, 3), (4, 3, 3), (2, 5, 2),
    ])
    def test_diagonal_families(self, n, d, m):
        rng = random.Random(f"{n}-{d}-{m}")
        families = diagonal_families(n, d, m)
        assert families
        for family in families:
            for _ in range(3):
                f = SparsePoly(n, d, {a: rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 3)
                                      for a in family.support})
                self.assert_replay_matches_jets(f)

    @pytest.mark.parametrize("scale", [1.0, -1.0, 2.5])
    def test_minimal_points(self, scale):
        # |m|^2 = 0: every M_ii is 0.0, so the diagonal products drop their parts
        fermat = SparsePoly.make(3, 3, {mono(s): scale for s in ("x3", "y3", "z3")})
        quartic = SparsePoly.make(3, 4, {(4, 0, 0): scale, (0, 4, 0): -scale, (0, 0, 4): scale})
        for f in (fermat, quartic):
            coeffs = list(f.terms.items())
            m = _moment_numerators(_inner_products(0.0, coeffs, 3), _norm2(0.0, coeffs), 3, f.d)
            assert [m[i][i] for i in range(3)] == [0.0] * 3, f
            self.assert_replay_matches_jets(f)

    @pytest.mark.parametrize("special", [
        math.nan, math.inf, -math.inf, 1e308, -1e308, 1e155, 1e-200, 0.0, -0.0,
    ])
    def test_special_coefficients(self, special):
        for terms in ({"x3": special, "y3": 1.0}, {"x2y": special, "z3": -2.0, "y2z": 0.5},
                      {"x3": special}):
            f = SparsePoly(3, 3, {mono(s): c for s, c in terms.items()})
            self.assert_replay_matches_jets(f)


class TestFloatWeights:
    """Float gradients on random supports: bit-identical to the jets where
    no two exponents differ by a root, and within 1e-14 of the exact
    gradient at the same float point, relative to its largest entry, where
    the Lie-algebra formula takes them."""

    def float_polys(self):
        rng = random.Random(97)
        for _ in range(60):
            n, d = rng.choice([2, 3, 4]), rng.choice([2, 3, 4, 5])
            yield random_root_difference_free(rng, n, d)
            f = random_rational_poly(rng, n, d, density=0.5)
            yield SparsePoly(n, d, {a: float(c) * rng.uniform(0.5, 2) for a, c in f.terms.items()})

    def test_gradient(self):
        near = 0
        for f in self.float_polys():
            if _root_difference_free(tuple(f.terms)):
                assert_bit_identical(f)
            else:
                assert_near_exact(f)
                near += 1
        assert near == 49  # the draws that take the Lie-algebra formula


# The paper's set A: the forms whose nonzero coefficients are all 1, up to
# S_n.  Per shape: the S_n-orbits of supports of every size, the critical
# forms among their 0/1 forms, the one critical form whose support has a
# root difference (a rotated monomial form: x^2 (y + z) = sqrt(2) x^2 y'),
# and the critical values |m|^2.
PAPER_SET = [
    (3, 3, 207, 10, "x^2*y + x^2*z", {0, 2, 6, 8, 24}),
    (3, 4, 5727, 15, "x^3*y + x^3*z",
     {0, Fraction(2, 3), Fraction(8, 3), Fraction(14, 3), Fraction(32, 3), Fraction(56, 3),
      Fraction(128, 3)}),
]


@pytest.mark.parametrize("n, d, orbits, count, rotated, values", PAPER_SET,
                         ids=["cubics", "quartics"])
def test_critical_forms_of_the_paper_set(n, d, orbits, count, rotated, values):
    forms = [SparsePoly(n, d, dict.fromkeys(support, Fraction(1)))
             for m in range(1, len(enumerate_monomials(n, d)) + 1)
             for support in orbit_classes(n, d, m)]
    critical = [f for f in forms if not any(gradient(f))]
    assert (len(forms), len(critical)) == (orbits, count)
    assert [str(f) for f in critical if not _root_difference_free(tuple(f.terms))] == [rotated]
    assert {square_length(f) for f in critical} == values


class TestFlowDerivative:
    def test_diagonal_direction(self):
        assert flow_derivative(P(x3=1), 1, 1) == 6

    def test_vanishing_mixed_direction(self):
        assert flow_derivative(P(x2y=1), 1, 2) == 0

    def test_mixed_direction(self):
        assert flow_derivative(P(x2y=1, x3=1), 1, 2) == Fraction(3, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_twice_hermitian_entry(self, n):
        # 2 H_ij = m_ij + (2d/n) delta_ij
        rng = random.Random(71)
        for d in (3, 4):
            for _ in range(25):
                f = random_rational_poly(rng, n, d, density=0.5)
                m = moment_matrix(f)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        shift = Fraction(2 * d, n) if i == j else 0
                        assert flow_derivative(f, i, j) == m[i - 1][j - 1] + shift

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            flow_derivative(P(x3=1), 0, 1)
        with pytest.raises(DegenerateInputError):
            flow_derivative(SparsePoly(3, 3, {}), 1, 1)
