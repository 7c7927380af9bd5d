"""The closed-form critical set of root-difference-free families, tested
against the solver, against sampled points of every positive-dimensional
component, and against an exact LP (sympy) that knows nothing of p_S."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from sympy.solvers.simplex import InfeasibleLPError, linprog

from momentforge import cli, critical
from momentforge import univariate as uni
from momentforge.critical import (
    INTERVAL_WIDTH,
    AlgebraicNumber,
    _eliminate_direction,
    _strictly_feasible,
    critical_set,
    gradient_system,
    solve_family,
    solve_real,
    verify_critical,
)
from momentforge.diagonal import diagonal_families
from momentforge.moment import _centroid_sums, _root_difference_free, square_length
from momentforge.orbits import build_family
from momentforge.polyring import ParamPoly, SparsePoly
from momentforge.symd import enumerate_monomials, weight
from oracles import (
    fraction_centroid_sums,
    fraction_critical_set,
    fraction_strictly_feasible,
    per_pattern_merge,
)

# every identically diagonal family of these shapes and term counts
CASES = [(3, 3, 2), (3, 3, 3), (3, 3, 4), (3, 4, 2), (3, 4, 3), (3, 4, 4),
         (3, 5, 2), (3, 5, 3), (4, 3, 2), (4, 3, 3)]
# the support of each of these is affinely independent but for one family
INDEPENDENT_CASES = [(3, 3, 2), (3, 3, 3), (3, 4, 2), (3, 4, 3), (3, 5, 3), (4, 3, 3)]


@pytest.fixture(scope="module")
def closed_forms():
    return {
        (n, d, m): [(f, critical_set(f)) for f in diagonal_families(n, d, m)]
        for n, d, m in CASES
    }


def unfiltered(family):
    """The solver's multistart Newton, without the closed form."""
    return solve_real(family, gradient_system(family))


def pinned_squares(cs):
    """b_k^2 at the closed-form point: (u_k / w(a_k)) / (u_pin / w(pin))."""
    terms = cs.family.display_terms()
    c2 = [u / weight(a) for u, a in zip(cs.point, terms)]
    return [c / c2[-1] for c in c2[:-1]]


def square_matches(value, q):
    if isinstance(value, Fraction):
        return value * value == q
    if isinstance(value, AlgebraicNumber):
        lo, hi = sorted((value.lo * value.lo, value.hi * value.hi))
        return 0 not in (value.lo, value.hi) and lo <= q <= hi
    return math.isclose(value * value, float(q), rel_tol=1e-9)


# the two nonempty point sets with a coordinate beyond Newton's start box
# [-3, 3], where the solver finds no point
NEWTON_MISSES = ["b1*x^2*y*z^2 + b2*y^4*z + x^4*y", "b1*x^2*z^3 + b2*x*y^4 + x^4*y"]


def test_independent_supports_match_the_solver(closed_forms):
    independent = [
        (f, cs) for case in INDEPENDENT_CASES for f, cs in closed_forms[case] if cs.dimension == 0
    ]
    assert len(independent) == 175
    nonempty, missed = 0, []
    for family, cs in independent:
        solutions = unfiltered(family)
        if str(family) in NEWTON_MISSES:
            assert solutions == [] and not cs.is_empty, family
            assert max(pinned_squares(cs)) > 9, family
            missed.append(str(family))
        else:
            assert bool(solutions) == (not cs.is_empty), family
        if cs.is_empty:
            continue
        nonempty += 1
        squares = pinned_squares(cs)
        for sol in solutions:
            assert all(square_matches(v, q) for v, q in zip(sol.values, squares)), sol
    assert nonempty == 98
    assert missed == NEWTON_MISSES


def component_directions(cs):
    """A basis of the directions of u that keep sum u and sum u_a a fixed."""
    terms = cs.family.display_terms()
    rows = [[a[i] for a in terms] for i in range(len(terms[0]))] + [[1] * len(terms)]
    return [[Fraction(int(x.p), int(x.q)) for x in v] for v in sympy.Matrix(rows).nullspace()]


def sampled_polynomials(cs, rng, count):
    """Float forms at random points of the component, with random signs."""
    terms = cs.family.display_terms()
    directions = component_directions(cs)
    assert len(directions) == cs.dimension
    for _ in range(count):
        mix = [rng.uniform(-1, 1) for _ in directions]
        step = [sum(w * float(v[k]) for w, v in zip(mix, directions)) for k in range(len(terms))]
        # stay inside u > 0: at most 0.9 of the way to the nearest face
        limit = min((float(u) / -s for u, s in zip(cs.point, step) if s < 0), default=1.0)
        theta = rng.uniform(0, 0.9) * limit
        u = [float(u) + theta * s for u, s in zip(cs.point, step)]
        yield SparsePoly(cs.family.poly.n, cs.family.poly.d, {
            a: rng.choice((-1, 1)) * math.sqrt(x / float(weight(a))) for a, x in zip(terms, u)
        })


@pytest.mark.parametrize("n, d, m", [(3, 3, 4), (3, 4, 3), (3, 4, 4), (3, 5, 3), (3, 4, 5), (4, 3, 5)])
def test_sampled_points_of_every_component_are_critical(n, d, m, closed_forms):
    rng = random.Random(1000 * n + 10 * d + m)
    sets = closed_forms.get((n, d, m)) or [(f, critical_set(f)) for f in diagonal_families(n, d, m)]
    components = [cs for _, cs in sets if cs.dimension > 0 and not cs.is_empty]
    assert components
    for cs in components:
        for f in sampled_polynomials(cs, rng, 5):
            assert verify_critical(f) <= 1e-12, f
            assert math.isclose(square_length(f), float(cs.square_length), abs_tol=1e-12), f


def positive_margin(a_ub, b_ub, a_eq=None, b_eq=None):
    """Whether the largest eps <= 1 of an exact LP over x >= 0 is positive:
    the variable eps comes last in every row, and ``-eps`` is minimised."""
    cost = sympy.Matrix([0] * (a_ub.cols - 1) + [-1])
    a_ub = a_ub.col_join(sympy.Matrix([[0] * (a_ub.cols - 1) + [1]]))
    b_ub = b_ub.col_join(sympy.Matrix([1]))
    try:
        value, _ = linprog(cost, a_ub, b_ub, a_eq, b_eq)
    except InfeasibleLPError:
        return False
    return -value > 0


def strictly_feasible_lp(family):
    """sympy's exact simplex on the critical equations in u, without p_S: the
    set is nonempty iff some u >= eps > 0 has sum 1 and a centroid
    s = sum u_b b with <a - a_0, s> = 0 on the support."""
    terms = family.display_terms()
    m = len(terms)
    rows = [[1] * m] + [
        [sum((x - y) * b[i] for i, (x, y) in enumerate(zip(a, terms[0]))) for b in terms]
        for a in terms[1:]
    ]
    # independent rows only: given the redundant ones as well, sympy's simplex
    # (1.14) returned points that break one of them
    reduced, pivots = sympy.Matrix(rows).row_join(sympy.Matrix([1] + [0] * (m - 1))).rref()
    a_eq = reduced[: len(pivots), :m].row_join(sympy.zeros(len(pivots), 1))
    b_eq = reduced[: len(pivots), m]
    # eps - u_k <= 0
    a_ub = (-sympy.eye(m)).row_join(sympy.ones(m, 1))
    return positive_margin(a_ub, sympy.zeros(m, 1), a_eq, b_eq)


@pytest.mark.parametrize("n, d, m", [(3, 4, 4), (3, 4, 5), (3, 5, 5), (4, 3, 5)])
def test_emptiness_agrees_with_an_exact_lp(n, d, m, closed_forms):
    sets = closed_forms.get((n, d, m)) or [(f, critical_set(f)) for f in diagonal_families(n, d, m)]
    if (n, d, m) == (3, 4, 4):
        assert sum(cs.is_empty for _, cs in sets) == 3
    for family, cs in sets:
        assert strictly_feasible_lp(family) == (not cs.is_empty), family


def test_projection_and_square_length_agree_with_sympy(closed_forms):
    for (n, d, m), sets in closed_forms.items():
        for family, cs in sets:
            points = [sympy.Matrix(a) for a in family.display_terms()]
            basis = sympy.Matrix.hstack(*[a - points[0] for a in points[1:]])
            t = sympy.Matrix([sympy.Rational(d, n)] * n)
            # least squares over the differences: rank-deficient bases are fine
            y = (basis.T * basis).pinv() * basis.T * (t - points[0])
            p = points[0] + basis * y
            assert [Fraction(int(x.p), int(x.q)) for x in p] == list(cs.projection), family
            assert cs.rank == basis.rank()
            assert cs.dimension == m - 1 - cs.rank
            assert cs.square_length == 4 * sum((x - Fraction(d, n)) ** 2 for x in cs.projection)


def test_empty_sets_are_empty_for_the_solver(closed_forms):
    empty = [f for sets in closed_forms.values() for f, cs in sets if cs.is_empty]
    assert len(empty) == 84
    assert [str(f) for f in empty if unfiltered(f)] == []


@pytest.mark.parametrize("family, dimension, value", [
    # the Hesse pencil
    ("b1*z^3 + b2*x*y*z + b3*y^3 + x^3", 1, 0),
    # curves of critical points that the solver does not report
    ("b1*x^2*z^2 + b2*x*y^2*z + y^4", 1, 0),
    ("b1*x^3*z^2 + b2*x^2*y^2*z + x*y^4", 1, 2),
    ("b1*x^2*y*z^2 + b2*x*y^3*z + y^5", 1, 0),
    ("b1*y^4*z + b2*x^2*y^2*z + x^4*z", 1, Fraction(8, 3)),
])
def test_known_components(family, dimension, value, closed_forms):
    by_name = {str(f): cs for sets in closed_forms.values() for f, cs in sets}
    cs = by_name[family]
    assert not cs.is_empty
    assert (cs.dimension, cs.square_length) == (dimension, value)


# sha256 of repr([(rank, projection, dimension, square_length, point)]) over
# every diagonal family of (3,3), (3,4), (3,5) and (4,3) with 2-4 terms, in
# enumeration order, as the Fraction rows of Fourier-Motzkin gave them
CLOSED_FORMS_SHA256 = "03ee99d6610174bdbcdabb65f5181f58548df6a26012cffa56aff06f8a385ed3"


def test_closed_forms_are_pinned():
    rows = [
        (cs.rank, cs.projection, cs.dimension, cs.square_length, cs.point)
        for n, d in [(3, 3), (3, 4), (3, 5), (4, 3)] for m in (2, 3, 4)
        for cs in map(critical_set, diagonal_families(n, d, m))
    ]
    assert len(rows) == 457
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CLOSED_FORMS_SHA256


# empty sets, points and Fourier-Motzkin with up to four free coordinates
ORACLE_CASES = [(3, 3, m) for m in (2, 3, 4)] + [(n, d, m) for n, d in [(3, 4), (3, 5), (4, 3)]
                                                 for m in (2, 3, 4, 5)] + [(5, 3, 5)]


def test_critical_set_equals_the_fraction_oracle():
    # repr per field, so that an int where a Fraction was (or the reverse) fails
    count = 0
    for case in ORACLE_CASES:
        for family in diagonal_families(*case):
            got, expected = critical_set(family), fraction_critical_set(family)
            assert list(map(repr, got)) == list(map(repr, expected)), family
            count += 1
    assert count == 771


@pytest.mark.parametrize("seed", range(8))
def test_centroid_sums_equal_the_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(50):
        n, d = rng.choice([(2, 5), (3, 3), (3, 4), (3, 5), (4, 3), (5, 3)])
        support = rng.sample(enumerate_monomials(n, d), rng.randint(1, 6))
        u = [rng.choice([0, rng.randint(-10**6, 10**6)]) for _ in support]
        got, expected = _centroid_sums(support, u), fraction_centroid_sums(support, u)
        assert repr(got) == repr(expected), (support, u)


def test_two_free_coordinates():
    # the pinned families have at most one; with two, the back-substitution
    # of the second free coordinate runs at a nonzero value of the first
    family = next(f for f in diagonal_families(3, 4, 5)
                  if str(f) == "b1*x*z^3 + b2*y^2*z^2 + b3*y^4 + b4*x^2*y^2 + x^4")
    cs = critical_set(family)
    third = Fraction(4, 3)
    assert (cs.rank, cs.projection, cs.dimension, cs.square_length) == (2, (third,) * 3, 2, 0)
    assert cs.point == tuple(map(Fraction, ("11/36", "5/24", "5/48", "1/4", "19/144")))


def test_root_difference_is_refused():
    # x^3 - x^2*y = e_1 - e_2: the moment matrix is not identically diagonal,
    # whichever of the two terms carries the parameter
    family = build_family({(3, 0, 0), (2, 1, 0)})
    b1, one = ParamPoly.symbol(1, 0), ParamPoly.const(1, 1)
    swapped = family._replace(poly=SparsePoly.make(3, 3, {(3, 0, 0): b1, (2, 1, 0): one}))
    for f in (family, swapped):
        for solve in (critical_set, solve_family, gradient_system):
            with pytest.raises(ValueError, match="differ by a root"):
                solve(f)


# every two-term diagonal family of these shapes: 136 in all
TWO_TERM_SHAPES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5), (3, 6),
                   (4, 3), (4, 4), (5, 3)]


def test_two_term_families_prepare_one_equation():
    # _point_solutions takes the single equation as it is, with no gcd
    counts = [
        len(gradient_system(family))
        for n, d in TWO_TERM_SHAPES for family in diagonal_families(n, d, 2)
    ]
    assert len(counts) == 136
    assert set(counts) == {1}


def test_empty_set_skips_the_gradient_system(monkeypatch, closed_forms):
    family = next(f for f, cs in closed_forms[3, 5, 3] if cs.is_empty)
    monkeypatch.setattr(critical, "gradient_system", None)
    assert solve_family(family) == []


# how many families of each case have one critical point in at most two
# unknowns, and how many of those have every b_k^2 the square of a rational
POINT_COUNTS = {(3, 3, 2): 3, (3, 3, 3): 4, (3, 4, 2): 11, (3, 4, 3): 17,
                (3, 5, 2): 22, (3, 5, 3): 51, (4, 3, 2): 4, (4, 3, 3): 12}
RATIONAL_POINT_COUNTS = {(3, 3, 2): 2, (3, 3, 3): 2, (3, 4, 2): 5, (3, 4, 3): 5,
                         (3, 5, 2): 8, (3, 5, 3): 5, (4, 3, 2): 2, (4, 3, 3): 3}


def is_rational_square(q):
    return all(math.isqrt(k) ** 2 == k for k in (q.numerator, q.denominator))


def point_families(n, d, m):
    """The families that ``solve_family`` answers from the closed form, with
    their critical sets."""
    return [
        (f, cs) for f in diagonal_families(n, d, m)
        for cs in [critical_set(f)]
        if not cs.is_empty and cs.dimension == 0 and f.nparams <= 2
    ]


def rational_point_families(n, d, m):
    """The point families with no elimination at all."""
    return [f for f, cs in point_families(n, d, m)
            if all(map(is_rational_square, pinned_squares(cs)))]


def refuse(name):
    def refused(*args):
        raise AssertionError(f"{name} was called")
    return refused


@pytest.mark.parametrize("n, d, m", RATIONAL_POINT_COUNTS)
def test_rational_points_build_no_gradient_system(n, d, m, monkeypatch):
    families = rational_point_families(n, d, m)
    assert len(families) == RATIONAL_POINT_COUNTS[n, d, m]
    monkeypatch.setattr(critical, "gradient_system", refuse("gradient_system"))
    for family in families:
        assert solve_family(family), family
    # every other nonempty family still builds its equations
    others = [f for f in diagonal_families(n, d, m)
              if f not in families and not critical_set(f).is_empty]
    for family in others:
        with pytest.raises(AssertionError, match="gradient_system was called"):
            solve_family(family)


@pytest.mark.parametrize("n, d, m", POINT_COUNTS)
def test_isolated_points_skip_the_candidate_grid(n, d, m, monkeypatch):
    families = [f for f, _ in point_families(n, d, m)]
    assert len(families) == POINT_COUNTS[n, d, m]
    monkeypatch.setattr(critical, "_newton_candidates", refuse("_newton_candidates"))
    for family in families:
        assert solve_family(family), family
    # positive-dimensional sets and three unknowns still take Newton
    others = [f for f in diagonal_families(n, d, m)
              if f not in families and not critical_set(f).is_empty]
    for family in others:
        with pytest.raises(AssertionError, match="was called"):
            solve_family(family)


# how many one-point families in at most two unknowns each case has, and how
# many of those are rational; with four terms every family has three unknowns
MERGE_COUNTS = {(3, 3, 2): (3, 2), (3, 3, 3): (4, 2), (3, 3, 4): (0, 0), (3, 4, 2): (11, 5),
                (3, 4, 3): (17, 5), (3, 4, 4): (0, 0), (3, 5, 2): (22, 8), (3, 5, 3): (51, 5),
                (4, 3, 2): (4, 2), (4, 3, 3): (12, 3), (3, 6, 3): (101, 9), (4, 4, 3): (81, 7)}


def solution_bytes(solutions):
    return [(s.values, s.residual, repr(s.canonical_form.terms)) for s in solutions]


def recording_patterns(monkeypatch):
    """The sign patterns that ``_point_solutions`` enumerates, in order."""
    patterns = []

    def recording(*pairs):
        for values in product(*pairs):
            patterns.append(values)
            yield values

    monkeypatch.setattr(critical, "product", recording)
    return patterns


@pytest.mark.parametrize("n, d, m", MERGE_COUNTS)
def test_the_merge_equals_canonicalising_every_pattern(n, d, m, monkeypatch):
    # the merge keys each pattern by its sign class; the oracle runs
    # torus_canonical on every pattern and compares with polys_close
    patterns = recording_patterns(monkeypatch)
    monkeypatch.setattr(critical, "solve_real", refuse("solve_real"))
    families = point_families(n, d, m)
    rational = 0
    for family, cs in families:
        patterns.clear()
        got = critical._point_solutions(family, cs)
        assert len(patterns) == 2 ** family.nparams, family
        rational += all(isinstance(v, Fraction) for v in patterns[0])
        assert solution_bytes(got) == solution_bytes(per_pattern_merge(family, patterns)), family
    assert (len(families), rational) == MERGE_COUNTS[n, d, m]


@pytest.mark.parametrize("n, d, m", MERGE_COUNTS)
def test_a_sign_class_form_is_the_canonical_form(n, d, m, monkeypatch):
    # the fact the merge rests on: at every sign pattern of +-sqrt(q_k), the
    # floats of the irrational branch included, torus_canonical gives the
    # +-1 form that _point_solutions builds from the pattern's class key,
    # which is the form it reports when that pattern is the only one
    patterns = recording_patterns(monkeypatch)
    monkeypatch.setattr(critical, "solve_real", refuse("solve_real"))
    families = []
    for family, cs in point_families(n, d, m):
        patterns.clear()
        critical._point_solutions(family, cs)
        families.append((family, cs, list(patterns)))
    checked = 0
    for family, cs, family_patterns in families:
        for values in family_patterns:
            monkeypatch.setattr(critical, "product", lambda *pairs, values=values: [values])
            (alone,) = critical._point_solutions(family, cs)
            expected = critical.torus_canonical(critical._substitute_values(family, values))
            assert repr(alone.canonical_form.terms) == repr(expected.terms), (family, values)
            checked += 1
    assert checked == sum(2 ** family.nparams for family, _, _ in families)


def test_the_point_path_builds_one_polynomial_per_solution(monkeypatch):
    # no pattern is canonicalised: the classes come from the GF(2) flips, and
    # each kept one is substituted once, for its verification
    rationals = rational_point_families(3, 4, 3)
    rational = next(f for f in rationals if f.nparams == 2)
    irrational = next(f for f, _ in point_families(3, 4, 3) if f not in rationals)
    for name in ("_torus_magnitudes", "torus_canonical", "polys_close"):
        monkeypatch.setattr(critical, name, refuse(name))
    calls = []
    substitute = critical._substitute_values

    def recording(family, values):
        calls.append(values)
        return substitute(family, values)

    monkeypatch.setattr(critical, "_substitute_values", recording)
    for family, exact in ((rational, True), (irrational, False)):
        calls.clear()
        solutions = solve_family(family)
        assert len(calls) == len(solutions) > 0, family
        assert set(calls) == {s.values for s in solutions}, family
        assert all(isinstance(v, Fraction) for s in solutions for v in s.values) == exact


# _point_solutions takes its projections in the squares b_k^2, and refines
# toward -sqrt(q_k) and sqrt(q_k) by bisecting against x^2 - q_k
SQUARE_SHAPES = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4)]


@pytest.fixture(scope="module")
def square_systems():
    """The equations of every 2- and 3-term family of ``SQUARE_SHAPES``."""
    return {m: [gradient_system(f) for n, d in SQUARE_SHAPES for f in diagonal_families(n, d, m)]
            for m in (2, 3)}


def halved(eq):
    return ParamPoly(eq.nsyms, {tuple(e // 2 for e in x): c for x, c in eq.terms.items()})


def by_degree(eq):  # the ranking that _point_solutions gives its equations
    return eq.total_degree(), len(eq.terms)


def in_squares(r):
    """R(s) as the polynomial R(b^2) in b."""
    return [c for x in r for c in (x, 0)][:-1]


def test_every_equation_is_even_in_each_parameter(square_systems):
    equations = {m: [eq for eqs in systems for eq in eqs] for m, systems in square_systems.items()}
    assert {m: len(eqs) for m, eqs in equations.items()} == {2: 113, 3: 1869}
    assert [eq for eqs in equations.values() for eq in eqs
            if any(e % 2 for x in eq.terms for e in x)] == []


def test_halved_projections_have_the_squarefree_part_of_the_full_ones(square_systems):
    for (eq,) in square_systems[2]:
        assert (uni.squarefree_part(in_squares(halved(eq).univariate()))
                == uni.squarefree_part(eq.univariate())), eq
    projections = degenerate = 0
    for eqs in square_systems[3]:
        full, half = sorted(eqs, key=by_degree), sorted(map(halved, eqs), key=by_degree)
        for eliminate in (0, 1):
            expected = _eliminate_direction(full, eliminate)
            got = _eliminate_direction(half, eliminate)
            projections += 1
            if expected is None or got is None:
                assert expected is got is None, eqs
                degenerate += 1
            else:
                assert uni.squarefree_part(in_squares(got)) == uni.squarefree_part(expected), eqs
    assert (projections, degenerate) == (1246, 23)


# every 3-term family with a nonempty positive-dimensional critical set in
# these shapes: 72 in all
PENCIL_SHAPES = [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5), (3, 6),
                 (3, 7), (4, 3), (4, 4), (5, 3)]


def test_positive_dimensional_sets_are_degenerate_pencils():
    # infinitely many real common zeros of two-unknown equations mean a
    # shared factor g of positive degree (Bezout), so every resultant in an
    # unknown that g involves vanishes: no resultant grid could answer these
    families = [f for n, d in PENCIL_SHAPES for f in diagonal_families(n, d, 3)
                for cs in [critical_set(f)] if cs.dimension > 0 and not cs.is_empty]
    assert len(families) == 72
    for family in families:
        ranked = sorted(gradient_system(family), key=by_degree)
        assert None in [_eliminate_direction(ranked, k) for k in (0, 1)], family


@pytest.mark.parametrize("n, d, m", [(3, 5, 2), (3, 5, 3)])
def test_an_odd_exponent_is_refused(n, d, m, monkeypatch):
    family = next(f for f, cs in point_families(n, d, m)
                  if not all(map(is_rational_square, pinned_squares(cs))))
    k = family.nparams
    odd = ParamPoly(k, {(1,) + (0,) * (k - 1): 1, (0,) * k: -2})  # b1 - 2
    monkeypatch.setattr(critical, "gradient_system", lambda f: (odd,) + gradient_system(f))
    with pytest.raises(ArithmeticError, match="odd in a parameter"):
        solve_family(family)


@pytest.mark.parametrize("n, d, m", POINT_COUNTS)
def test_the_bisection_against_q_is_refine_interval(n, d, m, monkeypatch):
    calls = []
    signed_roots = critical._signed_roots

    def recording(projection, q):
        roots = signed_roots(projection, q)
        calls.append((q, roots))
        return roots

    monkeypatch.setattr(critical, "_signed_roots", recording)
    families = point_families(n, d, m)
    for family, _ in families:
        solve_family(family)
    # every irrational coordinate of every point family, both signs
    assert sorted(q for q, _ in calls) == sorted(
        q for _, cs in families for q in pinned_squares(cs) if not is_rational_square(q))
    for q, roots in calls:
        assert [square_matches(root, q) for root in roots] == [True, True]
        assert roots[0].approx < 0 < roots[1].approx
        p = list(roots[0].minimal_polynomial)
        for root in roots:
            ((lo, hi),) = [(a, b) for a, b in uni.isolate_real_roots(p)
                           if a <= root.lo and root.hi <= b]
            assert (root.lo, root.hi) == uni.refine_interval(p, lo, hi, INTERVAL_WIDTH), (q, root)


# sha256 of `critical --n N --d D --terms M --json` as printed when every
# point family went through the Sturm and resultant solver: every point
# family, rational or not, prints what that elimination printed
ELIMINATION_SHA256 = {
    (3, 3, 2): "71380e1e4a2437c7a597609ddd48334355dd25ace66867b711164e76b8097c12",
    (3, 3, 3): "7982b8585e875d442bffae650bfeecbfd008fc66c13e18ded7750c24b9cabc3e",
    (3, 4, 2): "10753a47815bd760517e758122e4963008d7673133261fc855be69fa26fe00b6",
    (3, 4, 3): "957edaeec39fc1264ee351d41e1d3b0630b25d8f85120e30dfed09fe148feb57",
    (3, 5, 2): "9f80ab34c7b3cd641e19a694258d80f15de417b24e6725f3e8a6e8096a17075c",
    (3, 5, 3): "2b49956bcbd12e3fa7f4554456afdb55f956c406bf62305cf2c7d81d85d9fa35",
    (4, 3, 2): "27d0784f3d36db0bd1a33218ac967a27cf8f5fef4556b56eca718fbef9d7b447",
    (4, 3, 3): "034255ff756c961754bce0d0223ff7501f7a127e1fbac89e2d13ac8049a1a778",
}


@pytest.mark.parametrize("n, d, m", POINT_COUNTS)
def test_rational_points_print_the_bytes_of_elimination(n, d, m, capsys):
    assert cli.main(["critical", "--n", str(n), "--d", str(d), "--terms", str(m), "--json"]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == ELIMINATION_SHA256[n, d, m]


@pytest.mark.parametrize("seed", range(40))
def test_fourier_motzkin_against_an_exact_lp(seed):
    rng = random.Random(seed)
    k = rng.choice([1, 2, 3])
    rows = [
        (rng.randint(-4, 4), tuple(rng.randint(-3, 3) for _ in range(k)))
        for _ in range(rng.randint(2, 6))
    ]
    # c + <a, z> >= eps with z = z+ - z-, as -<a, z+> + <a, z-> + eps <= c
    a_ub = sympy.Matrix([[-x for x in a] + list(a) + [1] for _, a in rows])
    expected = positive_margin(a_ub, sympy.Matrix([c for c, _ in rows]))
    feasible = _strictly_feasible(rows, k)
    assert (feasible is not None) == expected, rows
    if feasible is not None:
        z, denominator = feasible
        assert denominator > 0 and all(type(x) is int for x in (*z, denominator)), rows
        # the same point as the Fraction back-substitution it replaced
        assert [Fraction(x, denominator) for x in z] == fraction_strictly_feasible(rows, k), rows
        assert all(c * denominator + sum(x * zi for x, zi in zip(a, z)) > 0 for c, a in rows), rows


@pytest.mark.parametrize("seed", range(12))
def test_centroid_sums_scale_by_the_square_of_an_integer_scaling(seed):
    # critical_set checks its point u as the integer vector L u, L the least
    # common multiple of the denominators: each sum is a quadratic form in u
    rng = random.Random(seed)
    n, d = rng.choice([(2, 5), (3, 3), (3, 4), (3, 5), (4, 3)])
    basis = enumerate_monomials(n, d)
    while True:
        support = rng.sample(basis, rng.randint(2, min(6, len(basis))))
        if _root_difference_free(tuple(support)):
            break
    u = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in support]
    scale = math.lcm(*(x.denominator for x in u))
    scaled = [x.numerator * (scale // x.denominator) for x in u]
    exact = _centroid_sums(support, u)
    integer = _centroid_sums(support, scaled)
    assert integer == [scale * scale * s for s in exact]
    assert all(type(s) is int for s in integer)
