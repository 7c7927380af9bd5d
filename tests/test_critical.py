"""The generated Gauss-Newton kernel against the list loop it replaced, the
reuse of sign-mirrored starts against a run from every start, torus
canonicalisation against its per-call form, orbit canonicalisation against
all n! candidates, and the solver's equations against the preparation they
replaced.

Float Newton points and their residuals are printed by `critical --json`, so
the kernel must repeat the loop's float operations exactly, and a reused start
must give what its own run gives; candidate lists are compared by ``repr``,
which shows every bit.  So are canonical forms, which a cached plan per
support must leave unchanged.
"""

import math
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from conftest import reference_verify_critical, verify_outcome
from momentforge import critical, moment
from momentforge.critical import (
    CLUSTER_DIST,
    NEWTON_STEP_TOL,
    _exact_zero_on_equations,
    _residual_on_equations,
)
from momentforge.diagonal import diagonal_families
from momentforge.fixtures import CRITICAL_CUBICS, CRITICAL_QUARTICS, critical_fixture_poly, mono
from momentforge.moment import gradient_symbolic
from momentforge.orbits import permute, support_order_key
from momentforge.polyring import ParamPoly, SparsePoly, canonical_key
from momentforge.symd import enumerate_monomials
from oracles import fixed_point_check

# The reference sums with sum(), which adds floats left to right up to
# CPython 3.11; from 3.12 on it compensates, and the kernel keeps the old order.
plain_float_sum = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="sum() of floats is compensated from CPython 3.12 on"
)


# ---------------------------------------------------------------------------
# reference: the per-polynomial compiler and the loop, as they were


def reference_compile(poly):
    """Compiled float evaluator (used by the numeric solver)."""
    if not poly.terms:
        return lambda *args: 0.0
    pieces = []
    for exp, coeff in sorted(poly.terms.items()):
        factors = [repr(float(coeff))]
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(f"b{i}")
            elif e > 1:
                factors.append(f"b{i}**{e}")
        pieces.append("*".join(factors))
    args = ",".join(f"b{i}" for i in range(poly.nsyms))
    return eval(f"lambda {args}: " + "+".join(pieces))  # noqa: S307 - generated from exact terms


AXIS = [(-3.0 + 0.6 * k) for k in range(11)]


def reference_newton_candidates(eqs, unknowns):
    """Multistart Gauss-Newton on a grid of 11 points per axis in [-3, 3]."""
    funcs = [reference_compile(eq) for eq in eqs]
    jacs = [[reference_compile(eq.diff(i)) for i in range(eq.nsyms)] for eq in eqs]

    def run(start):
        x = list(start)
        for _ in range(80):
            fv = [fn(*x) for fn in funcs]
            jm = [[jacs[r][c](*x) for c in range(unknowns)] for r in range(len(eqs))]
            # normal equations J^T J step = -J^T f
            ata = [
                [sum(jm[r][i] * jm[r][j] for r in range(len(eqs))) for j in range(unknowns)]
                for i in range(unknowns)
            ]
            atb = [
                -sum(jm[r][i] * fv[r] for r in range(len(eqs))) for i in range(unknowns)
            ]
            step = reference_solve_dense(ata, atb)
            if step is None:
                return None
            x = [a + s for a, s in zip(x, step)]
            if max(abs(v) for v in x) > 1e6:
                return None
            if max(abs(s) for s in step) < NEWTON_STEP_TOL:
                return x
        return None

    return candidates_from_runs(eqs, (run(start) for start in product(AXIS, repeat=unknowns)))


def full_loop_candidates(eqs, unknowns):
    """The generated kernel run from every start, none reused."""
    run_start = critical._gauss_newton_kernel(eqs, unknowns)
    return candidates_from_runs(eqs, (run_start(*start) for start in product(AXIS, repeat=unknowns)))


def candidates_from_runs(eqs, runs):
    """The filters, clustering and snapping applied to each start's result."""
    points = []
    for x in runs:
        if x is None:
            continue
        if any(abs(v) < 1e-7 for v in x):
            continue  # zero-parameter solutions belong to smaller supports
        if _residual_on_equations(eqs, x) > 1e-10:
            continue
        if any(
            max(abs(a - b) for a, b in zip(x, p)) < CLUSTER_DIST for p in points
        ):
            continue
        points.append(x)

    candidates = []
    for x in points:
        snapped = []
        for v in x:
            frac = Fraction(v).limit_denominator(10**6)
            snapped.append(frac if abs(float(frac) - v) < 1e-7 else None)
        if all(s is not None for s in snapped) and _exact_zero_on_equations(eqs, snapped):
            candidates.append(tuple(snapped))
        else:
            candidates.append(tuple(x))
    return candidates


def reference_solve_dense(a, b):
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-300:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        prow = m[col]
        for r in range(n):
            if r != col and m[r][col] != 0.0:
                factor = m[r][col] / prow[col]
                for c in range(col, n + 1):
                    m[r][c] -= factor * prow[c]
    return [m[i][n] / m[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# systems


def poly(nsyms, terms):
    return ParamPoly(nsyms, {exp: Fraction(c) for exp, c in terms.items()})


def random_system(rng, planted):
    """Three equations in two unknowns sharing a rational root (``planted``),
    or two whose common roots are irrational, so floats reach the output."""
    b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
    root = (Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.choice([1, 2, 3])),
            Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 3, 7])))

    def small():
        exps = {(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(3)}
        return poly(2, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) or 1 for e in exps})

    eqs = []
    for _ in range(3 if planted else 2):
        if planted:
            eq = (b1 - root[0]) * small() + (b2 - root[1]) * small()
        else:
            eq = small() * small() + rng.randint(-3, 3)
        if not eq.is_zero():
            eqs.append(eq)
    return eqs


def hesse_equations():
    (family,) = diagonal_families(3, 3, 4)  # b1*z^3 + b2*xyz + b3*y^3 + x^3
    return list(critical.gradient_system(family)), 3


def family_equations(n, d, m, name):
    (family,) = [f for f in diagonal_families(n, d, m) if str(f) == name]
    return list(critical.gradient_system(family)), family.nparams


# the systems of diagonal families that reach Newton, by kind: the pencils in
# two unknowns whose resultants vanish, the (3, 4, 4) family where Newton finds
# 3 float points, and two Newton-empty ones, where each start with no zero
# coordinate runs all 80 steps
NEWTON_FAMILIES = [
    (3, 4, 3, "b1*x^2*z^2 + b2*x*y^2*z + y^4"),
    (3, 5, 3, "b1*y^4*z + b2*x^2*y^2*z + x^4*z"),
    (3, 5, 3, "b1*x^3*z^2 + b2*x^2*y^2*z + x*y^4"),
    (3, 5, 3, "b1*x^2*y*z^2 + b2*x*y^3*z + y^5"),
    (3, 4, 4, "b1*y^2*z^2 + b2*x^2*z^2 + b3*y^4 + x^4"),
    (3, 4, 4, "b1*x*y*z^2 + b2*x^3*z + b3*y^4 + x^2*y^2"),
    (3, 4, 4, "b1*z^4 + b2*y^4 + b3*x^2*y^2 + x^4"),
]


def mixed_parity_equations():
    # b1^2 + b1 - 2 has both parities in b1, so starts at -b1 must run
    b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
    return [b1 * b1 + b1 - 2, b2 * b2 - 3]


def same_candidates(eqs, unknowns):
    got = critical._newton_candidates(eqs, unknowns)
    assert repr(got) == repr(reference_newton_candidates(eqs, unknowns))
    return got


# ---------------------------------------------------------------------------
# tests


@plain_float_sum
def test_hesse_family_matches_reference():
    eqs, unknowns = hesse_equations()
    assert len(same_candidates(eqs, unknowns)) == 22  # 20 after the torus merge


@plain_float_sum
@pytest.mark.parametrize("seed", range(8))
def test_random_two_unknown_systems_match_reference(seed):
    rng = random.Random(seed)
    assert same_candidates(random_system(rng, planted=seed % 2 == 0), 2)


@plain_float_sum
@pytest.mark.parametrize("scale", ["3e-151", "1e-149"])
def test_pivot_below_1e_300_ends_the_start(scale):
    # J = diag(1, scale): the pivot scale^2 is 9e-302 (singular) or 1e-298 (not)
    c = Fraction(float(scale))
    eqs = [poly(2, {(1, 0): 1, (0, 0): -1}), poly(2, {(0, 1): c, (0, 0): -2 * c})]
    got = same_candidates(eqs, 2)
    assert got == ([] if scale == "3e-151" else [(Fraction(1), Fraction(2))])


@plain_float_sum
def test_equal_pivots_pick_the_first_row():
    # J = [[g', g'], [0, h']] makes |(J^T J)_00| == |(J^T J)_10| at every step
    b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
    s = b1 + b2
    eqs = [
        s * s * Fraction(7, 10) - Fraction(13, 10),
        b2 * b2 * Fraction(3, 10) + b2 * Fraction(1, 7) - Fraction(11, 10),
        s * b2 * Fraction(1, 9) - Fraction(2, 3),
    ]
    same_candidates(eqs, 2)
    same_candidates([eqs[0], eqs[1]], 2)


@plain_float_sum
def test_negative_zero_entries():
    # on the start row b2 = 0.0, the entry -2*b1*b2 of the Jacobian is -0.0, and
    # so is the right side -J^T f where J^T f sums to 0.0
    b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
    eqs = [
        b1 * b2 * -3 + b1 * b1 * b2 - b2 + b1 * Fraction(1, 3) - 1,
        b1 * b2 * b2 * -1 + b1 * 2 - 4,
    ]
    assert same_candidates(eqs, 2)


@plain_float_sum
def test_slow_convergence_at_a_triple_root():
    # near the triple roots b1 = ±sqrt(2) steps shrink only linearly and end in
    # rounding noise, leaving many distinct float points after the clustering
    b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
    q = b1 * b1 - 2
    assert len(same_candidates([q * q * q, (b2 - b1) * (b2 + 1)], 2)) == 9


@pytest.mark.parametrize("case", [None] + NEWTON_FAMILIES, ids=lambda c: "hesse" if c is None else c[3])
def test_mirrored_starts_match_the_full_loop(case):
    eqs, unknowns = hesse_equations() if case is None else family_equations(*case)
    # each gradient numerator of a diagonal family is c_a P_a(u), u_a = w(a) c_a^2
    assert critical._sign_mirrored(eqs, unknowns) == (True,) * unknowns
    run_start = critical._gauss_newton_kernel(eqs, unknowns)
    runs = {index: run_start(*(AXIS[k] for k in index)) for index in product(range(11), repeat=unknowns)}
    # start by start: index 10 and 7 give the runs of 0 and 3, negated (float
    # == is exact but for the sign of a zero, which the kernel may flip)
    for index, x in runs.items():
        source = tuple({10: 0, 7: 3}.get(k, k) for k in index)
        y = runs[source]
        assert x == (None if y is None else [v if k == s else -v for v, k, s in zip(y, index, source)])
    got = critical._newton_candidates(eqs, unknowns)
    assert repr(got) == repr(candidates_from_runs(eqs, runs.values()))


def test_mixed_parity_unknown_is_not_mirrored():
    eqs = mixed_parity_equations()
    assert critical._sign_mirrored(eqs, 2) == (False, True)
    got = critical._newton_candidates(eqs, 2)
    assert repr(got) == repr(full_loop_candidates(eqs, 2))
    # b1 = 1 or -2, no pair of negatives, with b2 = +-sqrt(3)
    assert sorted((v[0], float(v[1]) > 0) for v in got) == [(-2, False), (-2, True), (1, False), (1, True)]


@plain_float_sum
def test_mixed_parity_matches_reference():
    same_candidates(mixed_parity_equations(), 2)


def test_float_expression_matches_subs():
    rng = random.Random(5)
    b1 = ParamPoly.symbol(2, 0)
    b2 = ParamPoly.symbol(2, 1)
    p = b1 * b1 * b1 * 2 - b2 * b1 * 5 + 9 + b2 * b2 * b2 * b2 * Fraction(-1, 3)
    expr = critical._float_expression(p)
    for _ in range(10):
        point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        names = {f"b{i}": v for i, v in enumerate(point)}
        names.update({f"b{i}_{e}": v**e for i, v in enumerate(point) for e in range(2, 5)})
        value = eval(expr, names)  # noqa: S307 - generated from exact terms
        assert value == pytest.approx(float(p.subs(point)), rel=1e-12)
        # terms in sorted order, coefficient first
        ordered = 0.0
        for exp, coeff in sorted(p.terms.items()):
            ordered += ParamPoly(2, {exp: coeff}).subs(point)
        assert value == ordered
    assert critical._float_expression(ParamPoly(2)) == "0.0"


# ---------------------------------------------------------------------------
# torus canonicalisation, with the independent terms worked out on every call
# as before the plan was cached per support, the magnitudes from prime
# factorisations as before exact integer roots, and the signs from the first
# of all 2^(n+1) coordinate and overall flips that makes them lexicographically
# most positive, as before the GF(2) rule


def factor_positive(value):
    """Prime-exponent map of a positive rational (large leftovers kept opaque)."""
    out = {}

    def factor_int(n, sign):
        p = 2
        while p * p <= n and p < 10**6:
            while n % p == 0:
                out[p] = out.get(p, 0) + sign
                n //= p
            p += 1 if p == 2 else 2
        if n > 1:
            out[n] = out.get(n, 0) + sign

    factor_int(value.numerator, 1)
    factor_int(value.denominator, -1)
    return {k: v for k, v in out.items() if v}


def reference_integer_combination(basis, target):
    """Integers ``(N, D)`` in lowest terms, ``D > 0``, with
    ``sum_k N_k basis[k] = D target``, or None when target lies outside the
    span of the (independent) integer basis vectors: a Gauss-Jordan solve by
    cross-multiplication, as the package ran one per vector before its
    one-pass echelon."""
    r = len(basis)
    w = len(target)
    m = [[basis[k][row] for k in range(r)] + [target[row]] for row in range(w)]
    row = 0
    for col in range(r):
        p = next((i for i in range(row, w) if m[i][col] != 0), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        prow = m[row]
        pivot = prow[col]
        for i in range(w):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [pivot * a - factor * b for a, b in zip(m[i], prow)]
        row += 1
    if any(m[i][r] != 0 for i in range(row, w)):
        return None
    # row i now reads m[i][i] * N_i / D = m[i][r]: the basis is independent,
    # so its pivots sit on the diagonal
    denominator = abs(math.lcm(*(m[i][i] for i in range(r))))
    numerators = [m[i][r] * (denominator // m[i][i]) for i in range(r)]
    common = math.gcd(denominator, *numerators)
    return tuple(x // common for x in numerators), denominator // common


def reference_torus_canonical(f):
    support = sorted(f.terms, key=canonical_key)
    coeffs = [f.terms[a] for a in support]
    aug = [a + (1,) for a in support]
    chosen, combos = [], []
    for j, v in enumerate(aug):
        combo = reference_integer_combination([aug[t] for t in chosen], v)
        if combo is None:
            chosen.append(j)
            combos.append(None)
        else:
            numerators, denominator = combo
            combos.append([Fraction(x, denominator) for x in numerators])
    exact_in = all(isinstance(c, Fraction) for c in coeffs)
    magnitudes = [None] * len(support)
    if exact_in:
        factored = {t: factor_positive(abs(coeffs[t])) for t in chosen}
        for j, combo in enumerate(combos):
            if combo is None:
                magnitudes[j] = Fraction(1)
                continue
            exps = {}
            for p, e in factor_positive(abs(coeffs[j])).items():
                exps[p] = exps.get(p, Fraction(0)) + e
            for t, gamma in zip(chosen, combo):
                for p, e in factored[t].items():
                    exps[p] = exps.get(p, Fraction(0)) - gamma * e
            if all(e.denominator == 1 for e in exps.values()):
                mag = Fraction(1)
                for p, e in exps.items():
                    mag *= Fraction(p) ** int(e)
                magnitudes[j] = mag
            else:
                exact_in = False
                break
    if not exact_in or any(m is None for m in magnitudes):
        # a rational's logarithm from its integers, a float's directly
        logs = [math.log(abs(c.numerator)) - math.log(c.denominator)
                if isinstance(c, Fraction) else math.log(abs(c)) for c in coeffs]
        for j, combo in enumerate(combos):
            if combo is None:
                magnitudes[j] = 1.0
            else:
                value = logs[j] - sum(float(g) * logs[t] for t, g in zip(chosen, combo))
                magnitudes[j] = math.exp(value)
    n = f.n
    in_signs = [1 if c > 0 else -1 for c in coeffs]
    best_pattern = None
    for s in product((1, -1), repeat=n + 1):
        pattern = []
        for a, sig in zip(support, in_signs):
            val = sig * s[n]
            for i, e in enumerate(a):
                if e % 2 and s[i] < 0:
                    val = -val
            pattern.append(val)
        key = tuple(0 if p > 0 else 1 for p in pattern)
        if best_pattern is None or key < best_pattern[0]:
            best_pattern = (key, pattern)
    return {a: mag if sgn > 0 else -mag for a, mag, sgn in zip(support, magnitudes, best_pattern[1])}


@pytest.mark.parametrize("seed", range(6))
def test_torus_canonical_matches_the_per_call_plan(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n, d = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
        basis = enumerate_monomials(n, d)
        support = rng.sample(basis, rng.randint(1, min(5, len(basis))))
        draws = (lambda: Fraction(rng.randint(-12, 12) or 1, rng.randint(1, 6)),
                 lambda: rng.choice([-1, 1]) * rng.uniform(0.1, 5))
        draw = rng.choice(draws)
        f = SparsePoly(n, d, {a: draw() for a in support})
        # every permutation, as the reproduction harness canonicalises
        for sigma in permutations(range(n)):
            g = permute(sigma, f)
            assert repr(critical.torus_canonical(g).terms) == repr(reference_torus_canonical(g))


def reference_greedy_basis(vectors):
    """The per-vector loop that one echelon replaced: a fresh
    ``reference_integer_combination`` over the vectors taken so far."""
    chosen, combos = [], []
    for j, v in enumerate(vectors):
        combo = reference_integer_combination([vectors[t] for t in chosen], v)
        if combo is None:
            chosen.append(j)
        combos.append(combo)
    return tuple(chosen), tuple(combos)


@pytest.mark.parametrize("seed", range(8))
def test_greedy_basis_matches_the_per_vector_loop(seed):
    # up to 8 vectors in 3-5 dimensions: zero vectors, repeats, and vectors
    # in the span of a few others, so that most lists are rank-deficient
    rng = random.Random(seed)
    deficient = 0
    for _ in range(250):
        dim = rng.randint(3, 5)
        spanning = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(1, dim))]
        vectors = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if kind < 0.1:
                vectors.append((0,) * dim)
            elif kind < 0.2 and vectors:
                vectors.append(rng.choice(vectors))
            elif kind < 0.6:
                weights = [rng.randint(-3, 3) for _ in spanning]
                vectors.append(tuple(sum(w * v[i] for w, v in zip(weights, spanning))
                                     for i in range(dim)))
            else:
                vectors.append(tuple(rng.randint(-5, 5) for _ in range(dim)))
        expected = reference_greedy_basis(vectors)
        assert critical._greedy_basis(vectors) == expected, vectors
        deficient += len(expected[0]) < len(vectors)
    assert deficient >= 100


def test_torus_magnitude_with_prime_factors_beyond_trial_division():
    # P^2 x^3 + x^2 y + x z^2 + z^3 rescales to x^3 + x^2 y + x z^2 + P z^3,
    # the z^3 magnitude being (P^2)^(1/2); trial division up to 10^6 kept P^2
    # as an opaque prime, so that magnitude fell to floats: 1000036000098.9984
    big = 1000003 * 1000033
    f = SparsePoly.make(3, 3, {(3, 0, 0): big**2, (2, 1, 0): 1, (1, 0, 2): 1, (0, 0, 3): 1})
    terms = critical.torus_canonical(f).terms
    assert terms == {(3, 0, 0): 1, (2, 1, 0): 1, (1, 0, 2): 1, (0, 0, 3): 1000036000099}
    assert all(isinstance(c, Fraction) for c in terms.values())


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3)])
def test_gf2_sign_rule_matches_the_minimum_over_all_flips(n, d):
    # every support of at most four terms, under every input sign pattern
    basis = enumerate_monomials(n, d)
    for m in range(1, 5):
        for support in combinations(basis, m):
            for signs in product((1, -1), repeat=m):
                f = SparsePoly(n, d, {a: Fraction(s) for a, s in zip(support, signs)})
                assert critical.torus_canonical(f).terms == reference_torus_canonical(f)


def test_torus_signs_are_read_exactly():
    # 10^-400 is 0.0 as a float: a float reading of the signs counts the xyz
    # term as negative, and with it the z^3 term, whose character is the sum
    # of the other three
    tiny = Fraction(1, 10**400)
    f = SparsePoly.make(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): tiny})
    assert critical.torus_canonical(f).terms == {
        (3, 0, 0): 1, (0, 3, 0): 1, (1, 1, 1): 1, (0, 0, 3): Fraction(10**1200)
    }
    # 10^400 is beyond the float range; both magnitudes are 1
    f = SparsePoly.make(2, 3, {(3, 0): 10**400, (0, 3): 1})
    assert critical.torus_canonical(f).terms == {(3, 0): 1, (0, 3): 1}


def test_orbit_canonical_form_beyond_the_float_range():
    # the z^3 coefficient of the canonical form is 10^1200: ordering the
    # candidates by float coefficients raised OverflowError
    tiny = Fraction(1, 10**400)
    f = SparsePoly.make(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): tiny})
    assert critical.orbit_torus_canonical(f) == critical.torus_canonical(f)


def test_orbit_canonical_form_is_an_orbit_invariant():
    # swapping x and y turns the y^2 z magnitude r into 1/r, and both round
    # to 1.0: ordered by floats, the first permutation won the tie
    r = 1 + Fraction(1, 10**20)
    f = SparsePoly.make(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (2, 0, 1): 1, (0, 2, 1): r})
    forms = [critical.orbit_torus_canonical(permute(s, f)) for s in permutations(range(3))]
    assert all(g == forms[0] for g in forms)
    assert forms[0].terms[0, 2, 1] == 1 / r


@pytest.mark.parametrize("exponent, expected", [(-400, 2**0.5 * 1e-200), (400, 2**0.5 * 1e200)])
def test_irrational_magnitude_of_a_rational_beyond_the_float_range(exponent, expected):
    # the z^3 magnitude is the square root of the x^3 coefficient: its float
    # logarithm was log(0.0) or log(inf)
    f = SparsePoly.make(3, 3, {(3, 0, 0): 2 * Fraction(10)**exponent, (2, 1, 0): 1,
                               (1, 0, 2): 1, (0, 0, 3): 1})
    for canonical in (critical.torus_canonical, critical.orbit_torus_canonical):
        terms = canonical(f).terms
        assert all(isinstance(c, float) for c in terms.values())
    terms = critical.torus_canonical(f).terms
    assert terms == pytest.approx({(3, 0, 0): 1.0, (2, 1, 0): 1.0, (1, 0, 2): 1.0,
                                   (0, 0, 3): expected}, rel=1e-12)


@pytest.mark.parametrize("exponent", [-700, 700])
def test_magnitude_beyond_the_float_range_is_a_value_error(exponent):
    f = SparsePoly.make(3, 3, {(3, 0, 0): 2 * Fraction(10)**exponent, (2, 1, 0): 1,
                               (1, 0, 2): 1, (0, 0, 3): 1})
    for canonical in (critical.torus_canonical, critical.orbit_torus_canonical):
        with pytest.raises(ValueError, match="beyond the floating-point range"):
            canonical(f)


# ---------------------------------------------------------------------------
# orbit canonicalisation against every one of the n! candidates


def reference_orbit_torus_canonical(f):
    """The least candidate over all n! permutations, by support and then by
    the exact coefficients; the first of equal candidates wins."""
    best = None
    for sigma in permutations(range(f.n)):
        cand = critical.torus_canonical(permute(sigma, f))
        key = (support_order_key(cand.terms),
               tuple(cand.terms[a] for a in sorted(cand.terms, key=canonical_key)))
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def assert_orbit_canonical_matches_reference(f):
    assert repr(critical.orbit_torus_canonical(f).terms) == repr(
        reference_orbit_torus_canonical(f).terms), f


def test_orbit_canonical_form_on_the_paper_cases():
    # every solver output and every published form of both reproduced cases
    forms = [critical_fixture_poly(e) for e in CRITICAL_CUBICS + CRITICAL_QUARTICS]
    assert len(forms) == 32
    for n, d, m in ((3, 3, 2), (3, 3, 3), (3, 4, 2), (3, 4, 3)):
        for family in diagonal_families(n, d, m):
            forms += [sol.polynomial() for sol in critical.solve_family(family)]
    assert len(forms) == 90
    for f in forms:
        assert_orbit_canonical_matches_reference(f)


@pytest.mark.parametrize("support", [
    ("x3", "y3", "z3"),  # Fermat: every permutation ties on the support
    ("x3", "y3", "z3", "xyz"),  # Hesse pencil members
    ("x2y2", "y2z2", "x2z2"),
    ("x4", "y4", "z4", "x2y2", "y2z2", "x2z2"),
    ("x2z", "y3"),  # ties between the two permutations fixing the support
])
def test_orbit_canonical_form_on_symmetric_supports(support):
    rng = random.Random(str(support))
    draws = (lambda: Fraction(rng.choice([-2, -1, 1, 2])),  # ties in the coefficients too
             lambda: Fraction(rng.randint(-12, 12) or 1, rng.randint(1, 6)),
             lambda: rng.choice([-1, 1]) * rng.uniform(0.1, 5))
    for _ in range(20):
        draw = rng.choice(draws)
        f = SparsePoly.make(3, sum(mono(support[0])), {mono(name): draw() for name in support})
        for sigma in permutations(range(3)):
            assert_orbit_canonical_matches_reference(permute(sigma, f))


def test_only_candidates_that_can_win_are_canonicalised():
    # a permutation whose support is not the least needs irrational
    # magnitudes beyond the float range: it raised ValueError while all n!
    # candidates were canonicalised, though the winner is exact
    big = 2 * Fraction(10) ** 700
    f = SparsePoly.make(3, 3, {(3, 0, 0): 1, (1, 1, 1): 1, (0, 2, 1): big, (0, 0, 3): 1})
    with pytest.raises(ValueError, match="beyond the floating-point range"):
        reference_orbit_torus_canonical(f)
    assert critical.orbit_torus_canonical(f).terms == {
        (3, 0, 0): 1, (0, 3, 0): 1, (1, 1, 1): 1, (1, 0, 2): big
    }


# ---------------------------------------------------------------------------
# float verification beyond the float range


@pytest.mark.parametrize("terms", [
    # coefficients at the least subnormal: the gradient, of degree -1 in
    # them, is beyond the float range
    {(3, 0, 0): 5e-324, (2, 1, 0): 5e-324},
    # a NaN coefficient, which the JSON reader refuses, makes every component
    # nan; `nan > RESIDUAL_TOL` is False, and max() skips a nan after the first
    {(3, 0, 0): math.nan, (0, 3, 0): 1.0},
])
def test_verify_critical_rejects_a_non_finite_gradient(terms):
    f = SparsePoly.make(3, 3, terms)
    with pytest.raises(ValueError, match="beyond the floating-point range"):
        critical.verify_critical(f)


@pytest.mark.parametrize("entry", [
    critical.verify_critical, fixed_point_check,
    moment.moment_matrix, moment.gradient, moment.square_length,
], ids=lambda entry: entry.__name__)
def test_a_rational_beyond_the_float_range_beside_a_float(entry):
    # the float layers convert every coefficient; the conversion of 10^400
    # ended in a bare OverflowError
    f = SparsePoly(3, 3, {(3, 0, 0): Fraction(10**400), (0, 3, 0): 0.5})
    with pytest.raises(ValueError, match="^a coefficient is beyond the floating-point range$"):
        entry(f)


# ---------------------------------------------------------------------------
# exact verification by the integer u-form, against the gradient's Fractions


def rational_near(rng, exponent):
    """A signed rational within about a hundred of ``10^exponent``: integers
    of up to 20 digits, and the power of ten in the numerator or the
    denominator, so both stay below ``10^400`` for ``|exponent| <= 380``."""
    k = exponent + rng.randint(-2, 2)
    numerator = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(0, 20)) * 10 ** max(k, 0)
    return Fraction(numerator, rng.randint(1, 10 ** rng.randint(0, 20)) * 10 ** max(-k, 0))


def test_verify_critical_matches_the_fraction_gradient():
    # on the supports of the 457 diagonal families of (3,3), (3,4), (3,5) and
    # (4,3) with 2-4 terms; one scale per form, so that the largest entry
    # spreads over and beyond the float range (it has degree -1)
    supports = [(family.poly.n, family.poly.d, tuple(family.poly.terms))
                for n, d in ((3, 3), (3, 4), (3, 5), (4, 3)) for m in (2, 3, 4)
                for family in diagonal_families(n, d, m)]
    assert len(supports) == 457
    rng = random.Random(2500)
    kinds = {"ValueError": 0, "0.0": 0, "subnormal": 0, "normal": 0}
    for _ in range(1200):
        n, d, support = rng.choice(supports)
        exponent = rng.randint(-380, 380)
        f = SparsePoly(n, d, {a: rational_near(rng, exponent) for a in support})
        expected = reference_verify_critical(f)
        assert verify_outcome(critical.verify_critical, f) == expected, f
        kind = expected if expected in kinds else (
            "subnormal" if float(expected) < sys.float_info.min else "normal")
        kinds[kind] += 1
    assert min(kinds.values()) >= 10, kinds


CUBIC = {(3, 0, 0): 1, (0, 3, 0): 1, (1, 1, 1): 1}  # x^3 + y^3 + xyz


@pytest.mark.parametrize("terms, expected", [
    (CUBIC, "1.573054164770141"),
    ({a: Fraction(1, 10**308) for a in CUBIC}, "1.573054164770141e+308"),  # below the largest float
    ({a: Fraction(1, 2 * 10**308) for a in CUBIC}, "ValueError"),  # above it
    ({a: Fraction(1, 10**400) for a in CUBIC}, "ValueError"),
    ({a: Fraction(10**310) for a in CUBIC}, "1.57305416477016e-310"),  # subnormal: 15 digits
    ({a: Fraction(10**400) for a in CUBIC}, "0.0"),  # underflows
    # critical, with centroid sums that vanish exactly
    ({(3, 0, 0): Fraction(10**400), (0, 3, 0): Fraction(1, 10**400)}, "0.0"),
])
def test_verify_critical_at_the_edges_of_the_float_range(terms, expected):
    f = SparsePoly(3, 3, terms)
    assert verify_outcome(critical.verify_critical, f) == reference_verify_critical(f) == expected


# ---------------------------------------------------------------------------
# one verification per torus class


def test_rejected_preferred_candidate_keeps_the_earlier_representative(monkeypatch):
    # b1 = -r and b1 = r, r = (27/5)^(1/2), give one torus class; -r comes
    # first and is verified, and r, all positive, would replace it, so it is
    # verified too
    family = next(f for f in diagonal_families(3, 3, 2) if str(f) == "b1*x^2*z + y^3")
    eqs = critical.gradient_system(family)
    (neg,), (pos,) = critical._newton_candidates(list(eqs), 1)
    assert float(neg) == -float(pos) < 0
    assert [sol.values for sol in critical.solve_real(family, eqs)] == [(pos,)]

    verify = critical.verify_critical
    checked = []

    def reject_positive(f):
        checked.append(f)
        return 1.0 if all(c > 0 for c in f.terms.values()) else verify(f)

    monkeypatch.setattr(critical, "verify_critical", reject_positive)
    (sol,) = critical.solve_real(family, eqs)
    assert sol.values == (neg,)
    assert sol.residual == verify(sol.polynomial()) <= critical.RESIDUAL_TOL
    assert len(checked) == 2


def test_fewer_verifications_than_passing_candidates(monkeypatch):
    # every Newton candidate has passed the residual or exact-zero filter
    verify, newton = critical.verify_critical, critical._newton_candidates
    counts = {"verified": 0, "passed": 0}

    def counting_verify(f):
        counts["verified"] += 1
        return verify(f)

    def counting_newton(eqs, unknowns):
        candidates = newton(eqs, unknowns)
        counts["passed"] += len(candidates)
        return candidates

    monkeypatch.setattr(critical, "verify_critical", counting_verify)
    monkeypatch.setattr(critical, "_newton_candidates", counting_newton)
    # the Hesse pencil and the other four-term families of (3, 3)
    solutions = [sol for f in diagonal_families(3, 3, 4)
                 for sol in critical.solve_real(f, critical.gradient_system(f))]
    assert (len(solutions), counts["verified"], counts["passed"]) == (20, 21, 22)


# ---------------------------------------------------------------------------
# the solver's equations against the preparation they replaced


def reference_equations(family):
    """The equations as the solver used to prepare them: each nonzero
    gradient numerator made primitive, divided by its parameter monomial and
    made primitive again, keeping the first of each key."""
    seen, eqs = set(), []
    for eq in gradient_symbolic(family.poly)[0]:
        if eq.is_zero():
            continue
        eq = eq.primitive()
        shift = eq.monomial_gcd()
        if any(shift):
            eq = eq.shift_down(shift)
        eq = eq.primitive()
        if eq.key() not in seen:
            seen.add(eq.key())
            eqs.append(eq)
    return eqs


def test_gradient_system_matches_the_old_preparation():
    # the float residuals sum in term order, so the terms must keep it too
    families = [f for n, d in [(3, 3), (3, 4), (3, 5), (4, 3)] for m in (2, 3, 4)
                for f in diagonal_families(n, d, m)]
    assert len(families) == 457
    for family in families:
        got = [list(eq.terms.items()) for eq in critical.gradient_system(family)]
        assert got == [list(eq.terms.items()) for eq in reference_equations(family)], family
