"""Critical points of the square length inside diagonal families.

The gradient of ``|m|^2`` with respect to all coefficient directions,
restricted to a parametric family, is an overdetermined polynomial system in
the parameters.  ``gradient_system`` prepares it once, and ``solve_real``
reads its equations as they are: each nonzero numerator is divided by its
parameter monomial and made primitive, and repeats are dropped.
``solve_real`` is multistart Gauss-Newton in at most three unknowns; it
answers only what the closed form below does not (positive-dimensional
sets, degenerate pencils and three unknowns).  Every reported solution is
re-verified against the exact gradient (solvers lie, residuals do not).  A
candidate is placed in its torus class (see below) before that check, and
one that would not replace its class's representative is dropped
unverified, as it cannot reach the output.

Gauss-Newton runs one generated function per system (``_gauss_newton_kernel``),
built once from the exact equations: residuals, Jacobian entries, the normal
equations and the partial-pivot elimination are unrolled into straight-line
code over local floats.  Its float operations are exactly those of a loop
over lists, in the same order: terms in sorted order with the coefficient
first, sums from 0 in plain left-to-right order (as ``sum`` of floats
before CPython 3.12), the first maximal pivot, the same zero-skip and
singularity test.  Float points are printed by ``critical --json`` with
their residuals, so a reordered sum would change the output bytes; the tests
compare the kernel with the list loop it replaced.

Starts that mirror each other in sign run once.  When every equation has a
single exponent parity in an unknown b_i (``_sign_mirrored``; true of every
diagonal family, whose gradient numerators are c_a P_a(u) with
u_a = w(a) c_a^2), the iteration from -b_i is the one from b_i with b_i
negated, bit for bit.  Three facts make it exact: IEEE round-to-nearest is
symmetric in sign; CPython's float ``**`` computes |x|**e and negates it for
odd integer e; and every residual, Jacobian entry, normal-matrix entry and
step then flips sign as a whole, so the sums, pivots, tests and steps map
onto each other.  Only a zero may come out with the other sign; no nonzero
value depends on that, and a point with a zero coordinate is dropped anyway.
On the 11-point axis only indices (0, 10) and (3, 7) are exact negatives, so
729 of the 1,331 starts in three unknowns run (81 of 121 in two).  The grid
is not made symmetric to mirror every start: its float points are printed,
and a symmetric grid changes the points of the 3-point (3,4,4) family.

Results are canonicalized modulo rescaling of the individual coordinates
and an overall scalar ("obvious isomorphism"), which is also the equivalence
used when comparing against published lists.

Before any of that, ``solve_family`` asks ``critical_set`` for the family's
real critical set in closed form.  Both take only supports in which no two
exponents differ by a root e_i - e_j (every identically diagonal family), and
raise ``ValueError`` for any other.  In the u-form of ``moment`` the set is
the open polytope {u > 0, sum u = 1, sum u_a a = p_S}, decided in exact
rationals.  Two kinds of family skip ``solve_real``.  Where the set is
empty the family gets ``[]``: no real point with every parameter nonzero has
a zero gradient, and every solution the solver reports has nonzero
parameters and a zero gradient (exactly for rational points, up to the
residual check for the others, so this was also measured: the solver
returned ``[]`` on each of the 128 empty sets among the 457 diagonal
families of (3,3), (3,4), (3,5) and (4,3) with 2 to 4 terms).  Where the set
is one point in at most two unknowns, each b_k^2 is
q_k = (u_k / w(a_k)) / (u_pin / w(pin)) = u_k pin! / (u_pin a_k!), one
``Fraction`` each, so the points are the sign patterns of b_k = +-sqrt(q_k).
A rational sqrt(q_k) is a ``Fraction``.  An irrational one is an
``AlgebraicNumber``, in the spelling that the ``critical --json`` gates pin:
the projection (the one equation, or the first nonzero resultant) is taken
in b_k^2, as every equation is even in each b_k, and checked to vanish at
q_k; its squarefree part in b_k is printed with the interval that holds the
root, refined by bisecting against x^2 - q_k, as each holds one simple
irrational root.  The patterns are merged, scored, verified and sorted as
``solve_real`` does, but by sign class: a one-point support is affinely
independent (a combination in its plan raises ``ArithmeticError``), so
every magnitude is 1, and a pattern's canonical form is +-1 (``Fraction(1)``
when every value is rational, else 1.0) with the signs of the GF(2) rule
(``_sign_flips``).  ``polys_close`` on two such forms is equality of their
flips, so the flips key the classes, and only the least pattern of each is
substituted.  An exact family is verified once, on its first class: its
exact residual reads each c_a only through c_a^2 and a sign that changes no
|N_a| (``moment._u_quotients``), so every class has it.  Each float class is
verified, as the floats of -sqrt(q_k) and sqrt(q_k) are not negatives of each
other.  Pencils with an identically zero resultant go to ``solve_real``, and
so do positive-dimensional sets and three unknowns.  A positive-dimensional
set in two unknowns is always such a pencil: its equations have infinitely
many real common zeros, so by Bezout they share a factor of positive degree.
Every resultant in an unknown that this factor involves then vanishes
identically, and no equation is free of that unknown.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from . import univariate as uni
from .moment import (
    _centroid_sums,
    _factorials,
    _root_difference_free,
    _u_quotients,
    gradient,
    gradient_symbolic,
)
from .orbits import ParamFamily, Permutation, permute, permute_exponents, support_order_key
from .polyring import (
    DegenerateInputError,
    ExponentVector,
    ParamPoly,
    SparsePoly,
    canonical_key,
    substitute_params,
)

RESIDUAL_TOL = 1e-9  # the largest accepted residual, and the merge distance
INTERVAL_WIDTH = Fraction(1, 10**12)
NEWTON_STEP_TOL = 1e-13
CLUSTER_DIST = 1e-6


# ---------------------------------------------------------------------------
# exact real algebraic numbers (evaluation-grade: isolation + refinement)


class AlgebraicNumber(NamedTuple):
    """A real root pinned by a squarefree polynomial and an isolating interval.

    The interval is at most ``INTERVAL_WIDTH`` wide and ``approx`` is its
    midpoint, so the float residual of a candidate needs no refinement.
    """

    minimal_polynomial: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    approx: float

    def __float__(self) -> float:
        return self.approx


# ---------------------------------------------------------------------------
# gradient systems


def gradient_system(family: ParamFamily) -> tuple[ParamPoly, ...]:
    """The solver's equations on the family; a ``ValueError`` when two
    support exponents differ by a root e_i - e_j.

    Each nonzero gradient numerator, in basis order, is divided by its
    largest parameter monomial and made primitive, and the first equation
    of each ``key`` is kept.  Dividing by b^k only removes roots with some
    b_i = 0, which the family stratification discards anyway.
    """
    if not _root_difference_free(family.support):
        raise ValueError(f"{family}: two support exponents differ by a root")
    equations: dict[tuple, ParamPoly] = {}
    for numerator in gradient_symbolic(family.poly)[0]:
        if not numerator.is_zero():
            eq = numerator.shift_down(numerator.monomial_gcd()).primitive()
            equations.setdefault(eq.key(), eq)
    return tuple(equations.values())


def verify_critical(f: SparsePoly) -> float:
    """Largest absolute gradient component; exactly 0.0 for rational critical
    points, and a ``ValueError`` when a component is beyond the float range.

    On exact input with no root difference it is the largest integer u-form
    numerator over their common denominator (``moment._u_quotients``), in
    one ``int / int`` division, which is correctly rounded.  The residual
    has degree -1 in the coefficients: ``t f`` reads ``1/t`` times that of
    ``f``, so the ``RESIDUAL_TOL`` test depends on the scale of the form.
    """
    if f.is_zero():
        raise DegenerateInputError("cannot verify the zero polynomial")
    quotients = _u_quotients(f)
    if quotients is None:
        components = gradient(f)
        # max() skips a nan after the first component, and `nan > RESIDUAL_TOL` is False
        if not all(isinstance(g, Fraction) or math.isfinite(g) for g in components):
            raise ValueError("the gradient is beyond the floating-point range")
        largest, denominator = max(abs(g) for g in components).as_integer_ratio()
    else:
        numerators, denominator = quotients
        largest = max(map(abs, numerators.values()))
    try:
        # one conversion of the exact maximum: rounding is monotone and
        # symmetric, so it is the largest of the rounded components
        return largest / denominator
    except OverflowError:
        raise ValueError("the gradient is beyond the floating-point range") from None


# ---------------------------------------------------------------------------
# torus canonicalization ("obvious isomorphism")


def _exact_root(n: int, k: int) -> int | None:
    """The integer r >= 0 with r**k == n, or None when n >= 0 is no k-th power."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # at least the real root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == n else None
        r = s


def _greedy_basis(vectors) -> tuple[tuple[int, ...], tuple]:
    """Indices of a maximal independent subset, taken greedily in order, and
    for each vector None if it was taken, else its combination of the taken
    vectors before it: the integers ``(N, D)`` in lowest terms, ``D > 0``,
    with ``sum_t N_t v_t = D v``.

    One fraction-free echelon of the taken vectors is kept, in the order
    taken: each row is an integer vector, zero before its pivot (its first
    nonzero entry) and at the pivots of the rows before it, with its integer
    combination of the taken vectors.  A new vector ``v`` is reduced once,
    row by row in that order, to ``D v - sum_t N_t v_t``, which is zero at
    every pivot: zero iff ``v`` lies in their span, else the row that ``v``
    adds.  The combinations are unique: dividing out contents only keeps
    the integers small."""
    chosen: list[int] = []
    combos: list = []
    rows: list = []  # (pivot, row, combination), in the order taken
    for j, v in enumerate(vectors):
        denominator, numerators = 1, [0] * len(chosen)
        for pivot, row, combination in rows:
            x = v[pivot]
            if x:
                y = row[pivot]
                v = [y * a - x * b for a, b in zip(v, row)]
                denominator *= y
                if y != 1:
                    numerators = [y * a for a in numerators]
                for i, b in enumerate(combination):  # never longer than numerators
                    numerators[i] += x * b
        if any(v):
            combination = [-a for a in numerators] + [denominator]
            common = gcd(*v, *combination)
            if common != 1:
                v, combination = [a // common for a in v], [a // common for a in combination]
            rows.append((v.index(next(filter(None, v))), v, combination))
            chosen.append(j)
            combos.append(None)
        else:
            common = gcd(denominator, *numerators) * (1 if denominator > 0 else -1)
            if common != 1:
                numerators, denominator = [a // common for a in numerators], denominator // common
            combos.append((tuple(numerators), denominator))
    return tuple(chosen), tuple(combos)


def _parity_combinations(support: tuple[ExponentVector, ...]) -> tuple:
    """For each term, None if its character (exponent parities and a final
    1, as a bitmask) is independent over GF(2) of the characters before it,
    else the indices of the independent terms whose characters sum to it."""
    n = len(support[0])
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (vector, terms summed)
    out = []
    for j, a in enumerate(support):
        v = 1 << n | sum(1 << i for i, e in enumerate(a) if e % 2)
        terms = 0
        while v and v.bit_length() in pivots:
            w, used = pivots[v.bit_length()]
            v ^= w
            terms ^= used
        if v:
            pivots[v.bit_length()] = (v, terms | 1 << j)
            out.append(None)
        else:
            out.append(tuple(t for t in range(j) if terms >> t & 1))
    return tuple(out)


@lru_cache(maxsize=256)
def _torus_plan(support: tuple[ExponentVector, ...]):
    """What ``torus_canonical`` needs of a sorted support alone: the greedy
    independent terms (rescaled to |c'| = 1), each other term's exponent
    combination of them, and the GF(2) sign rule (``_parity_combinations``)."""
    chosen, combos = _greedy_basis([a + (1,) for a in support])
    return chosen, combos, _parity_combinations(support)


def torus_canonical(f: SparsePoly) -> SparsePoly:
    """Deterministic representative of ``f`` modulo coordinate and overall scaling.

    A maximal subset of support coefficients (greedy in canonical order,
    independence measured on the exponent vectors augmented with an all-ones
    coordinate) is rescaled to absolute value 1; leftover sign freedom is
    spent making the coefficient signs lexicographically as positive as
    possible.  Exact when the input is rational and the rescaling stays
    rational; float magnitudes otherwise, and ``ValueError`` when one of
    those is beyond the float range.  Two steps: ``_torus_magnitudes`` reads
    only the absolute coefficients, ``_sign_flips`` only the signs.

    The signs come from linear algebra over GF(2).  Flipping the signs of a
    set of coordinates and possibly of the whole form is a vector
    s in GF(2)^(n+1); it flips term a iff <chi_a, s> = 1, where the
    character chi_a holds the parities of a's exponents and a final 1.  So
    the reachable patterns of negative terms form the coset
    neg + {(<chi_a, s>)_a : s}.  The most positive pattern, the minimum over
    all 2^(n+1) flips in lexicographic order, is the lexicographic minimum
    of that coset; it is unique even where several flips reach it.
    Greedily, in canonical order: when chi_j is independent of the
    characters before it, <chi_j, s> can still take either value once the
    earlier terms' values are fixed (chi_j is not constant on the solutions
    of those equations), so the minimum makes term j positive.  When chi_j
    is the sum of the characters of some earlier independent terms T, which
    are all positive by then, <chi_j, s> is the sum of their flips, that is
    of their input negativities, so term j gets its input sign times
    theirs.  Input signs are read exactly (``c > 0``), also for rationals
    beyond the float range.
    """
    if f.is_zero():
        raise DegenerateInputError("zero polynomial")
    if f.is_parametric():
        raise TypeError("torus canonicalization expects a numeric polynomial")
    support = tuple(sorted(f.terms, key=canonical_key))
    coeffs = [f.terms[a] for a in support]
    chosen, combos, parity = _torus_plan(support)
    magnitudes = _torus_magnitudes(chosen, combos, coeffs)
    flips = _sign_flips(parity, [not c > 0 for c in coeffs])
    terms = {a: -mag if flip else mag for a, mag, flip in zip(support, magnitudes, flips)}
    return SparsePoly(f.n, f.d, terms)


def _torus_magnitudes(chosen, combos, coeffs) -> list:
    """``torus_canonical``'s magnitude step, from the absolute coefficients alone."""
    if all(isinstance(c, Fraction) for c in coeffs):
        magnitudes = []
        for j, combo in enumerate(combos):
            if combo is None:
                magnitudes.append(Fraction(1))
                continue
            # |c_j| prod |c_t|^(-gamma_t) is rational iff the numerator and the
            # denominator of its k-th power, gamma = N / k in lowest terms,
            # are k-th powers of integers
            exponents, k = combo
            power = abs(coeffs[j]) ** k
            for t, g in zip(chosen, exponents):
                power /= abs(coeffs[t]) ** g
            num, den = _exact_root(power.numerator, k), _exact_root(power.denominator, k)
            if num is None or den is None:
                break
            magnitudes.append(Fraction(num, den))
        else:
            return magnitudes
    # a rational's logarithm from its integers, which may be beyond the float range
    logs = [math.log(abs(c.numerator)) - math.log(c.denominator) if isinstance(c, Fraction)
            else math.log(abs(c)) for c in coeffs]
    try:
        magnitudes = [
            1.0 if combo is None
            else math.exp(logs[j] - sum(g / combo[1] * logs[t]
                                        for t, g in zip(chosen, combo[0])))
            for j, combo in enumerate(combos)
        ]
    except OverflowError:
        magnitudes = [0.0]  # as for a magnitude that underflows
    if 0.0 in magnitudes:
        raise ValueError("a rescaled coefficient is beyond the floating-point range")
    return magnitudes


def _sign_flips(parity, negative) -> tuple:
    """The GF(2) sign rule of ``torus_canonical``: whether each term flips,
    from the terms' negativities and ``_parity_combinations``."""
    return tuple(combo is not None and (negative[j] + sum(negative[t] for t in combo)) % 2
                 for j, combo in enumerate(parity))


def polys_close(f: SparsePoly, g: SparsePoly) -> bool:
    """Support equality plus coefficient agreement: exact where both are
    exact, within ``RESIDUAL_TOL`` otherwise."""
    if (f.n, f.d) != (g.n, g.d) or f.support() != g.support():
        return False
    for a, c in f.terms.items():
        other = g.terms[a]
        if isinstance(c, Fraction) and isinstance(other, Fraction):
            if c != other:
                return False
        elif abs(float(c) - float(other)) > RESIDUAL_TOL:
            return False
    return True


@lru_cache(maxsize=256)
def _orbit_plan(n: int, support: tuple[ExponentVector, ...]) -> tuple[Permutation, ...]:
    """The permutations, in order, whose image of the support is least by
    ``support_order_key``: the only ones whose candidates can win."""
    keys = {sigma: support_order_key(permute_exponents(sigma, a) for a in support)
            for sigma in permutations(range(n))}
    least = min(keys.values())
    return tuple(sigma for sigma, key in keys.items() if key == least)


def orbit_torus_canonical(f: SparsePoly) -> SparsePoly:
    """Canonical form modulo coordinate permutation plus rescaling: the
    least candidate by support, then by the exact coefficients.
    ``torus_canonical`` keeps the support, so only the permutations giving
    the least support can win, and only they run (``_orbit_plan``)."""
    best = None
    for sigma in _orbit_plan(f.n, tuple(sorted(f.terms, key=canonical_key))):
        cand = torus_canonical(permute(sigma, f))
        key = tuple(cand.terms[a] for a in sorted(cand.terms, key=canonical_key))
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


# ---------------------------------------------------------------------------
# closed-form critical sets of supports with no root difference


class CriticalSet(NamedTuple):
    """The real critical set of a family with no root difference.

    In the u-form of ``moment`` (u_a = w(a) c_a^2, here normalised to sum 1,
    with the signs of the coefficients free) it is the open polytope
    {u > 0, sum u = 1, sum u_a a = p_S}, where p_S is the orthogonal
    projection of t = (d/n) 1 onto the affine hull of the support S.
    (A NamedTuple: the package does not import ``dataclasses``, which with
    ``inspect`` cost about as much import time as the package itself.)
    """

    family: ParamFamily
    rank: int  # affine rank r of the support
    projection: tuple[Fraction, ...]  # p_S
    dimension: int  # |S| - 1 - r, the dimension of every nonempty set
    square_length: Fraction  # |m|^2 = 4 |p_S - t|^2, constant on the set
    # a point u of the set, support in display order; None iff it is empty
    point: tuple[Fraction, ...] | None

    @property
    def is_empty(self) -> bool:
        return self.point is None


def _dot(a, b):
    return sum(map(mul, a, b))


def _strictly_feasible(rows: list, k: int) -> tuple[list[int], int] | None:
    """Integers ``(z, D)``, ``D > 0``, with ``c + <a, z / D> > 0`` for every
    integer row ``(c, a)`` over ``k`` unknowns, or None: Fourier-Motzkin
    elimination (exact for strict inequalities), last unknown first, then
    back-substitution over one common denominator."""
    levels = []
    for v in reversed(range(k)):
        lower = [row for row in rows if row[1][v] > 0]
        upper = [row for row in rows if row[1][v] < 0]
        rows = [row for row in rows if row[1][v] == 0]
        # z_v lies above each lower bound and below each upper one: both
        # rows scaled positively so that z_v cancels, their sum is positive
        for cp, ap in lower:
            for cq, aq in upper:
                p, q = -aq[v], ap[v]
                rows.append((p * cp + q * cq, tuple(p * x + q * y for x, y in zip(ap, aq))))
        levels.append((v, lower, upper))
    if any(c <= 0 for c, _ in rows):
        return None
    z, denominator = [0] * k, 1
    for v, lower, upper in reversed(levels):
        # z_v and the unknowns after it are still 0 here; over D step
        # (step = 2 lcm |a_v|) each bound on z_v has an even numerator
        step = 2 * lcm(*(a[v] for _, a in lower + upper))
        lo = max((-(c * denominator + _dot(a, z)) * (step // a[v]) for c, a in lower), default=None)
        hi = min((-(c * denominator + _dot(a, z)) * (step // a[v]) for c, a in upper), default=None)
        z, denominator = [x * step for x in z], denominator * step
        if lo is not None and hi is not None:
            z[v] = (lo + hi) // 2
        elif lo is not None:
            z[v] = lo + denominator
        elif hi is not None:
            z[v] = hi - denominator
    return z, denominator


def _normal_solution(gram: list, rhs: list) -> tuple[tuple[int, ...], int]:
    """Integers ``(N, D)`` in lowest terms, ``D > 0``, with ``gram N = D rhs``:
    fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968), unpivoted, as
    the Gram matrix of independent vectors has positive leading minors."""
    rows, previous = [[*row, b] for row, b in zip(gram, rhs)], 1
    for k in range(len(rows)):
        pivot_row, pivot = rows[k], rows[k][k]
        rows = [row if row is pivot_row else [(pivot * a - row[k] * b) // previous
                                              for a, b in zip(row, pivot_row)] for row in rows]
        previous = pivot
    common = gcd(previous, *(row[-1] for row in rows))
    return tuple(row[-1] // common for row in rows), previous // common


def critical_set(family: ParamFamily) -> CriticalSet:
    """The family's real critical set in closed form (see ``CriticalSet``).

    Defined when no two support exponents differ by a root e_i - e_j.  With
    the support's first point a_0 as origin, the other points' differences
    are taken greedily into an independent set B, in one pass over one
    fraction-free echelon (``_greedy_basis``), which also gives each other
    difference as an integer combination of B over a common denominator;
    p_S solves the normal equations over B by fraction-free Gauss-Jordan
    (Bareiss, ``_normal_solution``).  A u with sum 1 and centroid p_S then
    has one free coordinate per dependent difference, and each coordinate
    of B is affine in them, so strict positivity is decided, and a point
    found, by Fourier-Motzkin over the |S| - 1 - r free coordinates.

    Integers throughout: the differences, the Gram matrix of B,
    n (t - a_0) = d 1 - n a_0, the solution N / D of the normal equations
    (Gram matrix times N = D times the right side), n D (p_S - a_0) =
    sum_j N_j B_j, the rows n D u of u > 0 (free coordinates scaled to
    integer coefficients: on a bounded set, ``_strictly_feasible`` picks
    midpoints alone, which positive scalings do not move) and the free
    coordinates it picks, over one common denominator E.  ``Fraction``s are
    built only for the fields, one division each.  The point is checked
    exactly against the gradient's u-form sums ``norm2 <a, s> - <s, s>``,
    in integers at a multiple t u: as quadratic forms they are t^2 times
    their values at u.  With no free coordinate (S affinely independent, as
    every one-point set is) t u is the row constants c = n D u; otherwise
    t = n D E, and row (c, a) of t u is c E + <a, z>, z the numerators.
    """
    points = family.display_terms()
    if not _root_difference_free(points):
        raise ValueError(f"{family}: two support exponents differ by a root")
    n, d = family.poly.n, family.poly.d
    base = points[0]
    diffs = [tuple(map(sub, a, base)) for a in points[1:]]
    chosen, combos = _greedy_basis(diffs)
    basis = [diffs[j] for j in chosen]
    rank = len(basis)
    gram = [[_dot(b, c) for c in basis] for b in basis]
    target = [d - n * x for x in base]  # n (t - a_0)
    numerators, denominator = _normal_solution(gram, [_dot(b, target) for b in basis])
    scale = n * denominator
    # offset = n D (p_S - a_0), so n D (p_S - t) = offset - D n (t - a_0)
    offset = [_dot(numerators, column) for column in zip(*basis)]
    projection = tuple(Fraction(scale * x + o, scale) for x, o in zip(base, offset))
    square_length = Fraction(
        4 * sum((o - denominator * e) ** 2 for o, e in zip(offset, target)), scale * scale
    )

    free = [k for k, combo in enumerate(combos) if combo is not None]
    point = None
    if not free:
        # the barycentric coordinates of p_S: n D u = (n D - sum N, N)
        certificate = [scale - sum(numerators), *numerators]
        if min(certificate) > 0:
            point = tuple(Fraction(c, scale) for c in certificate)
    else:
        # n D sum_k u_k (a_k - a_0) = sum_j N_j B_j, with u_k = D_v w_v / (n D) free
        # for the v-th dependent difference, D_v (a_k - a_0) = sum_j g_vj B_j: the
        # row of B_j is N_j - sum_v g_vj w_v, and n D u_0 is n D minus all others
        rows = [None] * len(diffs)
        for j, k in enumerate(chosen):
            rows[k] = (numerators[j], tuple(-combos[f][0][j] if j < len(combos[f][0]) else 0
                                            for f in free))
        for v, k in enumerate(free):
            rows[k] = (0, tuple(combos[k][1] if v == w else 0 for w in range(len(free))))
        rows.insert(0, (scale - sum(c for c, _ in rows),
                        tuple(-sum(x) for x in zip(*(a for _, a in rows)))))
        feasible = _strictly_feasible(rows, len(free))
        if feasible is not None:
            z, common = feasible  # the point is w = z / common: n D common u = c common + <a, z>
            certificate = [c * common + _dot(a, z) for c, a in rows]
            point = tuple(Fraction(x, common * scale) for x in certificate)
    if point is not None and any(_centroid_sums(points, certificate)):
        raise ArithmeticError(f"{family}: the closed-form point is not critical")
    return CriticalSet(family, rank, projection, len(free), square_length, point)


# ---------------------------------------------------------------------------
# the solver


class CriticalSolution(NamedTuple):
    """One verified critical point of a family."""

    family: ParamFamily
    values: tuple
    residual: float
    canonical_form: SparsePoly

    def polynomial(self) -> SparsePoly:
        return _substitute_values(self.family, self.values)


def _substitute_values(family: ParamFamily, values) -> SparsePoly:
    subs = [
        v if isinstance(v, Fraction) else float(v) for v in values
    ]
    return substitute_params(family.poly, subs)


def _residual_on_equations(eqs: list[ParamPoly], values) -> float:
    """Scale-relative float residual of a candidate point."""
    floats = [float(v) for v in values]
    worst = 0.0
    for eq in eqs:
        total = 0.0
        scale = 1.0
        for exp, c in eq.terms.items():
            term = float(c)
            for e, v in zip(exp, floats):
                if e:
                    term *= v**e
            total += term
            scale += abs(term)
        worst = max(worst, abs(total) / scale)
    return worst


def _exact_zero_on_equations(eqs: list[ParamPoly], values) -> bool:
    return all(eq.subs(list(values)) == 0 for eq in eqs)


def _eliminate_direction(ranked: list[ParamPoly], eliminate: int):
    """First nonzero Sylvester resultant over pairs of minimal degree."""
    for ea, eb in combinations(ranked, 2):
        if ea.degree_in(eliminate) < 1 or eb.degree_in(eliminate) < 1:
            continue
        res = uni.trim(uni.resultant(ea, eb, eliminate))
        if not uni.is_zero(res):
            return res
    # an equation free of the eliminated symbol is already a projection
    for eq in ranked:
        if eq.degree_in(eliminate) == 0:
            return uni.trim(eq.univariate())
    return None


def _sign_mirrored(eqs: list[ParamPoly], unknowns: int) -> tuple[bool, ...]:
    """For each unknown b_i, whether every equation has a single exponent
    parity in b_i, so that negating b_i negates or keeps each equation."""
    return tuple(
        all(len({exp[i] % 2 for exp in eq.terms}) == 1 for eq in eqs) for i in range(unknowns)
    )


def _newton_candidates(eqs: list[ParamPoly], unknowns: int) -> list[tuple]:
    """Multistart Gauss-Newton on a grid of 11 points per axis in [-3, 3].

    In an unknown where ``_sign_mirrored`` holds (every equation has one
    exponent parity in it), the start at -b_i runs the iteration of the
    start at b_i with b_i negated, bit for bit (see the module docstring).
    The axis is not symmetric in floats, and stays as it is because its
    points are printed: only indices (0, 10) and (3, 7) are exact negatives.
    So a start with index 7 or 10 in such an unknown reuses the run from
    index 3 or 0, which comes earlier in product order, with those
    coordinates negated.  Starts, filters and clustering keep their order,
    so the candidates do not change.
    """
    run_start = _gauss_newton_kernel(eqs, unknowns)
    mirrored = _sign_mirrored(eqs, unknowns)
    axis = [(-3.0 + 0.6 * k) for k in range(11)]
    mirror = {j: k for k, j in combinations(range(11), 2) if axis[j] == -axis[k]}
    runs: dict[tuple[int, ...], list[float] | None] = {}
    points: list[list[float]] = []
    for index in product(range(11), repeat=unknowns):
        source = tuple(mirror.get(k, k) if m else k for k, m in zip(index, mirrored))
        if source == index:
            x = runs[index] = run_start(*(axis[k] for k in index))
        else:
            x = runs[source]
            if x is not None:
                x = [v if k == s else -v for v, k, s in zip(x, index, source)]
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


def _float_expression(poly: ParamPoly) -> str:
    """``poly`` as a float expression in ``b0, b1, ...``: terms in sorted
    order, each the coefficient's ``repr`` times ``b{i}`` or the power
    ``b{i}_{e}``, which stands for ``b{i}**e`` computed once beforehand."""
    if not poly.terms:
        return "0.0"
    pieces = []
    for exp, coeff in sorted(poly.terms.items()):
        factors = [repr(float(coeff))]
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(f"b{i}")
            elif e > 1:
                factors.append(f"b{i}_{e}")
        pieces.append("*".join(factors))
    return "+".join(pieces)


def _first_max_lines(names: list[str], pivot: int | None = None) -> list[str]:
    """Source setting ``t`` to ``max(abs(v) for v in names)``: a later value
    replaces ``t`` only when strictly greater, as in ``max``.  With ``pivot``,
    ``p`` is set to ``pivot`` plus the index of the winner."""
    lines = [f"t = abs({names[0]})"] + ([f"p = {pivot}"] if pivot is not None and names[1:] else [])
    for offset, name in enumerate(names[1:], 1):
        lines += [f"u = abs({name})", "if u > t:", "    t = u"]
        if pivot is not None:
            lines.append(f"    p = {pivot + offset}")
    return lines


def _gauss_newton_kernel(eqs: list[ParamPoly], unknowns: int):
    """One start's whole Gauss-Newton iteration, generated for this system.

    The function takes the start coordinates and returns the converged point
    as a list, or None when the start diverges, meets a singular normal
    matrix or runs out of iterations (see the module docstring for why each
    float operation keeps its place).  J^T J is symmetric, so its lower half
    is copied, and entries never read again are not computed.
    """
    k = unknowns
    jac = [[eq.diff(c) for c in range(k)] for eq in eqs]
    polys = eqs + [d for row in jac for d in row]
    powers = sorted({(i, e) for q in polys for exp in q.terms for i, e in enumerate(exp) if e > 1})
    body = [f"b{i}_{e} = b{i}**{e}" for i, e in powers]
    body += [f"f{r} = {_float_expression(eq)}" for r, eq in enumerate(eqs)]
    body += [f"j{r}_{c} = {_float_expression(d)}" for r, row in enumerate(jac) for c, d in enumerate(row)]
    # normal equations J^T J s = -J^T f in m{row}_{col}, right side in column k
    rows = range(len(eqs))
    for i in range(k):
        for j in range(i, k):
            body.append(f"m{i}_{j} = 0.0" + "".join(f"+j{r}_{i}*j{r}_{j}" for r in rows))
        body += [f"m{j}_{i} = m{i}_{j}" for j in range(i + 1, k)]
        body.append(f"m{i}_{k} = -(0.0" + "".join(f"+j{r}_{i}*f{r}" for r in rows) + ")")
    # Gauss-Jordan: pivot rows are swapped over the columns still read, and
    # column ``col`` of the other rows is never read after its own step
    for col in range(k):
        body += _first_max_lines([f"m{r}_{col}" for r in range(col, k)], pivot=col)
        body += ["if t < 1e-300:", "    return None"]
        tail = range(col, k + 1)
        for r in range(col + 1, k):
            mine = ", ".join(f"m{col}_{c}" for c in tail)
            theirs = ", ".join(f"m{r}_{c}" for c in tail)
            body += [f"if p == {r}:", f"    {mine}, {theirs} = {theirs}, {mine}"]
        for r in range(k):
            if r != col:
                body += [f"if m{r}_{col} != 0.0:", f"    q = m{r}_{col} / m{col}_{col}"]
                body += [f"    m{r}_{c} = m{r}_{c} - q*m{col}_{c}" for c in tail[1:]]
    body += [f"s{i} = m{i}_{k} / m{i}_{i}" for i in range(k)]
    body += [f"b{i} = b{i} + s{i}" for i in range(k)]
    body += _first_max_lines([f"b{i}" for i in range(k)]) + ["if t > 1e6:", "    return None"]
    body += _first_max_lines([f"s{i}" for i in range(k)])
    point = ", ".join(f"b{i}" for i in range(k))
    body += [f"if t < {NEWTON_STEP_TOL!r}:", f"    return [{point}]"]
    source = "\n".join(
        [f"def run_start({point}):", "    for _ in range(80):"]
        + [f"        {line}" for line in body]
        + ["    return None"]
    )
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 - float reprs and fixed names only
    return namespace["run_start"]


def solve_real(family: ParamFamily, equations: tuple[ParamPoly, ...]) -> list[CriticalSolution]:
    """All verified real critical points of the family with nonzero
    parameters that multistart Gauss-Newton finds from its
    ``gradient_system`` equations (``_newton_candidates``, whose candidates
    have already passed its residual or exact-zero filter); a
    ``ValueError`` in more than three unknowns.

    Solutions equivalent under torus rescaling are merged, preferring the
    all-positive-parameter representative.  An empty list is a valid outcome.
    A candidate is canonicalised before it is verified: one whose torus class
    already has a representative it would not replace cannot reach the
    output, and is dropped unverified.  Every other candidate is verified,
    so each reported solution carries its own residual.
    """
    unknowns = family.nparams
    if unknowns > 3:
        raise ValueError("systems in more than three unknowns are unsupported")
    eqs = list(equations)
    if not eqs:
        return []

    solutions: list[CriticalSolution] = []
    scores: list[tuple] = []  # one per solution; the lower score is preferred
    for values in _newton_candidates(eqs, unknowns):
        poly = _substitute_values(family, values)
        if poly.is_zero():
            continue
        canonical = torus_canonical(poly)
        # all parameters positive first, then the float coefficients in order
        coeffs = tuple(float(poly.terms[a]) for a in sorted(poly.terms, key=canonical_key))
        score = (0 if all(float(v) > 0 for v in values) else 1, coeffs)
        # the first torus class within RESIDUAL_TOL; a candidate that would
        # not replace its representative cannot reach the output
        k = next(
            (k for k, sol in enumerate(solutions) if polys_close(sol.canonical_form, canonical)),
            len(solutions),
        )
        if k < len(solutions) and scores[k] <= score:
            continue
        residual = verify_critical(poly)
        if residual > RESIDUAL_TOL:
            continue
        sol = CriticalSolution(family, tuple(values), residual, canonical)
        if k < len(solutions):
            solutions[k], scores[k] = sol, score
        else:
            solutions.append(sol)
            scores.append(score)
    solutions.sort(key=lambda s: tuple(float(v) for v in s.values))
    return solutions


def _signed_roots(projection: uni.UPoly, q: Fraction) -> list[AlgebraicNumber]:
    """-sqrt(q) and sqrt(q), q not a rational square, as roots of the
    squarefree part p of projection(x^2), each with its Sturm isolating
    interval refined to ``INTERVAL_WIDTH``.  Each interval holds one simple
    irrational root of p, +-sqrt(q), which is the only root there of
    q.den x^2 - q.num, so the bisection is decided against q:
    ``refine_interval`` on that quadratic makes the same choices as on p."""
    if uni.sign_at(projection, q):
        raise ArithmeticError(f"sqrt({q}) is not a root of the projection")
    p = uni.squarefree_part([c for x in projection for c in (x, 0)][:-1])

    def rank(a: int, b: int) -> int:  # how many of -sqrt(q), sqrt(q) lie below a / b, b > 0
        return 1 if a * a * q.denominator < q.numerator * b * b else 2 * (a > 0)

    intervals = uni.isolate_real_roots(p)
    ranks = [(rank(*lo.as_integer_ratio()), rank(*hi.as_integer_ratio())) for lo, hi in intervals]
    roots = []
    for t in (0, 1):  # -sqrt(q), then sqrt(q)
        held = [interval for interval, (r, s) in zip(intervals, ranks) if r <= t < s]
        if len(held) != 1:
            raise ArithmeticError(f"{len(held)} isolating intervals hold a square root of {q}")
        lo, hi = uni.refine_interval([-q.numerator, 0, q.denominator], *held[0], INTERVAL_WIDTH)
        roots.append(AlgebraicNumber(tuple(p), lo, hi, float((lo + hi) / 2)))
    return roots


def _point_solutions(family: ParamFamily, cs: CriticalSet) -> list[CriticalSolution]:
    """``solve_real``'s output at a one-point critical set in at most two
    unknowns, from b_k^2 = q_k (see the module docstring); projections are
    taken in b_k^2, as Res_y(F(x^2, y^2), G(x^2, y^2)) = Res(F, G)(x^2)^2.
    Each q_k is a reduced integer pair, and a rational root's value, float
    and sign are read from its integers once per unknown.  The least pattern
    of each class is verified on the polynomial ``substitute_params`` gives
    it, but in an exact family only the first, whose residual all share."""
    terms = family.display_terms()
    # q_k = u_k pin! / (u_pin a_k!), as w(a) = a! / d!: a reduced integer pair each
    (top, bottom), pin = cs.point[-1].as_integer_ratio(), _factorials(terms[-1])
    squares = [(u.numerator * bottom * pin, u.denominator * top * _factorials(a))
               for u, a in zip(cs.point, terms[:-1])]
    squares = [(p // g, q // g) for p, q in squares for g in [gcd(p, q)]]
    choices = []  # per unknown, -sqrt(q_k) and sqrt(q_k) as (value, float, value <= 0)
    for p, q in squares:
        root, denominator = _exact_root(p, 2), _exact_root(q, 2)
        if root is None or denominator is None:
            choices.append(None)
        else:  # root / denominator is float(v), one correctly rounded division
            v, x = Fraction(root, denominator), root / denominator
            choices.append(((-v, -x, True), (v, x, False)))
    exact = None not in choices
    if not exact:
        equations = gradient_system(family)
        if any(e % 2 for eq in equations for exp in eq.terms for e in exp):
            raise ArithmeticError(f"{family}: an equation is odd in a parameter")
        halved = [ParamPoly._trusted(eq.nsyms, {tuple(e // 2 for e in x): c
                                                for x, c in eq.terms.items()}) for eq in equations]
        if len(choices) == 1:
            (eq,) = halved
            projections = [uni.trim(eq.univariate())]
        else:
            ranked = sorted(halved, key=lambda e: (e.total_degree(), len(e.terms)))
            # eliminating b2^2 leaves b1^2 values, and eliminating b1^2 leaves b2^2 values
            projections = [_eliminate_direction(ranked, 1), _eliminate_direction(ranked, 0)]
            if None in projections:
                return solve_real(family, equations)  # a degenerate pencil: Newton
        choices = [c or [(v, v.approx, v.approx <= 0) for v in _signed_roots(p, Fraction(*q))]
                   for c, p, q in zip(choices, projections, squares)]

    # solve_real's merge with no polynomial per pattern: the support is
    # affinely independent, so a canonical form is +-1 by the flips alone
    support = tuple(reversed(terms))  # canonical order: the pinned term, then b_m .. b_1
    _, combos, parity = _torus_plan(support)
    if any(combo is not None for combo in combos):
        raise ArithmeticError(f"{family}: a one-point support is affinely dependent")
    one = Fraction(1) if exact else 1.0
    best: dict[tuple, tuple] = {}  # the least (score, values, floats) of each class, by its flips
    for pattern in product(*choices):
        values, floats, negative = zip(*pattern)
        key = _sign_flips(parity, (False, *reversed(negative)))  # canonical order
        score = (0 if min(floats) > 0 else 1, (1.0, *reversed(floats)))
        if key not in best or score < best[key][0]:
            best[key] = (score, values, floats)
    n, d = family.poly.n, family.poly.d
    solutions = []
    for key, (_, values, floats) in sorted(best.items(), key=lambda item: item[1][2]):
        if not (exact and solutions):  # an exact residual is the same for every class
            coeffs = (*(values if exact else floats), one)
            residual = verify_critical(SparsePoly(n, d, dict(zip(terms, coeffs))))
            if residual > (0.0 if exact else RESIDUAL_TOL):
                raise ArithmeticError(f"{family}: a closed-form point is not critical")
        form = {a: -one if flip else one for a, flip in zip(support, key)}
        solutions.append(CriticalSolution(family, values, residual, SparsePoly(n, d, form)))
    return solutions


def solve_family(family: ParamFamily) -> list[CriticalSolution]:
    """The family's critical points: ``[]`` for an empty closed-form set,
    the sign patterns of +-sqrt(q_k) for one point in at most two unknowns
    (see the module docstring; an exact one is verified once), and
    ``solve_real``'s Newton otherwise; a ``ValueError`` for a support with a
    root difference."""
    cs = critical_set(family)
    if cs.is_empty:
        return []
    if cs.dimension == 0 and family.nparams <= 2:
        return _point_solutions(family, cs)
    return solve_real(family, gradient_system(family))
