"""Reference computations that share as little as possible with the code
they check: the trace formula in ``Fraction`` arithmetic and forward jets
through it, the derivative of the normalized norm along one-parameter
subgroups, the projective fixed-point criterion of diagonal moment
matrices, the merge of a closed-form point's sign patterns with every
pattern canonicalised on its own, the closed-form critical set as it was
computed through ``Fraction`` points, its normal equations as a greedy
echelon solved them, and the published-list comparison that canonicalises
every produced form."""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from momentforge import critical
from momentforge.critical import (
    RESIDUAL_TOL,
    CriticalSet,
    CriticalSolution,
    orbit_torus_canonical,
    polys_close,
    torus_canonical,
    verify_critical,
)
from momentforge.moment import _root_difference_free, moment_matrix
from momentforge.orbits import ParamFamily
from momentforge.polyring import (
    DegenerateInputError,
    ParamPoly,
    SparsePoly,
    canonical_key,
    parameter_symbols,
    scalar_is_zero,
)
from momentforge.symd import enumerate_monomials, inner_product, weight

# ---------------------------------------------------------------------------
# the trace-formula engine in the coefficients' own ring (``Fraction``, float,
# ``ParamPoly`` or a jet): ``moment._norm2`` to ``moment._parametric`` and
# ``moment._lie_numerators`` as they were before exact and parametric input
# were lifted to integers, copied unchanged; the ``fraction_*`` functions are
# the exact and parametric branches of the entry points as they were then


def _norm2(zero, coeffs):
    total = zero
    for alpha, c in coeffs:
        total = total + c * c * weight(alpha)
    return total


def _inner_products(zero, coeffs, n: int) -> list[list]:
    # derivative polynomials as maps exponent -> coefficient
    derivs: list[dict] = []
    for i in range(n):
        dmap: dict = {}
        for alpha, c in coeffs:
            k = alpha[i]
            if k:
                beta = alpha[:i] + (k - 1,) + alpha[i + 1:]
                dmap[beta] = c if k == 1 else c * Fraction(k)
        derivs.append(dmap)

    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            small, large = derivs[i], derivs[j]
            if len(large) < len(small):
                small, large = large, small
            s = zero
            for beta, c in small.items():
                other = large.get(beta)
                if other is not None:
                    s = s + c * other * weight(beta)
            g[i][j] = g[j][i] = s
    return g


def _moment_numerators(g, norm2, n: int, d: int) -> list[list]:
    shifted = norm2 * Fraction(-2 * d * d, n)
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = g[i][j] * 2
            if i == j:
                entry = entry + shifted
            m[i][j] = m[j][i] = entry
    return m


def _trace_product(zero, m, n: int):
    p = zero
    for i in range(n):
        for j in range(n):
            p = p + m[i][j] * m[j][i]
    return p


def _trace_parts(zero, coeffs, n: int, d: int):
    """``(P, norm2)``: numerator of ``|m|^2`` and the squared norm."""
    norm2 = _norm2(zero, coeffs)
    m = _moment_numerators(_inner_products(zero, coeffs, n), norm2, n, d)
    return _trace_product(zero, m, n), norm2


def _parametric(f: SparsePoly) -> tuple[ParamPoly, list]:
    """The zero of the parameter ring, and every coefficient lifted into it."""
    nsyms = parameter_symbols(f)
    coeffs = []
    for alpha, c in f.terms.items():
        if isinstance(c, float):
            raise TypeError("cannot mix float coefficients with parameters")
        coeffs.append((alpha, c if isinstance(c, ParamPoly) else ParamPoly.const(nsyms, c)))
    return ParamPoly(nsyms), coeffs



def _lie_numerators(zero, coeffs, n: int, d: int):
    """``(numerators, norm2)`` in canonical basis order: entry ``a`` of the
    gradient is ``8 d w(a) (v_a norm2 - <v, f> c_a) / (d^2 norm2^3)`` with
    ``v = sum_ij M_ij x_i d_j f``."""
    terms = dict(coeffs)
    norm2 = _norm2(zero, coeffs)
    m = _moment_numerators(_inner_products(zero, coeffs, n), norm2, n, d)
    # x_i d_j moves the term c x^alpha to alpha - e_j + e_i, times alpha_j
    columns = [[(i, m[i][j]) for i in range(n) if not scalar_is_zero(m[i][j])] for j in range(n)]
    v: dict = {}
    for alpha, c in coeffs:
        for j, k in enumerate(alpha):
            if k:
                lowered, ck = alpha[:j] + (k - 1,) + alpha[j + 1:], c * k
                for i, m_ij in columns[j]:
                    beta = lowered[:i] + (lowered[i] + 1,) + lowered[i + 1:]
                    term = m_ij * ck
                    v[beta] = v[beta] + term if beta in v else term
    pairing = inner_product(SparsePoly(n, d, v), SparsePoly(n, d, terms))
    numerators = [(v.get(a, zero) * norm2 - pairing * terms.get(a, zero)) * (8 * d * weight(a))
                  if a in v or a in terms else zero for a in enumerate_monomials(n, d)]
    return numerators, norm2


def fraction_moment_matrix(f: SparsePoly) -> tuple:
    coeffs = list(f.terms.items())
    g = _inner_products(Fraction(0), coeffs, f.n)
    scale = _norm2(Fraction(0), coeffs) * f.d
    shift = Fraction(f.d, f.n)
    return tuple(
        tuple(
            2 * (g[i][j] / scale - shift) if i == j else 2 * (g[i][j] / scale)
            for j in range(f.n)
        )
        for i in range(f.n)
    )


def fraction_square_length(f: SparsePoly) -> Fraction:
    return _trace_product(Fraction(0), fraction_moment_matrix(f), f.n)


def fraction_symbolic_moment_matrix(family: SparsePoly) -> tuple:
    zero, coeffs = _parametric(family)
    norm2 = _norm2(zero, coeffs)
    gram = _inner_products(zero, coeffs, family.n)
    m = _moment_numerators(gram, norm2, family.n, family.d)
    denom = norm2 * family.d
    # divide by the content of the whole collection: the gcd of the contents'
    # numerators over the lcm of their denominators
    contents = [p.content() for p in [denom] + [e for row in m for e in row]]
    scale = Fraction(
        lcm(*(c.denominator for c in contents)), gcd(*(c.numerator for c in contents))
    )
    return tuple(tuple(e * scale for e in row) for row in m), denom * scale


def fraction_square_length_symbolic(family: SparsePoly) -> tuple:
    zero, coeffs = _parametric(family)
    p, norm2 = _trace_parts(zero, coeffs, family.n, family.d)
    if p.is_zero():
        return p, zero + 1
    # a square: its leading coefficient, and that of any monomial quotient of
    # it, is positive, so dividing by the content fixes the sign as well
    r = norm2 * norm2 * (family.d * family.d)
    shift = tuple(min(a, b) for a, b in zip(p.monomial_gcd(), r.monomial_gcd()))
    scale = 1 / r.content()
    return p.shift_down(shift) * scale, r.shift_down(shift) * scale


def fraction_gradient(f: SparsePoly) -> list:
    """The Lie-algebra formula on any support, as ``gradient`` took it
    where two exponents differ by a root."""
    numerators, norm2 = _lie_numerators(Fraction(0), list(f.terms.items()), f.n, f.d)
    denom = f.d * f.d * norm2 * norm2 * norm2
    return [numer / denom for numer in numerators]


def fraction_gradient_symbolic(family: SparsePoly) -> tuple:
    """The Lie-algebra formula on any support, as ``gradient_symbolic``
    took it where two exponents differ by a root."""
    zero, coeffs = _parametric(family)
    numerators, norm2 = _lie_numerators(zero, coeffs, family.n, family.d)
    return numerators, norm2 * norm2 * norm2 * (family.d * family.d)



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


def full_missing_targets(produced: list[SparsePoly], targets) -> list[int]:
    """``reproduce._missing_targets`` as it was before it canonicalised only
    the produced forms in a target's orbit: every produced form is."""
    canonical = [orbit_torus_canonical(p) for p in produced]
    missing = []
    for number, target in targets:
        key = orbit_torus_canonical(target)
        if not any(polys_close(c, key) for c in canonical):
            missing.append(number)
    return missing


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


def echelon_normal_solution(gram: list, rhs: list) -> tuple:
    """``critical_set``'s normal equations ``gram N = D rhs`` solved as they
    were before Bareiss: a second ``critical._greedy_basis`` pass, over the
    Gram rows and the right side, gives the right side as the combination
    ``(N, D)`` of the rows, which is N as the Gram matrix is symmetric."""
    return critical._greedy_basis(gram + [rhs])[1][-1]


# ---------------------------------------------------------------------------
# the closed-form critical set through Fraction points: ``critical._greedy_basis``,
# ``critical._dot``, ``critical.critical_set`` and the exact branch of
# ``moment._centroid_sums`` as they were before the kernel ran in integers from
# input to output, and ``critical._strictly_feasible`` as it was before its
# back-substitution did (here ``fraction_strictly_feasible``), copied unchanged


def _greedy_basis(vectors) -> tuple[tuple[int, ...], tuple]:
    """Indices of a maximal independent subset, taken greedily in order, and
    for each vector None if it was taken, else its combination of the taken
    vectors before it: the integers ``(N, D)`` in lowest terms, ``D > 0``,
    with ``sum_t N_t v_t = D v``.

    One fraction-free echelon of the taken vectors is kept, in pivot order:
    each row is an integer vector, zero before its pivot (its first nonzero
    entry), with its integer combination of the taken vectors.  A new
    vector ``v`` is reduced once, row by row, to ``D v - sum_t N_t v_t``,
    which is zero at every pivot: zero iff ``v`` lies in their span, else
    the row that ``v`` adds."""
    chosen: list[int] = []
    combos: list = []
    rows: list = []  # (pivot, row, combination), by pivot
    for j, v in enumerate(vectors):
        denominator, numerators = 1, [0] * len(chosen)
        for pivot, row, combination in rows:
            x = v[pivot]
            if x:
                y = row[pivot]
                v = [y * a - x * b for a, b in zip(v, row)]
                denominator *= y
                numerators = [y * a + x * b
                              for a, b in zip_longest(numerators, combination, fillvalue=0)]
        if any(v):
            combination = [-a for a in numerators] + [denominator]
            common = gcd(*v, *combination)
            pivot = next(i for i, a in enumerate(v) if a)
            rows.append((pivot, [a // common for a in v], [a // common for a in combination]))
            rows.sort(key=lambda r: r[0])
            chosen.append(j)
            combos.append(None)
        else:
            common = gcd(denominator, *numerators) * (1 if denominator > 0 else -1)
            combos.append((tuple(a // common for a in numerators), denominator // common))
    return tuple(chosen), tuple(combos)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def fraction_strictly_feasible(rows: list, k: int) -> list[Fraction] | None:
    """A rational ``z`` with ``c + <a, z> > 0`` for every row ``(c, a)`` over
    ``k`` unknowns, or None: Fourier-Motzkin elimination (exact for strict
    inequalities), last unknown first, then back-substitution."""
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
    z = [Fraction(0)] * k
    for v, lower, upper in reversed(levels):
        # z_v and the unknowns after it are still 0 here
        lo = max((Fraction(-(c + _dot(a, z)), a[v]) for c, a in lower), default=None)
        hi = min((Fraction(-(c + _dot(a, z)), a[v]) for c, a in upper), default=None)
        if lo is not None and hi is not None:
            z[v] = (lo + hi) / 2
        elif lo is not None:
            z[v] = lo + 1
        elif hi is not None:
            z[v] = hi - 1
    return z


def fraction_centroid_sums(support, u) -> list:
    """``sum_{b,c} <a - b, c> u_b u_c = norm2 <a, s> - <s, s>`` for each
    ``a`` of the support, with ``s = sum_b u_b b``, for exact ``u``: the
    exact branch of ``moment._centroid_sums``."""
    s = [sum(x * b[i] for x, b in zip(u, support)) for i in range(len(support[0]))]
    norm2, s_dot_s = sum(u), sum(x * x for x in s)
    return [norm2 * sum(x * y for x, y in zip(a, s)) - s_dot_s for a in support]


def fraction_critical_set(family: ParamFamily) -> CriticalSet:
    """The family's real critical set in closed form (see ``CriticalSet``).

    Defined when no two support exponents differ by a root e_i - e_j.  With
    the support's first point a_0 as origin, the other points' differences
    are taken greedily into an independent set B, in one pass over one
    fraction-free echelon (``_greedy_basis``), which also gives each other
    difference as an integer combination of B over a common denominator;
    p_S solves the normal equations over B.  A u with sum 1 and centroid
    p_S then has one free coordinate per dependent difference, and each
    coordinate of B is affine in them, so strict positivity is decided, and
    a point found, by Fourier-Motzkin over the |S| - 1 - r free coordinates
    (none when S is affinely independent: the barycentric coordinates of p_S).

    The support data stay integers: the differences, the Gram matrix of B
    and n (t - a_0) = d 1 - n a_0.  The normal equations are solved without
    fractions, as N / D with the Gram matrix times N equal to D times the
    right-hand side, so p_S = a_0 + sum_j N_j B_j / (n D) and
    |m|^2 = 4 |n D (p_S - t)|^2 / (n D)^2 each take one division.  The rows
    of u > 0 stay integers too (n D u, in free coordinates scaled to integer
    coefficients): on a bounded set, ``fraction_strictly_feasible`` picks
    midpoints alone, which positive scalings do not move.  The point is checked
    exactly against the gradient's own u-form sums, on the integer vector
    L u, L the least common multiple of its denominators: every sum is a
    quadratic form in u, ``norm2 <a, s> - <s, s>`` in integers, so it is
    L^2 times its value at u and vanishes exactly when that does.
    """
    points = family.display_terms()
    if not _root_difference_free(tuple(points)):
        raise ValueError(f"{family}: two support exponents differ by a root")
    n, d = family.poly.n, family.poly.d
    base = points[0]
    diffs = [tuple(x - y for x, y in zip(a, base)) for a in points[1:]]
    chosen, combos = _greedy_basis(diffs)
    basis = [diffs[j] for j in chosen]
    rank = len(basis)
    gram = [tuple(_dot(b, c) for c in basis) for b in basis]
    target = [d - n * x for x in base]  # n (t - a_0)
    # the Gram matrix is symmetric and invertible: the right side is a combination of its rows
    numerators, denominator = _greedy_basis(gram + [[_dot(b, target) for b in basis]])[1][-1]
    scale = n * denominator
    # offset = n D (p_S - a_0), so n D (p_S - t) = offset - D n (t - a_0)
    offset = [sum(y * b[i] for y, b in zip(numerators, basis)) for i in range(n)]
    projection = tuple(Fraction(scale * x + o, scale) for x, o in zip(base, offset))
    square_length = Fraction(
        4 * sum((o - denominator * e) ** 2 for o, e in zip(offset, target)), scale * scale
    )

    # n D sum_k u_k (a_k - a_0) = sum_j N_j B_j, with u_k = D_v w_v / (n D) free
    # for the v-th dependent difference, D_v (a_k - a_0) = sum_j g_vj B_j: the
    # row of B_j is N_j - sum_v g_vj w_v, and n D u_0 is n D minus all others
    free = [k for k, combo in enumerate(combos) if combo is not None]
    rows = [None] * len(diffs)
    for j, k in enumerate(chosen):
        rows[k] = (numerators[j], tuple(-combos[f][0][j] if j < len(combos[f][0]) else 0
                                        for f in free))
    for v, k in enumerate(free):
        rows[k] = (0, tuple(combos[k][1] if v == w else 0 for w in range(len(free))))
    first = (scale - sum(c for c, _ in rows), tuple(-sum(x) for x in zip(*(a for _, a in rows))))
    rows.insert(0, first)
    w = fraction_strictly_feasible(rows, len(free))
    point = None
    if w is not None:
        point = tuple(Fraction(c + _dot(a, w), scale) for c, a in rows)
        common = lcm(*(u.denominator for u in point))
        scaled = [u.numerator * (common // u.denominator) for u in point]
        if any(fraction_centroid_sums(points, scaled)):
            raise ArithmeticError(f"{family}: the closed-form point is not critical")
    return CriticalSet(family, rank, projection, len(free), square_length, point)
