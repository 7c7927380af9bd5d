"""Moment-map machinery for hypersurfaces.

For a nonzero degree-``d`` form ``f`` in ``n`` variables, the hermitian
matrix ``H(f)`` has entries ``<df/dx_j, df/dx_i> / (d * |f|^2)`` and the
(traceless) moment matrix is ``2 (H(f) - (d/n) I)``.  The square length
``Re Tr(m . m)`` is the Morse function whose critical points this package
hunts.

Coefficients are real, so ``H(f)`` and ``m(f)`` are real symmetric.

One engine builds the trace formula: the Gram matrix of the partial
derivatives (``_inner_products``), the squared norm (``_norm2``), the
polynomial moment matrix (``_moment_numerators``) and the trace product
(``_trace_product``).  The numeric and symbolic moment matrices, the square
length (numeric and symbolic) and the gradient all come from it, as plain
values: rows of scalars, and ``(numerators, denominator)`` pairs for
families.  The numeric matrix divides each Gram entry by ``d |f|^2`` before
it doubles and shifts it, ``2 (G_ij / scale - d/n)``, rather than dividing
``_moment_numerators`` once: for float input that order sets the rounding
noise of the printed entries (a zero entry can come out as ``4.44e-16``).
The engine is written with ``+``, ``-`` and ``*`` alone over the plain
scalars (``Fraction``, float or ``ParamPoly``): each supports them with
itself, and ``*`` with a rational constant (an ``int`` or a ``Fraction``).

The gradient of ``|m|^2`` in the coefficients is the Lie-algebra action of
the moment matrix on ``f`` (Kirwan, Ness: ``f`` is critical iff
``m(f) . f = lambda f``).  With ``M`` the polynomial moment matrix below and
``v = sum_ij M_ij x_i d_j f``, the entry of the coefficient ``c_a`` of
``x^a`` is ``N_a / (d^2 norm2^3)`` with

    ``N_a = 8 d w(a) (v_a norm2 - <v, f> c_a)``,

``<v, f> = sum_a w(a) v_a c_a`` the invariant inner product.
``_lie_numerators`` computes it for every coefficient type, exactly for
exact and parametric input, and is taken on every support with two exponents
differing by a root ``e_i - e_j``.  Without such a pair ``M`` is diagonal,
and two faster forms of the same formula take over:

* The u-form takes exact and parametric input whose support has no root
  difference: every identically diagonal family, hence every family the
  solver sees.  There ``v_a = c_a <a, diag M>``; with ``u_a = w(a) c_a^2``
  and ``s = sum_a u_a a``, the squared norm is ``sum_a u_a``,
  ``G_ii = d s_i``, ``m(f) = 2 diag(s / norm2 - (d/n) 1)``, and the
  numerator is
  ``N_a = 16 d^2 w(a) c_a (norm2 <a, s> - <s, s>)``
  ``= 16 d^2 w(a) c_a sum_{b,c} <a - b, c> u_b u_c`` on the support and 0
  off it.  It is computed in integers: over one common denominator D the
  coefficients become integers, or integer polynomials in the parameters
  (``ParamPoly`` with ``int`` coefficients), ``u'_a = a! c'_a^2``.  For
  exact input, ``_u_quotients`` gives the integers ``16 D a! c'_a S'_a``
  and ``(sum_a u'_a)^3``, whose quotients are the entries: ``gradient``
  builds its ``Fraction``s from them, and ``critical.verify_critical``
  divides only the largest, once.  Integer sums take the closed form
  ``norm2 <a, s> - <s, s>``.  Polynomial sums are folded over the pairs
  (b, c) into one dict each, adding and dropping terms as the rational
  computation did, so each keeps its term order, which the solver's float
  residuals sum in; ``gradient_symbolic`` builds its ``ParamPoly`` values
  once, at the end.  The sums (``_centroid_sums``) vanish exactly on the
  family's real critical set, which ``critical.critical_set`` gives in
  closed form and checks with them on an integer point.
* Float input with no root difference replays, over plain floats and a
  plan cached per support, the diagonal case in the order of operations of
  first-order jets (value and derivative in every basis direction) carried
  through the trace formula, with the quotient rule
  ``N_a = P' norm2 - 2 P norm2'`` applied once (``_float_numerators``): the
  order of summation sets the last bits of a float gradient, and with them
  the residuals the solver reports.  The tests keep those jets as the
  reference, and the replay matches them bit for bit, signed zeros and NaNs
  included.  There an off-diagonal ``M_ij`` is 0.0 with no parts, which
  adds 0.0 to ``P`` and is all an off-support direction reaches (its
  numerator is ``0.0 norm2 - 2 P 0.0``); jet products drop the parts of a
  zero coefficient and those of ``M_ii M_ii`` when ``M_ii == 0.0``.  Sums
  are explicit ``+`` folds, as ``sum`` of floats is compensated from
  CPython 3.12.

Float input runs on ``f / 2^e``, ``e`` the largest binary exponent of its
coefficients.  A power of two commutes with rounding, so m and |m|^2 (degree
0 in the coefficients) keep the bits of the unscaled run wherever it stays in
range, and so does each gradient entry (degree -1), multiplied back by 2^-e.
Unscaled, ``1e63 y^3`` got a NaN gradient, ``1e-200 (x^3 + y^3)`` a zero norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, frexp, gcd, lcm, ldexp, prod
from operator import mul

from .polyring import (
    DegenerateInputError,
    ExponentVector,
    ParamPoly,
    Scalar,
    SparsePoly,
    parameter_symbols,
    scalar_is_zero,
)
from .symd import enumerate_monomials, inner_product, root_pair, weight

__all__ = [
    "moment_matrix",
    "square_length",
    "symbolic_moment_matrix",
    "square_length_symbolic",
    "gradient",
    "gradient_symbolic",
]


def _require_nonzero(f: SparsePoly):
    if f.is_zero():
        raise DegenerateInputError("the zero polynomial has no moment matrix")


# ---------------------------------------------------------------------------
# the trace-formula engine
#
# Coefficients arrive as (exponent, scalar) pairs, and ``zero`` is the
# scalar every sum starts from.  With the polynomial matrix
# M = 2 G - (2 d^2 / n) norm2 I, where G[i][j] = <d_j f, d_i f>, the moment
# matrix is M / (d * norm2) and |m|^2 = P / (d^2 * norm2^2) with
# P = sum_ij M[i][j] M[j][i], so no division happens until a caller
# assembles its quotient.


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


def _float_scaled(f: SparsePoly) -> tuple[int, dict]:
    """``e`` and the float coefficients of ``f / 2^e`` (see the module docstring);
    a ``ValueError`` for a rational coefficient beyond the float range."""
    try:
        floats = {alpha: float(c) for alpha, c in f.terms.items()}
    except OverflowError:
        raise ValueError("a coefficient is beyond the floating-point range") from None
    shift = max(frexp(c)[1] for c in floats.values())
    return shift, {alpha: ldexp(c, -shift) for alpha, c in floats.items()}


def moment_matrix(f: SparsePoly) -> tuple[tuple[Scalar, ...], ...]:
    """The traceless moment matrix ``2 (H(f) - (d/n) I)`` as ``n`` rows;
    exact for exact input."""
    _require_nonzero(f)
    if f.is_parametric():
        raise TypeError("parametric input: use symbolic_moment_matrix")
    coeffs = list((f.terms if f.is_exact() else _float_scaled(f)[1]).items())
    g = _inner_products(Fraction(0), coeffs, f.n)
    scale = _norm2(Fraction(0), coeffs) * f.d
    if scale == 0:
        raise DegenerateInputError("the squared norm underflows to zero")
    shift = Fraction(f.d, f.n)
    return tuple(
        tuple(
            2 * (g[i][j] / scale - shift) if i == j else 2 * (g[i][j] / scale)
            for j in range(f.n)
        )
        for i in range(f.n)
    )


def square_length(f: SparsePoly) -> Scalar:
    """``Re Tr(m . m)``; non-negative, and zero exactly at the minimal orbits."""
    return _trace_product(Fraction(0), moment_matrix(f), f.n)


def symbolic_moment_matrix(
    family: SparsePoly,
) -> tuple[tuple[tuple[ParamPoly, ...], ...], ParamPoly]:
    """Moment matrix of a parametric family as ``(numerators, denominator)``.

    ``numerators[i][j] / denominator`` is the (i, j) entry.  All entries and
    the denominator are integer polynomials in the parameters with overall
    content 1, which reproduces the printed normalization of the degree-4
    general matrix (denominator ``36 |f|^2``).
    """
    _require_nonzero(family)
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


def square_length_symbolic(family: SparsePoly) -> tuple[ParamPoly, ParamPoly]:
    """``|m|^2`` of a parametric family as ``(numerator, denominator)``.

    The pair is in normal form: the largest parameter monomial dividing both
    is cancelled, and both are divided by the denominator's content, which
    leaves the denominator's leading term positive.  A zero numerator comes
    with the denominator 1.
    """
    _require_nonzero(family)
    if parameter_symbols(family) == 0:
        raise TypeError("numeric input: use square_length")
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


# ---------------------------------------------------------------------------
# coefficient gradients, over the common denominator d^2 norm2^3


@lru_cache(maxsize=256)
def _root_difference_free(support) -> bool:
    """No two exponents differ by a root ``e_i - e_j``, so G and M are diagonal (cached)."""
    return all(root_pair(a, b) is None for a, b in combinations(support, 2))


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


# ---------------------------------------------------------------------------
# the u-form in integers: over the common denominator D of the coefficients,
# c'_a = D c_a and u'_a = a! c'_a^2 = d! D^2 u_a (as w(a) = a!/d!) are integer
# (polynomials), and so are the centroid sums S'_a of u'; then
# N_a = 16 d^2 a! c'_a S'_a / (d!^3 D^5) and norm2 = sum_a u'_a / (d! D^2).


def _divided(p: ParamPoly, num: int, den: int) -> ParamPoly:
    """``p * num / den`` for an integer polynomial ``p`` and ``den > 0``."""
    return ParamPoly._trusted(p.nsyms, {e: Fraction(v * num, den) for e, v in p.terms.items()})


def _u_form(lifted) -> tuple:
    """``(sum_a u'_a, {a: a! c'_a S'_a})`` from the lifted coefficients
    ``(a, c'_a)`` of a support with no root difference."""
    support = [alpha for alpha, _ in lifted]
    factorials = [prod(map(factorial, alpha)) for alpha in support]
    u = [c * c * k for (_, c), k in zip(lifted, factorials)]
    sums = _centroid_sums(support, u)
    return sum(u), {a: c * k * s for (a, c), k, s in zip(lifted, factorials, sums)}


def _u_quotients(f: SparsePoly) -> tuple[dict, int] | None:
    """``({a: 16 D a! c'_a S'_a}, (sum_a u'_a)^3)`` in integers for exact
    ``f`` whose support has no root difference, else None.  Their quotient
    is the gradient entry ``N_a / (d^2 norm2^3)`` of each ``a`` on the
    support; the entries off it are 0."""
    if not f.is_exact() or not _root_difference_free(tuple(f.terms)):
        return None
    scale = lcm(*(c.denominator for c in f.terms.values()))
    lifted = [(a, c.numerator * (scale // c.denominator)) for a, c in f.terms.items()]
    norm, parts = _u_form(lifted)
    return {a: 16 * scale * p for a, p in parts.items()}, norm**3


def _centroid_sums(support, u) -> list:
    """``sum_{b,c} <a - b, c> u_b u_c = norm2 <a, s> - <s, s>`` for each
    ``a`` of the support, with ``s = sum_b u_b b``: the gradient numerator
    without its factor ``16 d^2 w(a) c_a``, so all vanish exactly at the
    critical points of a support with no root difference.

    ``u`` holds exact numbers, which take the right-hand side, or integer
    polynomials.  A polynomial sum is folded over the pairs (b, c) into one
    dict, with the term order of the rational computation, which the
    solver's float residuals sum in."""
    if not isinstance(u[0], ParamPoly):
        s = [sum(map(mul, u, column)) for column in zip(*support)]
        norm2, s_dot_s = sum(u), sum(map(mul, s, s))
        return [norm2 * sum(map(mul, a, s)) - s_dot_s for a in support]
    # u_b u_c once per unordered pair, with the integer products <b, c>
    pairs = [
        (j, k, sum(x * y for x, y in zip(support[j], support[k])), u[j] * u[k])
        for j in range(len(u))
        for k in range(j, len(u))
    ]
    sums = []
    for a in support:
        a_dot = [sum(x * y for x, y in zip(a, b)) for b in support]
        inner: dict = {}
        for j, k, b_dot_c, product in pairs:
            # the ordered pairs (b, c) and (c, b) together, or (b, b) alone
            coeff = a_dot[j] - b_dot_c if j == k else a_dot[j] + a_dot[k] - 2 * b_dot_c
            if not coeff:
                continue
            # inner + product * coeff in place: terms are added, and dropped
            # when they cancel, in the order ``ParamPoly.__add__`` visits them
            for exp, v in product.terms.items():
                total = inner.get(exp, 0) + v * coeff
                if total:
                    inner[exp] = total
                else:
                    del inner[exp]
        sums.append(ParamPoly._trusted(u[0].nsyms, inner))
    return sums


@lru_cache(maxsize=256)
def _float_plan(n: int, d: int, support: tuple[ExponentVector, ...]):
    """What the float replay needs of a support with no root difference
    (else None): its terms in basis order with their indices and weights,
    per variable ``i`` the terms with ``a_i > 0`` as ``(position, a_i,
    w(a - e_i))``, the shift ``-2 d^2 / n`` and the basis size, in floats."""
    if not _root_difference_free(support):
        return None
    basis = enumerate_monomials(n, d)
    indices = tuple(sorted(map(basis.index, support)))
    ordered = tuple(basis[k] for k in indices)
    rows = tuple(tuple((t, float(a[i]), float(weight(a[:i] + (a[i] - 1,) + a[i + 1:])))
                       for t, a in enumerate(ordered) if a[i]) for i in range(n))
    weights = tuple(float(weight(a)) for a in ordered)
    return ordered, indices, weights, rows, float(Fraction(-2 * d * d, n)), len(basis)


def _float_numerators(plan, coeffs: dict):
    """``(numerators, norm2)`` of float coefficients on a support with no
    root difference, from its ``_float_plan``: the diagonal case of
    ``_lie_numerators`` in the order of operations of forward jets."""
    ordered, indices, weights, rows, shift, size = plan
    cs = [coeffs[a] for a in ordered]
    norm2 = 0.0
    for c, w in zip(cs, weights):
        norm2 = norm2 + (c * c) * w
    dnorm = [((1.0 * c) + (c * 1.0)) * w for c, w in zip(cs, weights)]
    p, dp = 0.0, None
    for i, row in enumerate(rows):
        g, dm = 0.0, [v * shift for v in dnorm]
        for t, k, w in row:
            c = cs[t] * k
            g = g + (c * c) * w
            dm[t] = ((((k * c) + (c * k)) * w) * 2.0) + dm[t]
        m = g * 2.0 + norm2 * shift
        # P sums M_ij M_ji in (i, j) order; off the diagonal M_ij is 0.0
        for j in range(len(rows)):
            p = p + (m * m if j == i else 0.0)
        if m != 0:
            parts = [(v * m) + (m * v) for v in dm]
            dp = parts if dp is None else [a + b for a, b in zip(dp, parts)]
    numerators = [0.0 * norm2 - 2 * p * 0.0] * size
    for k, c, a, v in zip(indices, cs, dp or [0.0] * len(cs), dnorm):
        if c != 0:  # the parts of a zero coefficient are dropped, as off the support
            numerators[k] = a * norm2 - 2 * p * v
    return numerators, norm2


def gradient(f: SparsePoly) -> list:
    """Partial derivatives of ``|m|^2`` in all ``binomial(n+d-1, d)`` coefficient
    directions, canonical basis order; exact for exact input."""
    _require_nonzero(f)
    if f.is_parametric():
        raise TypeError("parametric input: use gradient_symbolic")
    if f.is_exact():
        quotients = _u_quotients(f)
        if quotients is not None:
            numerators, cube = quotients
            return [Fraction(numerators[a], cube) if a in numerators else Fraction(0)
                    for a in enumerate_monomials(f.n, f.d)]
        numerators, norm2 = _lie_numerators(Fraction(0), list(f.terms.items()), f.n, f.d)
    else:
        plan = _float_plan(f.n, f.d, tuple(f.terms))
        shift, coeffs = _float_scaled(f)
        numerators, norm2 = (_float_numerators(plan, coeffs) if plan is not None
                             else _lie_numerators(0.0, list(coeffs.items()), f.n, f.d))
    # a float norm2 can be nonzero while d^2 norm2^3 underflows to 0.0
    denom = f.d * f.d * norm2 * norm2 * norm2
    if scalar_is_zero(denom):
        raise DegenerateInputError("squared norm vanishes or underflows at the evaluation point")
    if f.is_exact():
        return [numer / denom for numer in numerators]
    try:
        return [ldexp(numer / denom, -shift) for numer in numerators]
    except OverflowError:
        raise ValueError("the gradient is beyond the floating-point range") from None


def gradient_symbolic(family: SparsePoly) -> tuple[list[ParamPoly], ParamPoly]:
    """Gradient numerators of a family plus their common denominator.

    Entry ``k`` of ``|m|^2``'s gradient equals ``numerators[k] / denominator``
    as a rational function of the parameters.
    """
    _require_nonzero(family)
    if parameter_symbols(family) == 0:
        raise TypeError("numeric input: use gradient")
    zero, coeffs = _parametric(family)
    n, d = family.n, family.d
    if not _root_difference_free(tuple(family.terms)):
        numerators, norm2 = _lie_numerators(zero, coeffs, n, d)
        return numerators, norm2 * norm2 * norm2 * (d * d)
    scale = lcm(*(v.denominator for _, c in coeffs for v in c.terms.values()))
    lifted = [(a, ParamPoly._trusted(zero.nsyms, {e: v.numerator * (scale // v.denominator)
                                                  for e, v in c.terms.items()}))
              for a, c in coeffs]
    norm, parts = _u_form(lifted)
    cube = factorial(d) ** 3 * scale**5
    numerators = [_divided(parts[a], 16 * d * d, cube) if a in parts else zero
                  for a in enumerate_monomials(n, d)]
    return numerators, _divided(norm * norm * norm, d * d, cube * scale)

