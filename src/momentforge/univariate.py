"""Exact univariate polynomial tools for spelling algebraic critical points.

Polynomials are dense lists of Python ints (index = degree).  They enter as
integers once, at the boundary (``ParamPoly.univariate`` and the resultant's
input), where denominators are cleared by a positive factor, so no root
moves.  The solver never needs the value of a polynomial, only its sign:
``sign_at`` gives the sign of p(a/b) as that of the integer b^deg(p)·p(a/b),
by Horner's rule.  Sturm chains, gcds and squarefree parts are primitive
pseudo-remainder sequences (Brown and Traub) scaled only by positive factors,
so every sign sequence is the one the Euclidean sequence over the rationals
would give.  Real roots are isolated by bisection on Sturm sign-variation
counts and refined by bisection, with ``Fraction`` interval endpoints.  The
Sylvester resultant of two bivariate polynomials is a Bareiss fraction-free
determinant over Z[x], with exact division at every step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm

from .polyring import ParamPoly

UPoly = list[int]


def trim(p: UPoly) -> UPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def deg(p: UPoly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def is_zero(p: UPoly) -> bool:
    return not p


def neg(p: UPoly) -> UPoly:
    return [-c for c in p]


def sub(p: UPoly, q: UPoly) -> UPoly:
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    return trim(out)


def mul(p: UPoly, q: UPoly) -> UPoly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return trim(out)


def derivative(p: UPoly) -> UPoly:
    return [p[i] * i for i in range(1, len(p))]


def primitive(p: UPoly) -> UPoly:
    """Divide out the (positive) content; the sign is kept."""
    c = int_gcd(*p)
    return [a // c for a in p] if c > 1 else list(p)


def content_primitive(p: UPoly) -> UPoly:
    """Integer-primitive form with positive leading coefficient."""
    p = primitive(p)
    return neg(p) if p and p[-1] < 0 else p


def exact_quotient(p: UPoly, q: UPoly) -> UPoly:
    """p / q when q divides p in Z[x]; ArithmeticError when it does not."""
    if is_zero(q):
        raise ZeroDivisionError("division by the zero polynomial")
    dq = len(q) - 1
    lead = q[-1]
    r = list(p)
    quo = [0] * max(len(p) - dq, 0)
    for k in range(len(quo) - 1, -1, -1):
        c, rem = divmod(r[k + dq], lead)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        quo[k] = c
        if c:
            for i in range(dq):
                r[i + k] -= c * q[i]
    if any(r[:dq]):
        raise ArithmeticError("inexact polynomial division")
    return trim(quo)


def pseudo_remainder(a: UPoly, b: UPoly) -> UPoly:
    """A positive integer multiple of the remainder of a divided by b."""
    if is_zero(b):
        raise ZeroDivisionError("division by the zero polynomial")
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    while len(r) > db:
        # r <- u*r - v*x^k*b with u > 0 chosen so the leading term cancels
        c = r[-1]
        g = int_gcd(c, lead)
        u = abs(lead) // g
        v = c // g if lead > 0 else -(c // g)
        k = len(r) - 1 - db
        if u != 1:
            r = [u * x for x in r]
        for i, y in enumerate(b, k):
            r[i] -= v * y
        r.pop()
        trim(r)
    return r


def poly_gcd(p: UPoly, q: UPoly) -> UPoly:
    """Greatest common divisor, primitive with positive leading coefficient."""
    a, b = primitive(p), primitive(q)
    while not is_zero(b):
        a, b = b, primitive(pseudo_remainder(a, b))
    return content_primitive(a)


def squarefree_part(p: UPoly) -> UPoly:
    """p / gcd(p, p'), primitive with positive leading coefficient: the same
    real roots, all simple."""
    p = content_primitive(p)
    if deg(p) <= 1:
        return p
    g = poly_gcd(p, derivative(p))
    if deg(g) == 0:
        return p
    return exact_quotient(p, g)


def sign_at(p: UPoly, x: Fraction | int) -> int:
    """Sign (-1, 0 or 1) of p at the rational x, in integer arithmetic."""
    return _sign_at_ratio(p, x.numerator, x.denominator)


def _sign_at_ratio(p: UPoly, a: int, b: int) -> int:
    """Sign of p(a/b) for b > 0: the sign of the integer b^deg(p)·p(a/b)."""
    if not p:
        return 0
    total = p[-1]
    if b == 1:
        for i in range(len(p) - 2, -1, -1):
            total = total * a + p[i]
    else:
        power = 1
        for i in range(len(p) - 2, -1, -1):
            power *= b
            total = total * a + p[i] * power
    return (total > 0) - (total < 0)


# ---------------------------------------------------------------------------
# Sturm-sequence real root isolation


def sturm_chain(p: UPoly) -> list[UPoly]:
    """Sturm sequence of p; each member is a positive multiple of the
    classical one (p, p', -rem(p, p'), ...)."""
    chain = [list(p), primitive(derivative(p))]
    while deg(chain[-1]) > 0:
        rem = pseudo_remainder(chain[-2], chain[-1])
        if is_zero(rem):
            break
        chain.append(neg(primitive(rem)))
    return [c for c in chain if not is_zero(c)]


def _sign_variations(chain: list[UPoly], x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    signs = [s for s in (_sign_at_ratio(p, a, b) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: UPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    return Fraction(max((abs(c) for c in p[:-1]), default=0), abs(p[-1])) + 1


def isolate_real_roots(p: UPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals, one for each distinct real root of p.

    Interval endpoints are never roots.  Refining an interval by
    ``refine_interval`` needs a squarefree p (see ``squarefree_part``).
    """
    if deg(p) <= 0:
        return []
    chain = sturm_chain(p)
    hi = root_bound(p)
    lo = -hi
    # work items carry the sign variations at their endpoints, so each
    # bisection point is evaluated once
    work = [(lo, hi, _sign_variations(chain, lo), _sign_variations(chain, hi))]
    done: list[tuple[Fraction, Fraction]] = []
    while work:
        lo, hi, vlo, vhi = work.pop()
        k = vlo - vhi
        if k == 0:
            continue
        if k == 1 and sign_at(p, lo) != 0 and sign_at(p, hi) != 0:
            done.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if sign_at(p, mid) == 0:
            # nudge the split point off the root (roots are finite, so this ends)
            shift = (hi - lo) / 8
            while sign_at(p, mid + shift) == 0:
                shift /= 3
            mid = mid + shift
        vmid = _sign_variations(chain, mid)
        work.append((lo, mid, vlo, vmid))
        work.append((mid, hi, vmid, vhi))
    done.sort()
    return done


def refine_interval(
    p: UPoly, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a squarefree polynomial by bisection."""
    slo = sign_at(p, lo)
    if slo == 0:
        return lo, lo
    # the endpoints are a/den and b/den; every bisection doubles den
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        smid = _sign_at_ratio(p, mid, den)
        if smid == 0:
            return Fraction(mid, den), Fraction(mid, den)
        if smid != slo:
            b = mid
        else:
            a = mid
    return Fraction(a, den), Fraction(b, den)


def _as_poly_in(p: ParamPoly, var: int, other: int) -> list[UPoly]:
    """Coefficients of ``p`` (denominators cleared) as a polynomial in symbol
    ``var``; each coefficient is a dense UPoly in symbol ``other``."""
    dv = p.degree_in(var)
    douter = p.degree_in(other)
    rows: list[UPoly] = [[0] * (douter + 1) for _ in range(dv + 1)]
    for exp, c in p.integer_terms().items():
        rows[exp[var]][exp[other]] += c
    return [trim(r) for r in rows]


def _bareiss_det(mat: list[list[UPoly]]) -> UPoly:
    n = len(mat)
    if n == 0:
        return [1]
    m = [[list(e) for e in row] for row in mat]
    prev = [1]
    sign = 1
    for k in range(n - 1):
        if is_zero(m[k][k]):
            pivot_row = next(
                (r for r in range(k + 1, n) if not is_zero(m[r][k])), None
            )
            if pivot_row is None:
                return []
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                numer = sub(mul(row_i[j], pivot), mul(lead, row_k[j]))
                row_i[j] = exact_quotient(numer, prev)
            row_i[k] = []
        prev = pivot
    det = m[n - 1][n - 1]
    return neg(det) if sign < 0 else det


def resultant(p: ParamPoly, q: ParamPoly, eliminate: int) -> UPoly:
    """Sylvester resultant of two bivariate polynomials, eliminating the
    given symbol; returns a dense UPoly in the remaining symbol.  Inputs with
    denominators are first scaled to integer coefficients, which multiplies
    the resultant by a positive integer."""
    if p.nsyms != q.nsyms:
        raise ValueError("parameter rings differ")
    if p.nsyms < 2:
        raise ValueError("resultant elimination needs at least two symbols")
    active = sorted(
        {i for i in range(p.nsyms) if p.degree_in(i) or q.degree_in(i)} | {eliminate}
    )
    others = [i for i in active if i != eliminate]
    if len(others) > 1:
        raise ValueError("resultant elimination needs bivariate input")
    other = others[0] if others else next(i for i in range(p.nsyms) if i != eliminate)
    a = _as_poly_in(p, eliminate, other)
    b = _as_poly_in(q, eliminate, other)
    da, db = len(a) - 1, len(b) - 1
    if da < 1 or db < 1:
        raise ValueError("both polynomials must contain the eliminated symbol")
    size = da + db
    mat: list[list[UPoly]] = [[[] for _ in range(size)] for _ in range(size)]
    for row in range(db):
        for i, coeff in enumerate(reversed(a)):
            mat[row][row + i] = list(coeff)
    for row in range(da):
        for i, coeff in enumerate(reversed(b)):
            mat[db + row][row + i] = list(coeff)
    return _bareiss_det(mat)
