"""Critical points of the square length inside diagonal families.

The gradient of ``|m|^2`` with respect to all coefficient directions,
restricted to a parametric family, is an overdetermined polynomial system in
the parameters.  Systems in one unknown are solved through the gcd of the
equations plus Sturm isolation; two unknowns go through Sylvester resultants
in both directions with full-system filtering of the candidate grid; three
unknowns, and two-unknown pencils whose resultants vanish identically, fall
back to multistart Gauss-Newton.  Every reported solution is re-verified
against the exact gradient (solvers lie, residuals do not).

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

Results are canonicalized modulo rescaling of the individual coordinates
and an overall scalar ("obvious isomorphism"), which is also the equivalence
used when comparing against published lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from . import univariate as uni
from .moment import gradient, gradient_symbolic, moment_matrix
from .orbits import ParamFamily, permute
from .polyring import (
    DegenerateInputError,
    ParamPoly,
    SparsePoly,
    canonical_key,
    substitute_params,
)

RESIDUAL_TOL = 1e-9
INTERVAL_WIDTH = Fraction(1, 10**12)
NEWTON_STEP_TOL = 1e-13
CLUSTER_DIST = 1e-6


# ---------------------------------------------------------------------------
# exact real algebraic numbers (evaluation-grade: isolation + refinement)


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real root pinned by a squarefree polynomial and an isolating interval."""

    minimal_polynomial: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    approx: float

    @staticmethod
    def from_interval(poly: uni.UPoly, lo: Fraction, hi: Fraction) -> "AlgebraicNumber":
        lo, hi = uni.refine_interval(poly, lo, hi, INTERVAL_WIDTH)
        return AlgebraicNumber(tuple(poly), lo, hi, float((lo + hi) / 2))

    def refined(self, width: Fraction) -> "AlgebraicNumber":
        lo, hi = uni.refine_interval(list(self.minimal_polynomial), self.lo, self.hi, width)
        return AlgebraicNumber(self.minimal_polynomial, lo, hi, float((lo + hi) / 2))

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def __float__(self) -> float:
        return self.approx

    def __str__(self):
        return format(self.approx, ".12g")


ParamValue = object  # Fraction | AlgebraicNumber | float (multistart fallback only)


def _value_is_zero(v) -> bool:
    if isinstance(v, Fraction):
        return v == 0
    if isinstance(v, AlgebraicNumber):
        return v.contains(Fraction(0))
    return v == 0.0


# ---------------------------------------------------------------------------
# gradient systems


@dataclass(frozen=True)
class GradientSystem:
    """All gradient numerators of a family, one per basis direction."""

    family: ParamFamily
    equations: tuple[ParamPoly, ...]
    denominator: ParamPoly
    unknowns: int


def gradient_system(family: ParamFamily) -> GradientSystem:
    """Exact numerators of every gradient component on the family."""
    numerators, denom = gradient_symbolic(family.poly)
    equations = tuple(e if e.is_zero() else e.primitive() for e in numerators)
    return GradientSystem(family, equations, denom, family.nparams)


def verify_critical(f: SparsePoly) -> float:
    """Largest absolute gradient component; exactly 0.0 for rational critical points."""
    if f.is_zero():
        raise DegenerateInputError("cannot verify the zero polynomial")
    grad = gradient(f)
    if f.is_exact() and all(g == 0 for g in grad):
        return 0.0
    return max(abs(float(g)) for g in grad)


# ---------------------------------------------------------------------------
# fixed-point criterion: exp(m(f)) must fix f projectively


def fixed_point_check(f: SparsePoly, tol: float = RESIDUAL_TOL) -> bool:
    """True iff the one-parameter subgroup generated by the (diagonal) moment
    matrix fixes ``f`` in projective space.

    The action scales the term ``x^a`` by ``e^(a . diag)``; after projective
    normalization the form is fixed iff every support exponent pairs to the
    same value.  Decided exactly for rational input.
    """
    if f.is_zero():
        raise DegenerateInputError("zero polynomial")
    m = moment_matrix(f)
    exact = f.is_exact()
    offdiag = [
        m.entries[i][j] for i in range(f.n) for j in range(f.n) if i != j
    ]
    if exact:
        if any(v != 0 for v in offdiag):
            raise ValueError("fixed-point criterion needs a diagonal moment matrix")
    elif any(abs(float(v)) > tol for v in offdiag):
        raise ValueError("fixed-point criterion needs a diagonal moment matrix")
    lam = m.diagonal()
    support = sorted(f.terms, key=canonical_key)
    base = support[0]
    mu0 = sum(e * l for e, l in zip(base, lam))
    for alpha in support[1:]:
        mu = sum(e * l for e, l in zip(alpha, lam))
        delta = mu - mu0
        if exact:
            if delta != 0:
                return False
        elif abs(float(delta)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# torus canonicalization ("obvious isomorphism")


def _solve_combination(basis: list[tuple[Fraction, ...]], target: tuple[Fraction, ...]):
    """Coefficients writing target as a combination of the (independent) basis
    vectors, or None when target lies outside their span."""
    r = len(basis)
    if r == 0:
        return [] if all(x == 0 for x in target) else None
    w = len(target)
    m = [[basis[k][row] for k in range(r)] + [target[row]] for row in range(w)]
    pivots = []
    row = 0
    for col in range(r):
        p = next((i for i in range(row, w) if m[i][col] != 0), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        prow = m[row]
        for i in range(w):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], prow)]
        pivots.append(col)
        row += 1
    for i in range(row, w):
        if m[i][r] != 0:
            return None
    combo = [Fraction(0)] * r
    for i, col in enumerate(pivots):
        combo[col] = m[i][r]
    return combo


def _factor_positive(value: Fraction) -> dict[int, int]:
    """Prime-exponent map of a positive rational (large leftovers kept opaque)."""
    out: dict[int, int] = {}

    def factor_int(n: int, sign: int):
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


def torus_canonical(f: SparsePoly) -> SparsePoly:
    """Deterministic representative of ``f`` modulo coordinate and overall scaling.

    A maximal subset of support coefficients (greedy in canonical order,
    independence measured on the exponent vectors augmented with an all-ones
    coordinate) is rescaled to absolute value 1; leftover sign freedom is
    spent making the coefficient signs lexicographically as positive as
    possible.  Exact when the input is rational and the rescaling stays
    rational; float magnitudes otherwise.
    """
    if f.is_zero():
        raise DegenerateInputError("zero polynomial")
    if f.is_parametric():
        raise TypeError("torus canonicalization expects a numeric polynomial")
    support = sorted(f.terms, key=canonical_key)
    coeffs = [f.terms[a] for a in support]
    aug = [tuple(Fraction(e) for e in a) + (Fraction(1),) for a in support]

    chosen: list[int] = []
    combos: list = []
    for j, v in enumerate(aug):
        combo = _solve_combination([aug[t] for t in chosen], v)
        if combo is None:
            chosen.append(j)
            combos.append(None)  # independent: |c'| = 1 by construction
        else:
            combos.append(combo)

    exact_in = all(isinstance(c, Fraction) for c in coeffs)
    magnitudes: list = [None] * len(support)
    if exact_in:
        factored = {t: _factor_positive(abs(coeffs[t])) for t in chosen}
        for j, combo in enumerate(combos):
            if combo is None:
                magnitudes[j] = Fraction(1)
                continue
            exps: dict[int, Fraction] = {}
            for p, e in _factor_positive(abs(coeffs[j])).items():
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
        logs = [math.log(abs(float(c))) for c in coeffs]
        for j, combo in enumerate(combos):
            if combo is None:
                magnitudes[j] = 1.0
            else:
                value = logs[j] - sum(
                    float(g) * logs[t] for t, g in zip(chosen, combo)
                )
                magnitudes[j] = math.exp(value)

    n = f.n
    in_signs = [1 if float(c) > 0 else -1 for c in coeffs]
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
    pattern = best_pattern[1]

    terms = {}
    for a, mag, sgn in zip(support, magnitudes, pattern):
        terms[a] = mag if sgn > 0 else -mag
    return SparsePoly(f.n, f.d, terms)


def polys_close(f: SparsePoly, g: SparsePoly, tol: float = RESIDUAL_TOL) -> bool:
    """Support equality plus coefficient agreement (exact where both exact)."""
    if (f.n, f.d) != (g.n, g.d) or f.support() != g.support():
        return False
    for a, c in f.terms.items():
        other = g.terms[a]
        if isinstance(c, Fraction) and isinstance(other, Fraction):
            if c != other:
                return False
        elif abs(float(c) - float(other)) > tol:
            return False
    return True


def orbit_torus_canonical(f: SparsePoly) -> SparsePoly:
    """Canonical form modulo coordinate permutation plus rescaling."""
    from .orbits import support_order_key

    best = None
    for sigma in permutations(range(f.n)):
        cand = torus_canonical(permute(sigma, f))
        key = (
            support_order_key(cand.terms),
            tuple(float(cand.terms[a]) for a in sorted(cand.terms, key=canonical_key)),
        )
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


# ---------------------------------------------------------------------------
# the solver


@dataclass(frozen=True)
class CriticalSolution:
    """One verified critical point of a family."""

    family: ParamFamily
    values: tuple
    residual: float
    canonical_form: SparsePoly

    def polynomial(self) -> SparsePoly:
        return _substitute_values(self.family, self.values)

    def __str__(self):
        vals = ", ".join(
            f"b{i + 1}={_fmt_value(v)}" for i, v in enumerate(self.values)
        )
        return f"{self.family} at {vals}"


def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return format(float(v), ".12g")


def _substitute_values(family: ParamFamily, values) -> SparsePoly:
    subs = [
        v if isinstance(v, Fraction) else float(v) for v in values
    ]
    return substitute_params(family.poly, subs)


def _strip_parameter_monomials(eq: ParamPoly) -> ParamPoly:
    # dividing an equation by b^k only removes roots with some b_i = 0,
    # which the family stratification discards anyway
    shift = eq.monomial_gcd()
    return eq.shift_down(shift) if any(shift) else eq


def _prepared_equations(system: GradientSystem) -> list[ParamPoly]:
    seen = set()
    eqs = []
    for eq in system.equations:
        if eq.is_zero():
            continue
        eq = _strip_parameter_monomials(eq).primitive()
        key = eq.key()
        if key not in seen:
            seen.add(key)
            eqs.append(eq)
    return eqs


def _roots_of_upoly(p: uni.UPoly) -> list:
    """Nonzero real roots as Fractions or AlgebraicNumbers."""
    p = uni.squarefree_part(p)
    roots = []
    for lo, hi in uni.isolate_real_roots(p):
        lo, hi = uni.refine_interval(p, lo, hi, INTERVAL_WIDTH)
        if lo == hi:
            value = lo
        else:
            value = uni.simplest_rational_in(lo, hi)
            if uni.sign_at(p, value) != 0:
                value = AlgebraicNumber.from_interval(p, lo, hi)
        if not _value_is_zero(value):
            roots.append(value)
    return roots


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


def _candidate_passes(eqs: list[ParamPoly], values) -> bool:
    if all(isinstance(v, Fraction) for v in values):
        return _exact_zero_on_equations(eqs, values)
    refined = [
        v.refined(INTERVAL_WIDTH) if isinstance(v, AlgebraicNumber) else v for v in values
    ]
    return _residual_on_equations(eqs, refined) < 1e-8


def _solve_one_unknown(eqs: list[ParamPoly]) -> list[tuple]:
    polys = [uni.trim(e.univariate()) for e in eqs]
    g = polys[0]
    for p in polys[1:]:
        g = uni.poly_gcd(g, p)
        if uni.deg(g) <= 0:
            return []
    return [(root,) for root in _roots_of_upoly(g)]


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


def _solve_two_unknowns(eqs: list[ParamPoly]) -> list[tuple]:
    ranked = sorted(eqs, key=lambda e: (e.total_degree(), len(e.terms)))
    res_b2 = _eliminate_direction(ranked, eliminate=0)  # roots are b2 values
    res_b1 = _eliminate_direction(ranked, eliminate=1)  # roots are b1 values
    if res_b1 is None or res_b2 is None:
        # degenerate pencil (shared component): sample numerically instead
        return _newton_candidates(eqs, 2)
    roots1 = _roots_of_upoly(res_b1)
    roots2 = _roots_of_upoly(res_b2)
    return [(r1, r2) for r1 in roots1 for r2 in roots2]


def _newton_candidates(eqs: list[ParamPoly], unknowns: int) -> list[tuple]:
    """Multistart Gauss-Newton on a grid of 11 points per axis in [-3, 3]."""
    run_start = _gauss_newton_kernel(eqs, unknowns)
    axis = [(-3.0 + 0.6 * k) for k in range(11)]
    points: list[list[float]] = []
    for start in product(axis, repeat=unknowns):
        x = run_start(*start)
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


def _prefer_representative(a: CriticalSolution, b: CriticalSolution) -> CriticalSolution:
    def score(sol: CriticalSolution):
        all_pos = all(float(v) > 0 for v in sol.values)
        poly = sol.polynomial()
        coeffs = tuple(
            float(poly.terms[al]) for al in sorted(poly.terms, key=canonical_key)
        )
        return (0 if all_pos else 1, coeffs)

    return a if score(a) <= score(b) else b


def solve_real(system: GradientSystem, tol: float = RESIDUAL_TOL) -> list[CriticalSolution]:
    """All verified real critical points of the family with nonzero parameters.

    Solutions equivalent under torus rescaling are merged, preferring the
    all-positive-parameter representative.  An empty list is a valid outcome.
    """
    if system.unknowns > 3:
        raise ValueError("systems in more than three unknowns are unsupported")
    eqs = _prepared_equations(system)
    if not eqs:
        return []
    if system.unknowns == 1:
        candidates = _solve_one_unknown(eqs)
    elif system.unknowns == 2:
        candidates = _solve_two_unknowns(eqs)
    else:
        candidates = _newton_candidates(eqs, system.unknowns)

    solutions: list[CriticalSolution] = []
    for values in candidates:
        if any(_value_is_zero(v) for v in values):
            continue
        if not _candidate_passes(eqs, values):
            continue
        poly = _substitute_values(system.family, values)
        if poly.is_zero():
            continue
        residual = verify_critical(poly)
        if residual > tol:
            continue
        sol = CriticalSolution(
            system.family, tuple(values), residual, torus_canonical(poly)
        )
        merged = False
        for k, existing in enumerate(solutions):
            if polys_close(existing.canonical_form, sol.canonical_form, tol):
                solutions[k] = _prefer_representative(existing, sol)
                merged = True
                break
        if not merged:
            solutions.append(sol)
    solutions.sort(key=lambda s: tuple(float(v) for v in s.values))
    return solutions


def solve_family(family: ParamFamily, tol: float = RESIDUAL_TOL) -> list[CriticalSolution]:
    return solve_real(gradient_system(family), tol)


def critical_points(n: int, d: int, m: int, tol: float = RESIDUAL_TOL):
    """Diagonal families with ``m`` terms and their verified critical points."""
    from .diagonal import diagonal_families

    families = diagonal_families(n, d, m)
    return [(family, solve_family(family, tol)) for family in families]
