"""End-to-end reproduction of the published cubic and quartic tables.

Each check compares a freshly computed pipeline stage against the embedded
fixtures and reports one line.  Checks are hermetic (no I/O).  A case
enumerates its diagonal families once, and the family-table check and the
solver check read the same lists; every other check stands alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import critical, fixtures
from .critical import polys_close, solve_family, verify_critical
from .diagonal import diagonal_families
from .fixtures import critical_fixture_poly, mono, support
from .moment import moment_matrix, symbolic_moment_matrix
from .orbits import orbit_classes
from .polyring import ParamPoly, SparsePoly
from .symd import enumerate_monomials


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# checks of either degree d, 3 for the cubics and 4 for the quartics


def _diagonal_families(name: str, families, table) -> CheckResult:
    got = [fam.support for fam in families]
    want = [support(*names) for names in table]
    return CheckResult(name, got == want, f"got {len(got)}")


def _monomials_critical(name: str, d: int) -> CheckResult:
    monomials = enumerate_monomials(3, d)
    bad = [a for a in monomials if verify_critical(SparsePoly.monomial(3, a)) != 0.0]
    return CheckResult(name, not bad, str(bad) if bad else "")


def _missing_targets(produced: list[SparsePoly], targets) -> list[int]:
    """Numbers of the (number, polynomial) targets equivalent to no produced
    polynomial modulo torus rescaling and coordinate permutation."""
    # each polynomial is canonicalized once, not once per compared pair
    canonical = [critical.orbit_torus_canonical(p) for p in produced]
    missing = []
    for number, target in targets:
        key = critical.orbit_torus_canonical(target)
        if not any(polys_close(c, key) for c in canonical):
            missing.append(number)
    return missing


def _recovered(name: str, families, entries) -> CheckResult:
    """Whether the solutions of the families hold each published (number, entry)."""
    produced = [sol.polynomial() for family in families for sol in solve_family(family)]
    targets = [(number, critical_fixture_poly(entry)) for number, entry in entries]
    missing = _missing_targets(produced, targets)
    detail = f"missing entries {missing}" if missing else f"{len(produced)} solutions"
    return CheckResult(name, not missing, detail)


# ---------------------------------------------------------------------------
# cubic checks


def check_bases() -> CheckResult:
    got2 = list(enumerate_monomials(3, 2))
    got3 = list(enumerate_monomials(3, 3))
    want2 = [mono(s) for s in fixtures.M2_BASIS]
    want3 = [mono(s) for s in fixtures.M3_BASIS]
    ok = got2 == want2 and got3 == want3
    return CheckResult("monomial bases M(2), M(3)", ok)


def check_orbit_tables() -> CheckResult:
    details = []
    for m, table in ((1, fixtures.T1_CUBIC), (2, fixtures.T2_CUBIC), (3, fixtures.T3_CUBIC)):
        got = orbit_classes(3, 3, m)
        want = [support(*names) for names in table]
        if got != want:
            details.append(f"m={m}")
    return CheckResult("cubic orbit representatives T1/T2/T3", not details, ", ".join(details))


def check_cubic_moment_example() -> CheckResult:
    diagonal = fixtures.X3Y3_MOMENT_DIAGONAL
    want = tuple(tuple(v if i == j else 0 for j in range(3)) for i, v in enumerate(diagonal))
    ok = moment_matrix(fixtures.cubic_x3_plus_y3()) == want
    return CheckResult("moment matrix of x^3 + y^3", ok)


# ---------------------------------------------------------------------------
# quartic checks


def check_quartic_orbit_pairs() -> CheckResult:
    got = orbit_classes(3, 4, 2)
    want = [support(*names) for names in fixtures.T2_QUARTIC]
    return CheckResult("quartic two-term representatives (22)", got == want, f"got {len(got)}")


def check_quartic_symbolic_matrix() -> CheckResult:
    basis = enumerate_monomials(3, 4)
    size = len(basis)
    terms = {
        alpha: ParamPoly.symbol(size, k) for k, alpha in enumerate(basis)
    }
    general = SparsePoly.make(3, 4, terms)
    numerators, denom = symbolic_moment_matrix(general)

    def expand(entries):
        want = ParamPoly(size)
        for coeff, sub_a, sub_b in entries:
            ka, kb = basis.index(sub_a), basis.index(sub_b)
            exp = [0] * size
            exp[ka] += 1
            exp[kb] += 1
            want = want + ParamPoly(size, {tuple(exp): Fraction(coeff)})
        return want

    bad = []
    if denom != expand(fixtures.QUARTIC_R_DENOMINATOR):
        bad.append("denominator")
    for (i, j), entries in fixtures.QUARTIC_R_ENTRIES.items():
        if numerators[i][j] != expand(entries):
            bad.append(f"entry ({i + 1},{j + 1})")
    return CheckResult("symbolic quartic moment matrix", not bad, ", ".join(bad))


def check_quartic_list_verifies() -> CheckResult:
    worst = 0.0
    bad = []
    residuals = [
        verify_critical(critical_fixture_poly(entry)) for entry in fixtures.CRITICAL_QUARTICS
    ]
    for k, res in enumerate(residuals):
        worst = max(worst, res)
        if res > critical.RESIDUAL_TOL:
            bad.append(k + 1)
    return CheckResult(
        f"published critical quartics verify (residual <= {critical.RESIDUAL_TOL:g})",
        not bad,
        f"worst residual {worst:.3g}" + (f", failing {bad}" if bad else ""),
    )


def run_case(case: str) -> list[CheckResult]:
    cubics, quartics = fixtures.CRITICAL_CUBICS, fixtures.CRITICAL_QUARTICS
    if case == "cubics":
        two, three, four = (diagonal_families(3, 3, m) for m in (2, 3, 4))
        return [
            check_bases(),
            check_orbit_tables(),
            check_cubic_moment_example(),
            _diagonal_families(
                "cubic diagonal families (11)", two + three + four, fixtures.DIAGONAL_CUBIC
            ),
            _monomials_critical("all 10 cubic monomials critical", 3),
            _recovered(
                "six published critical cubics recovered", two + three, enumerate(cubics, 1)
            ),
        ]
    if case == "quartics":
        two, three = (diagonal_families(3, 4, m) for m in (2, 3))
        # entries with irrational coefficients are verification-only
        rational = [(k, e) for k, e in enumerate(quartics, 1) if all(r == 1 for _, r, _ in e)]
        return [
            check_quartic_orbit_pairs(),
            _diagonal_families(
                "quartic three-term diagonal families (31)", three, fixtures.DIAGONAL_QUARTIC_3TERM
            ),
            check_quartic_symbolic_matrix(),
            _monomials_critical("all 15 quartic monomials critical", 4),
            check_quartic_list_verifies(),
            _recovered(
                "rational critical quartics rediscovered by the solver", two + three, rational
            ),
        ]
    raise ValueError(f"unknown case {case!r}; expected cubics or quartics")
