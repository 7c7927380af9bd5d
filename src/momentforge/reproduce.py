"""End-to-end reproduction of the published cubic and quartic tables.

Each check compares a freshly computed pipeline stage against the embedded
fixtures and reports one line.  Checks are hermetic (no I/O) and independent
of each other, so the harness may run them in any order.
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


def check_cubic_diagonal_families() -> CheckResult:
    got = []
    for m in (2, 3, 4):
        got.extend(fam.support for fam in diagonal_families(3, 3, m))
    want = [support(*names) for names in fixtures.DIAGONAL_CUBIC]
    ok = got == want
    return CheckResult(
        "cubic diagonal families (11)",
        ok,
        f"got {len(got)}",
    )


def check_cubic_monomial_criticality() -> CheckResult:
    bad = [
        alpha
        for alpha in enumerate_monomials(3, 3)
        if verify_critical(SparsePoly.monomial(3, alpha)) != 0.0
    ]
    return CheckResult("all 10 cubic monomials critical", not bad, str(bad) if bad else "")


def cubic_solver_results():
    families = []
    for m in (2, 3):
        families.extend(diagonal_families(3, 3, m))
    return [(family, solve_family(family)) for family in families]


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


def check_cubic_critical_set() -> CheckResult:
    produced = [sol.polynomial() for _, sols in cubic_solver_results() for sol in sols]
    missing = _missing_targets(
        produced,
        [(k + 1, critical_fixture_poly(entry)) for k, entry in enumerate(fixtures.CRITICAL_CUBICS)],
    )
    return CheckResult(
        "six published critical cubics recovered",
        not missing,
        f"missing entries {missing}" if missing else f"{len(produced)} solutions",
    )


# ---------------------------------------------------------------------------
# quartic checks


def check_quartic_orbit_pairs() -> CheckResult:
    got = orbit_classes(3, 4, 2)
    want = [support(*names) for names in fixtures.T2_QUARTIC]
    return CheckResult("quartic two-term representatives (22)", got == want, f"got {len(got)}")


def check_quartic_diagonal_families() -> CheckResult:
    got = [fam.support for fam in diagonal_families(3, 4, 3)]
    want = [support(*names) for names in fixtures.DIAGONAL_QUARTIC_3TERM]
    return CheckResult("quartic three-term diagonal families (31)", got == want, f"got {len(got)}")


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


def check_quartic_monomial_criticality() -> CheckResult:
    bad = [
        alpha
        for alpha in enumerate_monomials(3, 4)
        if verify_critical(SparsePoly.monomial(3, alpha)) != 0.0
    ]
    return CheckResult("all 15 quartic monomials critical", not bad, str(bad) if bad else "")


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


def quartic_solver_results():
    families = []
    for m in (2, 3):
        families.extend(diagonal_families(3, 4, m))
    return [(family, solve_family(family)) for family in families]


def check_quartic_rational_rediscovery() -> CheckResult:
    produced = [sol.polynomial() for _, sols in quartic_solver_results() for sol in sols]
    missing = _missing_targets(
        produced,
        [
            (k + 1, critical_fixture_poly(entry))
            for k, entry in enumerate(fixtures.CRITICAL_QUARTICS)
            # entries with irrational coefficients are verification-only
            if all(r == 1 for _, r, _ in entry)
        ],
    )
    return CheckResult(
        "rational critical quartics rediscovered by the solver",
        not missing,
        f"missing entries {missing}" if missing else f"{len(produced)} solutions",
    )


def run_case(case: str) -> list[CheckResult]:
    if case == "cubics":
        checks = [
            check_bases(),
            check_orbit_tables(),
            check_cubic_moment_example(),
            check_cubic_diagonal_families(),
            check_cubic_monomial_criticality(),
            check_cubic_critical_set(),
        ]
    elif case == "quartics":
        checks = [
            check_quartic_orbit_pairs(),
            check_quartic_diagonal_families(),
            check_quartic_symbolic_matrix(),
            check_quartic_monomial_criticality(),
            check_quartic_list_verifies(),
            check_quartic_rational_rediscovery(),
        ]
    else:
        raise ValueError(f"unknown case {case!r}; expected cubics or quartics")
    return checks
