"""End-to-end reproduction of the published cubic and quartic tables.

Each check compares a freshly computed pipeline stage against the embedded
fixtures and reports one line.  Checks are hermetic (no I/O).  A case
enumerates its diagonal families and parses its published forms once: the
family-table check and the solver check read the same family lists, and the
quartic verification and the solver check the same parsed forms.
"""

from __future__ import annotations

from typing import NamedTuple

from . import critical, fixtures
from .critical import polys_close, solve_family, verify_critical
from .diagonal import diagonal_families
from .fixtures import critical_fixture_poly, mono, support
from .moment import moment_matrix, symbolic_moment_matrix
from .orbits import orbit_classes, orbit_of
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


def _target_orbits(targets) -> set:
    """Every support in the S_n orbit of some target's support."""
    return set().union(*(orbit_of(target.terms) for _, target in targets))


def _missing_targets(produced: list[SparsePoly], targets, orbits: set | None = None) -> list[int]:
    """Numbers of the (number, polynomial) targets equivalent to no produced
    polynomial modulo torus rescaling and coordinate permutation.

    Only the produced polynomials whose support lies in the S_n orbit of a
    target's support are canonicalised, which loses no match:
    ``orbit_torus_canonical`` keeps the least support of the orbit, so two
    canonical forms have equal supports only when the supports lie in one
    orbit, and ``polys_close`` is False on unequal supports.  ``orbits`` is
    ``_target_orbits(targets)``, built here when not given."""
    if orbits is None:
        orbits = _target_orbits(targets)
    # each polynomial is canonicalized once, not once per compared pair
    canonical = [critical.orbit_torus_canonical(p) for p in produced
                 if frozenset(p.terms) in orbits]
    missing = []
    for number, target in targets:
        key = critical.orbit_torus_canonical(target)
        if not any(polys_close(c, key) for c in canonical):
            missing.append(number)
    return missing


def _recovered(name: str, families, targets) -> CheckResult:
    """Whether the solutions of the families hold each published (number,
    polynomial).  A solution has its family's support, since every parameter
    of a solution is nonzero, so only the families whose support lies in a
    target's orbit (``_missing_targets``) have their solutions substituted."""
    solved = [(family, solve_family(family)) for family in families]
    orbits = _target_orbits(targets)
    produced = [sol.polynomial() for family, solutions in solved if family.support in orbits
                for sol in solutions]
    missing = _missing_targets(produced, targets, orbits)
    count = sum(len(solutions) for _, solutions in solved)
    detail = f"missing entries {missing}" if missing else f"{count} solutions"
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
        terms: dict = {}
        for coeff, sub_a, sub_b in entries:
            exp = [0] * size
            exp[basis.index(sub_a)] += 1
            exp[basis.index(sub_b)] += 1
            exp = tuple(exp)
            terms[exp] = terms.get(exp, 0) + coeff
        return ParamPoly(size, terms)

    bad = []
    if denom != expand(fixtures.QUARTIC_R_DENOMINATOR):
        bad.append("denominator")
    for (i, j), entries in fixtures.QUARTIC_R_ENTRIES.items():
        if numerators[i][j] != expand(entries):
            bad.append(f"entry ({i + 1},{j + 1})")
    return CheckResult("symbolic quartic moment matrix", not bad, ", ".join(bad))


def check_quartic_list_verifies(quartics: list[SparsePoly]) -> CheckResult:
    worst = 0.0
    bad = []
    residuals = [verify_critical(f) for f in quartics]
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
    if case == "cubics":
        cubics = [critical_fixture_poly(entry) for entry in fixtures.CRITICAL_CUBICS]
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
                "six published critical cubics recovered", two + three,
                list(enumerate(cubics, 1)),
            ),
        ]
    if case == "quartics":
        two, three = (diagonal_families(3, 4, m) for m in (2, 3))
        quartics = [critical_fixture_poly(entry) for entry in fixtures.CRITICAL_QUARTICS]
        # entries with irrational coefficients are float, and verification-only
        rational = [(k, f) for k, f in enumerate(quartics, 1) if f.is_exact()]
        return [
            check_quartic_orbit_pairs(),
            _diagonal_families(
                "quartic three-term diagonal families (31)", three, fixtures.DIAGONAL_QUARTIC_3TERM
            ),
            check_quartic_symbolic_matrix(),
            _monomials_critical("all 15 quartic monomials critical", 4),
            check_quartic_list_verifies(quartics),
            _recovered(
                "rational critical quartics rediscovered by the solver", two + three, rational
            ),
        ]
    raise ValueError(f"unknown case {case!r}; expected cubics or quartics")
