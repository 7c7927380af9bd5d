"""The paper's tables as Tier-1 gates."""

from fractions import Fraction

import pytest

from momentforge import fixtures
from momentforge.critical import solve_family
from momentforge.diagonal import diagonal_families
from momentforge.fixtures import critical_fixture_poly
from momentforge.orbits import permute
from momentforge.polyring import SparsePoly, canonical_key
from momentforge.reproduce import _missing_targets, run_case
from oracles import full_missing_targets


@pytest.mark.parametrize("case", ["cubics", "quartics"])
def test_run_case_all_checks_ok(case):
    checks = run_case(case)
    assert len(checks) == 6
    assert [c.name for c in checks if not c.ok] == []


def test_all_published_quartics_are_rediscovered():
    # the harness checks only the 9 rational entries; the solver finds all 26
    families = diagonal_families(3, 4, 2) + diagonal_families(3, 4, 3)
    produced = [sol.polynomial() for family in families for sol in solve_family(family)]
    targets = [
        (k + 1, critical_fixture_poly(entry)) for k, entry in enumerate(fixtures.CRITICAL_QUARTICS)
    ]
    assert len(targets) == 26
    assert _missing_targets(produced, targets) == []


PAPER_CASES = {"cubics": (3, fixtures.CRITICAL_CUBICS), "quartics": (4, fixtures.CRITICAL_QUARTICS)}


def permuted(target):
    return permute((1, 2, 0), target)


def sign_flipped(target):
    first = min(target.terms, key=canonical_key)
    return SparsePoly(3, target.d, {a: -c if a == first else c for a, c in target.terms.items()})


def absent(target):
    # x^d and x^(d-1) y differ by a root, so no diagonal family has this support
    return SparsePoly(3, target.d, {(target.d, 0, 0): Fraction(1), (target.d - 1, 1, 0): Fraction(2)})


@pytest.mark.parametrize("mutate, found", [
    (None, True),
    (permuted, True),
    # on these supports, sign changes of the coordinates reach every sign pattern
    (sign_flipped, True),
    (absent, False),
], ids=["published", "permuted", "sign-flipped", "absent"])
@pytest.mark.parametrize("case", sorted(PAPER_CASES))
def test_missing_targets_keeps_the_verdicts_of_full_canonicalisation(case, mutate, found):
    # only the produced forms in a target's S_n orbit are canonicalised
    d, table = PAPER_CASES[case]
    families = diagonal_families(3, d, 2) + diagonal_families(3, d, 3)
    produced = [sol.polynomial() for family in families for sol in solve_family(family)]
    targets = [(k, critical_fixture_poly(entry)) for k, entry in enumerate(table, 1)]
    if mutate is not None:
        targets = [(k, mutate(target)) for k, target in targets]
    missing = _missing_targets(produced, targets)
    assert missing == full_missing_targets(produced, targets)
    assert missing == ([] if found else [k for k, _ in targets])
