"""The paper's tables as Tier-1 gates."""

import pytest

from momentforge import fixtures
from momentforge.critical import solve_family
from momentforge.diagonal import diagonal_families
from momentforge.fixtures import critical_fixture_poly
from momentforge.reproduce import _missing_targets, run_case


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
