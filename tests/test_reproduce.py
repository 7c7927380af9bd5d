"""The paper's tables as Tier-1 gates."""

import pytest

from momentforge.reproduce import run_case


@pytest.mark.parametrize("case", ["cubics", "quartics"])
def test_run_case_all_checks_ok(case):
    checks = run_case(case)
    assert len(checks) == 6
    assert [c.name for c in checks if not c.ok] == []
