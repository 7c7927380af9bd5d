import pytest

from momentforge.diagonal import is_identically_diagonal
from momentforge.moment import symbolic_moment_matrix
from momentforge.orbits import build_family, orbit_classes, uses_all_variables

# (n, d, m) whose all-variables families are checked against the symbolic filter
ORACLE_CASES = [
    (3, 3, 2), (3, 3, 3), (3, 3, 4),
    (3, 4, 2), (3, 4, 3), (3, 4, 4),
    (3, 5, 3),
    (4, 3, 3), (4, 3, 4),
]


def symbolic_offending(family):
    """The symbolic filter: {(i, j): numerator} for each off-diagonal entry,
    i < j, of the moment matrix over the parameter ring that is not 0."""
    numerators, _ = symbolic_moment_matrix(family.poly)
    n = family.poly.n
    return {
        (i, j): numerators[i][j]
        for i in range(n)
        for j in range(i + 1, n)
        if not numerators[i][j].is_zero()
    }


@pytest.fixture(scope="module")
def oracle_runs():
    """(case, verdict, symbolic filter) for every family of ORACLE_CASES."""
    runs = []
    for n, d, m in ORACLE_CASES:
        for support in orbit_classes(n, d, m):
            if uses_all_variables(support):
                family = build_family(support)
                runs.append(((n, d, m), is_identically_diagonal(family), symbolic_offending(family)))
    return runs


class TestIsIdenticallyDiagonal:
    def test_offending_entries_match_the_symbolic_oracle(self, oracle_runs):
        assert len(oracle_runs) == 882
        for _, verdict, oracle in oracle_runs:
            assert verdict.offending_entries == tuple(sorted(oracle))
            assert verdict.is_diagonal == (not oracle)
            # no cancellation: every term of an offending numerator is positive
            assert all(num.subs(verdict.witness) > 0 for num in oracle.values())

    def test_every_cubic_witness_is_nonzero_and_exhibits_an_entry(self, oracle_runs):
        seen = 0
        for case, verdict, oracle in oracle_runs:
            if case[:2] != (3, 3):
                continue
            if verdict.is_diagonal:
                assert verdict.witness is None and not verdict.offending_entries
                continue
            seen += 1
            assert verdict.witness == (1,) * verdict.family.nparams
            assert any(oracle[entry].subs(verdict.witness) != 0 for entry in verdict.offending_entries)
        assert seen > 0

