from math import comb

import pytest

from momentforge.diagonal import diagonal_families, diagonal_verdicts, is_identically_diagonal
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


# every (n <= 4, d <= 5, 2 <= m <= 5) whose verdicts take under a second:
# all but (4, 4, 5) and (4, 5, 5), which walk all C(35, 5) and C(56, 5) subsets
WALK_CASES = [
    (n, d, m)
    for n in (2, 3, 4) for d in range(1, 6) for m in range(2, 6)
    if m <= comb(n + d - 1, d) and (n, d, m) not in {(4, 4, 5), (4, 5, 5)}
] + [
    (n, d, m)
    for n, d, top in ((5, 2, 5), (5, 3, 4), (5, 4, 3), (6, 2, 4), (6, 3, 3))
    for m in range(2, top + 1)
]


@pytest.mark.parametrize("n, d, m", WALK_CASES)
def test_the_walk_keeps_the_diagonal_orbit_representatives(n, d, m):
    # the same families as filtering every all-variables orbit, in orbit order
    expected = [v.family for v in diagonal_verdicts(n, d, m) if v.is_diagonal]
    assert diagonal_families(n, d, m) == expected


@pytest.mark.parametrize("n, d, m, count", [
    (3, 5, 5, 176), (3, 5, 6, 66), (3, 5, 7, 6), (3, 6, 5, 1976), (4, 4, 5, 1132),
    (5, 3, 5, 124), (5, 3, 6, 72), (6, 3, 5, 454),
])
def test_diagonal_family_counts_beyond_the_oracle(n, d, m, count):
    assert len(diagonal_families(n, d, m)) == count


@pytest.mark.parametrize("m, message", [(1, "at least two terms"), (11, "out of range")])
def test_term_counts_out_of_range_are_refused(m, message):
    for enumerate_families in (diagonal_families, diagonal_verdicts):
        with pytest.raises(ValueError, match=message):
            enumerate_families(3, 3, m)
