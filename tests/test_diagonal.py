from fractions import Fraction

from momentforge.diagonal import _nonzero_witness, is_identically_diagonal
from momentforge.orbits import build_family, orbit_classes, uses_all_variables
from momentforge.polyring import ParamPoly


def cubic_families():
    for m in (2, 3, 4):
        for rep in orbit_classes(3, 3, m):
            if uses_all_variables(rep.support):
                yield build_family(rep.support)


class TestNonzeroWitness:
    def test_root_rich_numerator_gets_a_witness(self):
        # vanishes at 1/2 and at 1, ..., 38: the first grid point off the roots is 39
        b1 = ParamPoly.symbol(1, 0)
        numer = ParamPoly.const(1, 1)
        for v in [Fraction(1, 2)] + [Fraction(k) for k in range(1, 39)]:
            numer = numer * (b1 - v)
        assert _nonzero_witness([numer], 1) == (Fraction(39),)

    def test_grid_starts_at_all_ones(self):
        b1, b2 = ParamPoly.symbol(2, 0), ParamPoly.symbol(2, 1)
        assert _nonzero_witness([b1 * b2], 2) == (Fraction(1), Fraction(1))
        # b1 - b2 vanishes on the diagonal; the lexicographic walk next tries (1, 2)
        assert _nonzero_witness([b1 - b2], 2) == (Fraction(1), Fraction(2))


class TestIsIdenticallyDiagonal:
    def test_every_cubic_witness_is_nonzero_and_exhibits_an_entry(self):
        seen = 0
        for family in cubic_families():
            verdict = is_identically_diagonal(family)
            if verdict.is_diagonal:
                assert verdict.witness is None and not verdict.offending_entries
                continue
            seen += 1
            point = verdict.witness
            assert len(point) == family.nparams
            assert all(v != 0 for v in point)
            assert any(num.subs(point) != 0 for _, num in verdict.offending_entries)
        assert seen > 0

    def test_offending_entries_are_parametric(self):
        for family in cubic_families():
            for _, num in is_identically_diagonal(family).offending_entries:
                assert isinstance(num, ParamPoly) and num.nsyms == family.nparams
