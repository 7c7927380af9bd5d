import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from momentforge.fixtures import T1_CUBIC, T2_CUBIC, T3_CUBIC, T2_QUARTIC, mono, support
from momentforge.orbits import (
    build_family,
    canonical_representative,
    orbit_classes,
    orbit_of,
    permute,
    support_order_key,
    uses_all_variables,
)
from momentforge.polyring import ParamPoly, SparsePoly
from momentforge.symd import enumerate_monomials


def P(**kw):
    terms = {mono(name): Fraction(c) for name, c in kw.items()}
    d = sum(next(iter(terms)))
    return SparsePoly.make(3, d, terms)


class TestPermute:
    def test_swap(self):
        assert permute((1, 0, 2), P(x3=1, x2z=1)) == P(y3=1, y2z=1)

    def test_identity(self):
        f = P(x3=1, xyz=2)
        assert permute((0, 1, 2), f) == f

    def test_symmetric_monomial(self):
        f = P(xyz=1)
        assert permute((1, 2, 0), f) == f

    def test_invalid(self):
        with pytest.raises(ValueError):
            permute((0, 0, 2), P(x3=1))


class TestCanonicalRepresentative:
    def test_mapped_pair(self):
        assert canonical_representative(support("y3", "y2z")) == support("x3", "x2y")

    def test_already_minimal(self):
        assert canonical_representative(support("x3")) == support("x3")
        assert canonical_representative(support("xyz")) == support("xyz")

    def test_published_t2_entry(self):
        # the orbit of {y^2 z, x^2 z} is represented by itself
        assert canonical_representative(support("yz2", "x2y")) == support("y2z", "x2z")

    def test_idempotent(self):
        rng = random.Random(83)
        from momentforge.symd import enumerate_monomials

        basis = enumerate_monomials(3, 3)
        for _ in range(40):
            s = frozenset(rng.sample(basis, rng.randint(1, 5)))
            rep = canonical_representative(s)
            assert canonical_representative(rep) == rep

    def test_orbit_soundness(self):
        rng = random.Random(89)
        from momentforge.symd import enumerate_monomials

        basis = enumerate_monomials(3, 4)
        perms = list(permutations(range(3)))
        for _ in range(40):
            s = frozenset(rng.sample(basis, rng.randint(1, 4)))
            sigma = rng.choice(perms)
            image = frozenset(
                tuple(a[sigma.index(i)] for i in range(3)) for a in s
            )
            assert canonical_representative(image) == canonical_representative(s)


class TestOrbitClasses:
    def test_t1(self):
        got = orbit_classes(3, 3, 1)
        assert got == [support(*names) for names in T1_CUBIC]

    def test_t2_list_and_order(self):
        got = orbit_classes(3, 3, 2)
        assert got == [support(*names) for names in T2_CUBIC]
        assert all(type(s) is frozenset for s in got)
        assert got[0] == support("x2y", "x3")
        assert got[-1] == support("y2z", "x2z")

    def test_t3(self):
        got = orbit_classes(3, 3, 3)
        assert len(got) == 25
        assert got == [support(*names) for names in T3_CUBIC]

    def test_quartic_pairs(self):
        got = orbit_classes(3, 4, 2)
        assert len(got) == 22
        assert got == [support(*names) for names in T2_QUARTIC]

    def test_partition_property(self):
        # orbit sizes of the representatives partition all size-m subsets
        for n, d in ((3, 3), (3, 4)):
            total = comb(n + d - 1, d)
            for m in (1, 2, 3):
                reps = orbit_classes(n, d, m)
                assert sum(len(orbit_of(r)) for r in reps) == comb(total, m)

    @pytest.mark.parametrize("n, d, m", [
        (1, 3, 1), (2, 4, 1), (2, 4, 2), (2, 6, 3), (2, 5, 4), (3, 3, 2), (3, 4, 3),
        (4, 2, 1), (4, 2, 3), (4, 3, 2), (4, 3, 3),
    ])
    def test_matches_the_definition(self, n, d, m):
        # the distinct representatives of all size-m supports, in key order
        basis = enumerate_monomials(n, d)
        reps = {canonical_representative(s) for s in combinations(basis, m)}
        assert orbit_classes(n, d, m) == sorted(reps, key=support_order_key)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            orbit_classes(3, 3, 0)
        with pytest.raises(ValueError):
            orbit_classes(3, 3, 11)


class TestUsesAllVariables:
    def test_examples(self):
        assert not uses_all_variables(support("x3", "y3"))
        assert uses_all_variables(support("xyz"))
        assert uses_all_variables(support("x2z", "xy2"))


class TestBuildFamily:
    def test_two_terms(self):
        fam = build_family(support("x2z", "xy2"))
        assert fam.nparams == 1
        assert fam.poly.terms[mono("x2z")] == ParamPoly.symbol(1, 0)
        assert fam.poly.terms[mono("xy2")] == ParamPoly.const(1, 1)

    def test_four_terms_display_assignment(self):
        fam = build_family(support("z3", "xyz", "y3", "x3"))
        assert fam.poly.terms[mono("z3")] == ParamPoly.symbol(3, 0)
        assert fam.poly.terms[mono("xyz")] == ParamPoly.symbol(3, 1)
        assert fam.poly.terms[mono("y3")] == ParamPoly.symbol(3, 2)
        assert fam.poly.terms[mono("x3")] == ParamPoly.const(3, 1)

    def test_quartic_pure_powers(self):
        fam = build_family(support("x4", "y4", "z4"))
        assert fam.poly.terms[mono("z4")] == ParamPoly.symbol(2, 0)
        assert fam.poly.terms[mono("y4")] == ParamPoly.symbol(2, 1)
        assert fam.poly.terms[mono("x4")] == ParamPoly.const(2, 1)

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            build_family(support("x3"))
