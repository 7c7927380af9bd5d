"""Families whose moment matrix is identically diagonal.

A critical point of the square length necessarily has a diagonal moment
matrix, so families failing this filter can be dropped before any solving.
"Diagonal" here means diagonal as polynomials in the parameters, and that is
decided from the support alone.

The numerator of off-diagonal entry (i, j) is ``2 <d_j f, d_i f>``, a sum of
``c_a c_b`` times a positive weight over the pairs of support exponents with
``a - b = e_i - e_j``.  Distinct pairs give distinct monomials in the
parameters (the pinned coefficient is 1, so a pair holding it gives a
monomial of degree one, every other pair one of degree two), so nothing
cancels: the family is identically diagonal iff no two of its exponents
differ by a root ``e_i - e_j``.  Where an entry is not identically zero,
every term of its numerator is positive at the parameters (1, ..., 1), so
that point witnesses it.

``diagonal_families`` builds no other family: it walks, depth first over
bitmasks, the independent sets of the graph joining monomials that differ by
a root, and ``orbits._representatives`` keeps one per orbit.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .orbits import (ParamFamily, _image_table, _representatives, build_family, orbit_classes,
                     uses_all_variables)
from .symd import root_pair


class DiagonalVerdict(NamedTuple):
    family: ParamFamily
    is_diagonal: bool
    # (i, j) with i < j for each off-diagonal entry that is not identically 0
    offending_entries: tuple[tuple[int, int], ...]
    # all ones when some entry is nonzero: every such entry is positive there
    witness: tuple[int, ...] | None


def is_identically_diagonal(family: ParamFamily) -> DiagonalVerdict:
    """Decide diagonality exactly: no two support exponents differ by a root."""
    pairs = (root_pair(a, b) for a, b in combinations(family.support, 2))
    offending = tuple(sorted({p for p in pairs if p is not None}))
    witness = (1,) * family.nparams if offending else None
    return DiagonalVerdict(family, not offending, offending, witness)


def diagonal_verdicts(n: int, d: int, m: int) -> list[DiagonalVerdict]:
    """Verdicts for every all-variables orbit representative with ``m``
    terms, in orbit order; ``diagonal --json`` prints the failing ones too."""
    if m < 2:
        raise ValueError("parametric families need at least two terms")
    return [
        is_identically_diagonal(build_family(support))
        for support in orbit_classes(n, d, m)
        if uses_all_variables(support)
    ]


def diagonal_families(n: int, d: int, m: int) -> list[ParamFamily]:
    """All-variables orbit representatives with ``m`` terms whose moment
    matrix is identically diagonal, in orbit order."""
    if m < 2:
        raise ValueError("parametric families need at least two terms")
    basis, table = _image_table(n, d, m)
    # bit j of later[k]: j > k, and monomials k and j differ by no root
    later = [sum(1 << j for j in range(k + 1, len(basis)) if root_pair(a, basis[j]) is None)
             for k, a in enumerate(basis)]

    def walk(mask, candidates, terms):
        while candidates.bit_count() >= m - terms:
            low = candidates & -candidates
            candidates ^= low
            if terms + 1 < m:
                yield from walk(mask | low, candidates & later[low.bit_length() - 1], terms + 1)
            else:
                yield mask | low
    reps = _representatives(basis, table, walk(0, (1 << len(basis)) - 1, 0))
    return [build_family(support) for support in reps if uses_all_variables(support)]
