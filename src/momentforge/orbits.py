"""Symmetric-group orbits of monomial support sets.

The permutation group of the variables acts on degree-``d`` forms by
substitution.  For enumerating candidate families it suffices to keep one
support set per orbit: the minimum of the orbit, where support sets are
compared through their exponent vectors sorted in descending canonical
order.  That comparison reproduces the ordering of the classical computer
algebra listings this package's fixtures come from (e.g. the class of
``{y^2 z, x^2 z}`` is represented by exactly that set, not by its image
``{x^2 y, y z^2}``).

Enumeration works on integers.  A support set of size ``m`` is a bitmask,
bit ``k`` for the ``k``-th basis monomial in canonical order; for masks of
equal size integer order is ``support_order_key`` order (both compare the
largest monomial first), so an orbit's representative is its least image
mask.  ``_image_table`` holds each monomial's image bit under each of the
``n!`` permutations.  ``_representatives`` alone picks representatives, from
the masks of a family closed under the permutations, each given once: all
size-``m`` subsets for ``orbit_classes``, the independent sets of the root
graph for ``diagonal.diagonal_families``.  The least mask is not
hereditary, so no orderly walk can prune with it: deleting the highest
(lowest) bit of a representative leaves a non-representative in 3 (7) of
the 10 orbits of (3,3,2) and 425 (251) of the 716 of (4,3,5).
``orbit_of`` and ``canonical_representative`` keep the definition on
frozensets, which the tests hold ``orbit_classes`` to.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, permutations
from typing import NamedTuple

from .polyring import (
    ExponentVector,
    ParamPoly,
    SparsePoly,
    canonical_key,
    display_key,
    format_monomial,
)
from .symd import enumerate_monomials

SupportSet = frozenset[ExponentVector]

Permutation = tuple[int, ...]

# bin(mask)[:1:-1].encode().translate(_BITS) is the bits of mask, lowest first
_BITS = bytes.maketrans(b"01", b"\0\1")


def permute_exponents(sigma: Permutation, alpha: ExponentVector) -> ExponentVector:
    """Rename variable ``i`` to ``sigma[i]`` inside one exponent vector."""
    out = [0] * len(alpha)
    for i, e in enumerate(alpha):
        out[sigma[i]] = e
    return tuple(out)


def permute(sigma: Permutation, f: SparsePoly) -> SparsePoly:
    """Apply a coordinate permutation to a polynomial, coefficients carried along."""
    if sorted(sigma) != list(range(f.n)):
        raise ValueError(f"{sigma} is not a permutation of 0..{f.n - 1}")
    return SparsePoly(
        f.n, f.d, {permute_exponents(sigma, exp): c for exp, c in f.terms.items()}
    )


def support_order_key(support) -> tuple:
    """Comparison key: exponent vectors sorted descending in canonical order."""
    return tuple(sorted((canonical_key(a) for a in support), reverse=True))


def orbit_of(support) -> set[SupportSet]:
    """All distinct images of a support set under coordinate permutations."""
    support = frozenset(support)
    n = len(next(iter(support)))
    return {
        frozenset(permute_exponents(sigma, a) for a in support)
        for sigma in permutations(range(n))
    }


def canonical_representative(support) -> SupportSet:
    """Minimum of the orbit of ``support`` under all coordinate permutations."""
    return min(orbit_of(support), key=support_order_key)


def _image_table(n: int, d: int, m: int) -> tuple[tuple[ExponentVector, ...], list[tuple]]:
    """The basis, and per monomial the bits of its images (see the module docstring)."""
    basis = enumerate_monomials(n, d)
    if not 1 <= m <= len(basis):
        raise ValueError(f"term count {m} out of range 1..{len(basis)}")
    bit = {alpha: 1 << k for k, alpha in enumerate(basis)}
    # `permutations(alpha)` rearranges the exponents of every monomial by the
    # same index permutations in the same order, so row s of the table is
    # one coordinate permutation
    return basis, [tuple(map(bit.__getitem__, permutations(alpha))) for alpha in basis]


def _representatives(basis, table, masks) -> list[SupportSet]:
    """The representatives of the orbits of ``masks`` (see the module docstring), sorted."""
    # the masks of orbits already built that the walk has not reached yet
    pending: set[int] = set()
    reps = []
    for mask in masks:
        if mask in pending:
            pending.remove(mask)
            continue
        images = set(map(sum, zip(*compress(table, bin(mask)[:1:-1].encode().translate(_BITS)))))
        reps.append(min(images))
        images.remove(mask)
        pending |= images
    reps.sort()
    return [frozenset(compress(basis, bin(rep)[:1:-1].encode().translate(_BITS))) for rep in reps]


def orbit_classes(n: int, d: int, m: int) -> list[SupportSet]:
    """The canonical support set of every orbit of size-``m`` support sets,
    sorted by ``support_order_key``."""
    basis, table = _image_table(n, d, m)
    units = [1 << k for k in range(len(basis))]
    return _representatives(basis, table, map(sum, combinations(units, m)))


def uses_all_variables(support) -> bool:
    """True iff every variable has a positive exponent somewhere in the support."""
    support = frozenset(support)
    n = len(next(iter(support)))
    return all(any(a[i] > 0 for a in support) for i in range(n))


class ParamFamily(NamedTuple):
    """Parametric form over a support set.

    Terms are taken in display order (descending canonical); the first
    ``m - 1`` receive the symbols ``b1 .. b_{m-1}`` and the display-last
    term is pinned to coefficient 1, matching the classical presentation
    (e.g. ``{x^2 z, x y^2}`` becomes ``b1*x^2*z + x*y^2``).
    """

    support: SupportSet
    poly: SparsePoly
    nparams: int

    def display_terms(self) -> tuple[ExponentVector, ...]:
        """The support in display order, sorted once per support (``_display_order``)."""
        return _display_order(self.support)

    def __str__(self):
        parts = []
        for k, alpha in enumerate(self.display_terms()):
            mono = format_monomial(self.poly.n, alpha)
            parts.append(mono if k == self.nparams else f"b{k + 1}*{mono}")
        return " + ".join(parts)


@lru_cache(maxsize=256)
def _display_order(support: SupportSet) -> tuple[ExponentVector, ...]:
    return tuple(sorted(support, key=display_key))


def build_family(support) -> ParamFamily:
    """Attach parameters to a support set of at least two monomials."""
    support = frozenset(support)
    if len(support) < 2:
        raise ValueError("a one-term support needs no parameters; monomials are handled directly")
    ordered = _display_order(support)
    nparams = len(ordered) - 1
    n = len(ordered[0])
    terms = {}
    for k, alpha in enumerate(ordered[:-1]):
        terms[alpha] = ParamPoly.symbol(nparams, k)
    terms[ordered[-1]] = ParamPoly.const(nparams, Fraction(1))
    d = sum(ordered[0])
    return ParamFamily(support, SparsePoly.make(n, d, terms), nparams)
