"""Symmetric-group orbits of monomial support sets.

The permutation group of the variables acts on degree-``d`` forms by
substitution.  For enumerating candidate families it suffices to keep one
support set per orbit: the minimum of the orbit, where support sets are
compared through their exponent vectors sorted in descending canonical
order.  That comparison reproduces the ordering of the classical computer
algebra listings this package's fixtures come from (e.g. the class of
``{y^2 z, x^2 z}`` is represented by exactly that set, not by its image
``{x^2 y, y z^2}``).

``orbit_classes`` works on integers.  A support set of size ``m`` is a
bitmask over the basis, bit ``k`` standing for the ``k``-th monomial in
canonical order.  A table of ``n! x B`` ints (``_image_table``, shared with
``diagonal``) holds the bit of each monomial's image under each permutation,
so an image of a mask is a sum of table entries.  For two masks with the
same number of bits, integer order is ``support_order_key`` order: both
compare the largest monomial first, and the first one where the sets differ
decides.  So the representative of an orbit is the least of its image masks,
and only the representatives become frozensets.  Enumeration walks the masks
once, builds each orbit from the first of its members it meets and skips the
others as they come, so every orbit is built and minimised exactly once.
``orbit_of`` and ``canonical_representative`` keep the definition on
frozensets, which the tests hold ``orbit_classes`` to.
"""

from __future__ import annotations

from fractions import Fraction
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


def orbit_classes(n: int, d: int, m: int) -> list[SupportSet]:
    """The canonical support set of every orbit of size-``m`` support sets,
    sorted by ``support_order_key``."""
    basis, images_of = _image_table(n, d, m)
    units = [1 << k for k in range(len(basis))]
    # the masks of orbits already built that the walk has not reached yet
    pending: set[int] = set()
    reps = []
    # both walks list the size-m subsets of the basis in the same order
    for mask, columns in zip(map(sum, combinations(units, m)), combinations(images_of, m)):
        if mask in pending:
            pending.remove(mask)
            continue
        images = set(map(sum, zip(*columns)))
        reps.append(min(images))
        images.remove(mask)
        pending |= images
    reps.sort()
    # bin(rep)[:1:-1] lists the bits of rep lowest first
    return [frozenset(compress(basis, map(int, bin(rep)[:1:-1]))) for rep in reps]


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

    def display_terms(self) -> list[ExponentVector]:
        return sorted(self.support, key=display_key)

    def __str__(self):
        parts = []
        for k, alpha in enumerate(self.display_terms()):
            mono = format_monomial(self.poly.n, alpha)
            parts.append(mono if k == self.nparams else f"b{k + 1}*{mono}")
        return " + ".join(parts)


def build_family(support) -> ParamFamily:
    """Attach parameters to a support set of at least two monomials."""
    support = frozenset(support)
    if len(support) < 2:
        raise ValueError("a one-term support needs no parameters; monomials are handled directly")
    ordered = sorted(support, key=display_key)
    nparams = len(ordered) - 1
    n = len(ordered[0])
    terms = {}
    for k, alpha in enumerate(ordered[:-1]):
        terms[alpha] = ParamPoly.symbol(nparams, k)
    terms[ordered[-1]] = ParamPoly.const(nparams, Fraction(1))
    d = sum(ordered[0])
    return ParamFamily(support, SparsePoly.make(n, d, terms), nparams)
