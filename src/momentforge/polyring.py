"""Exact arithmetic foundation.

Scalars come in three flavours and every operation in the package is generic
over them:

* :class:`fractions.Fraction` -- exact rationals (always lowest terms,
  positive denominator),
* :class:`float` -- used only once irrational values enter (solver output);
  mixing a float with an exact scalar promotes to float,
* :class:`ParamPoly` -- an exact multivariate polynomial in parameter
  symbols ``b1..bk`` with rational coefficients.

On top of the scalars sits :class:`SparsePoly`, a homogeneous polynomial as
a map from exponent vectors to scalars.  A rational function of the
parameters travels as a plain ``(numerator, denominator)`` pair of
``ParamPoly``.  All values are immutable after construction and all
functions are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import add
from typing import Mapping, Sequence, Union

# Exponent vector: element i is the exponent of variable x_{i+1}.
ExponentVector = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class DegenerateInputError(ValueError):
    """Raised for inputs the theory excludes (zero polynomial, zero vector)."""


def _is_exact(c) -> bool:
    return isinstance(c, (Fraction, int))


def scalar_is_zero(c) -> bool:
    """True for the additive zero of any scalar flavour."""
    if isinstance(c, ParamPoly):
        return c.is_zero()
    return c == 0


def format_scalar(c) -> str:
    """Exact scalars as 'p/q', floats at 12 significant digits."""
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, ParamPoly):
        return str(c)
    return format(c, ".12g")


# ---------------------------------------------------------------------------
# parameter polynomials


class ParamPoly:
    """Polynomial in parameter symbols ``b1..bk`` over the rationals.

    Stored as a map from parameter-exponent tuples to nonzero Fractions.
    Arithmetic never leaves the exact world: mixing with a float raises.
    Sums and products of polynomials with ``int`` coefficients (built with
    ``_trusted``), and their products with an ``int``, stay ``int``.
    A constant equals its value; like ``SparsePoly`` the class is not
    hashable, and ``key`` is its hashable form.
    """

    __slots__ = ("nsyms", "terms")

    def __init__(self, nsyms: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nsyms = nsyms
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != nsyms:
                    raise ValueError(f"exponent tuple {exp} has wrong length, expected {nsyms}")
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[tuple(exp)] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, nsyms: int, terms: dict[tuple[int, ...], Fraction]) -> "ParamPoly":
        """``terms`` taken as they are: exponent tuples of length ``nsyms`` and
        nonzero Fractions, which the ring operations' results already are."""
        poly = object.__new__(cls)
        poly.nsyms = nsyms
        poly.terms = terms
        return poly

    # -- constructors

    @classmethod
    def const(cls, nsyms: int, value) -> "ParamPoly":
        value = Fraction(value)
        if value == 0:
            return cls(nsyms)
        return cls(nsyms, {(0,) * nsyms: value})

    @classmethod
    def symbol(cls, nsyms: int, i: int) -> "ParamPoly":
        """The symbol ``b{i+1}`` (0-based index)."""
        if not 0 <= i < nsyms:
            raise ValueError(f"symbol index {i} out of range for {nsyms} symbols")
        exp = [0] * nsyms
        exp[i] = 1
        return cls(nsyms, {tuple(exp): ONE})

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(exp) for exp in self.terms), default=0)

    def degree_in(self, i: int) -> int:
        return max((exp[i] for exp in self.terms), default=0)

    # -- ring operations

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.nsyms != self.nsyms:
                raise ValueError("parameter rings differ")
            return other
        if _is_exact(other):
            return ParamPoly.const(self.nsyms, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) + coeff
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return ParamPoly._trusted(self.nsyms, out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._trusted(self.nsyms, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if _is_exact(other):
            c = other if type(other) is int else Fraction(other)
            if c == 0:
                return ParamPoly(self.nsyms)
            return ParamPoly._trusted(self.nsyms, {exp: v * c for exp, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(map(add, ea, eb))
                s = out.get(exp, 0) + ca * cb
                if s == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = s
        return ParamPoly._trusted(self.nsyms, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if _is_exact(other):
            other = ParamPoly.const(self.nsyms, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.nsyms == other.nsyms and self.terms == other.terms

    def key(self) -> tuple:
        """Canonical hashable form (sorted term list)."""
        return tuple(sorted(self.terms.items()))

    # -- calculus and evaluation

    def diff(self, i: int) -> "ParamPoly":
        """Formal partial derivative with respect to symbol index ``i``."""
        out: dict[tuple[int, ...], Fraction] = {}
        for exp, coeff in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = coeff * exp[i]
        return ParamPoly(self.nsyms, out)

    def subs(self, values: Sequence):
        """Evaluate at a point; exact iff every value is exact."""
        if len(values) != self.nsyms:
            raise ValueError("wrong number of parameter values")
        exact = all(_is_exact(v) for v in values)
        total = ZERO if exact else 0.0
        for exp, coeff in self.terms.items():
            term = coeff if exact else float(coeff)
            for e, v in zip(exp, values):
                if e:
                    term *= v**e
            total += term
        return total

    # -- normal forms

    def content(self) -> Fraction:
        """Positive gcd of all coefficients (0 for the zero polynomial)."""
        if not self.terms:
            return ZERO
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "ParamPoly":
        """Divide out the content; sign fixed so the leading term is positive."""
        if not self.terms:
            return self
        c = self.content()
        lead = max(self.terms)
        if self.terms[lead] < 0:
            c = -c
        return self * (1 / c)

    def monomial_gcd(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.nsyms
        mins = [min(exp[i] for exp in self.terms) for i in range(self.nsyms)]
        return tuple(mins)

    def shift_down(self, shift: Sequence[int]) -> "ParamPoly":
        """Divide by the monomial b^shift (must divide every term)."""
        out = {}
        for exp, coeff in self.terms.items():
            new = tuple(e - s for e, s in zip(exp, shift))
            if any(e < 0 for e in new):
                raise ValueError("monomial does not divide polynomial")
            out[new] = coeff
        return ParamPoly(self.nsyms, out)

    def integer_terms(self) -> dict[tuple[int, ...], int]:
        """Coefficients times their least common denominator (a positive
        integer), so the polynomial's zeros stay where they are."""
        den = lcm(*(c.denominator for c in self.terms.values()))
        return {exp: c.numerator * (den // c.denominator) for exp, c in self.terms.items()}

    def univariate(self) -> list[int]:
        """Dense integer coefficient list (see ``integer_terms``) when at most
        one symbol occurs."""
        active = [i for i in range(self.nsyms) if self.degree_in(i) > 0]
        if len(active) > 1:
            raise ValueError("polynomial is not univariate")
        i = active[0] if active else 0
        coeffs = [0] * (self.degree_in(i) + 1)
        for exp, c in self.integer_terms().items():
            coeffs[exp[i]] = c
        return coeffs

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in sorted(self.terms.items(), reverse=True):
            syms = "*".join(
                f"b{i + 1}" if e == 1 else f"b{i + 1}^{e}" for i, e in enumerate(exp) if e
            )
            if not syms:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(syms)
            elif coeff == -1:
                parts.append(f"-{syms}")
            else:
                parts.append(f"{coeff}*{syms}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


Scalar = Union[Fraction, float, ParamPoly]


# ---------------------------------------------------------------------------
# sparse homogeneous polynomials


def degree(alpha: ExponentVector) -> int:
    return sum(alpha)


class SparsePoly:
    """Homogeneous polynomial of degree ``d`` in ``n`` variables.

    ``terms`` maps exponent vectors (all of degree exactly ``d``) to nonzero
    scalars.  The zero polynomial is the empty map with (n, d) retained.
    """

    __slots__ = ("n", "d", "terms")

    def __init__(self, n: int, d: int, terms: dict[ExponentVector, Scalar]):
        self.n = n
        self.d = d
        self.terms = terms

    @staticmethod
    def make(n: int, d: int, terms: Mapping[ExponentVector, Scalar]) -> "SparsePoly":
        clean: dict[ExponentVector, Scalar] = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for n={n}")
            if degree(exp) != d:
                raise ValueError(f"term {exp} breaks homogeneity of degree {d}")
            if not scalar_is_zero(coeff):
                clean[exp] = coeff if isinstance(coeff, (float, ParamPoly)) else Fraction(coeff)
        return SparsePoly(n, d, clean)

    @staticmethod
    def monomial(n: int, exp: ExponentVector, coeff: Scalar = ONE) -> "SparsePoly":
        return SparsePoly.make(n, degree(tuple(exp)), {tuple(exp): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_parametric(self) -> bool:
        return any(isinstance(c, ParamPoly) for c in self.terms.values())

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.terms.values())

    def support(self) -> frozenset[ExponentVector]:
        return frozenset(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and self.terms == other.terms

    def __str__(self):
        return format_poly(self)

    __repr__ = __str__


def variable_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{i + 1}" for i in range(n)]


def format_monomial(n: int, exp: ExponentVector) -> str:
    names = variable_names(n)
    parts = [
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e
    ]
    return "*".join(parts) if parts else "1"


def format_poly(f: SparsePoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for exp in sorted(f.terms, key=lambda a: canonical_key(a)):
        c = f.terms[exp]
        mono = format_monomial(f.n, exp)
        if isinstance(c, ParamPoly) and len(c.terms) > 1:
            parts.append(f"({c})*{mono}")
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{format_scalar(c)}*{mono}")
    return " + ".join(parts)


def canonical_key(alpha: ExponentVector) -> tuple[int, ...]:
    """Sort key of the canonical monomial order.

    Exponent vectors are compared by ``(a_n, a_{n-1}, ..., a_2)`` ascending,
    which for (n, d) = (3, 3) lists the basis as
    x^3, x^2*y, x*y^2, y^3, x^2*z, x*y*z, y^2*z, x*z^2, y*z^2, z^3.
    """
    return tuple(reversed(alpha[1:]))


def display_key(alpha: ExponentVector) -> tuple[int, ...]:
    """Sort key of the display order (descending canonical)."""
    return tuple(-e for e in canonical_key(alpha))


# ---------------------------------------------------------------------------
# operations


def parameter_symbols(f: SparsePoly) -> int:
    """Number of parameter symbols occurring in ``f`` (0 when numeric)."""
    for c in f.terms.values():
        if isinstance(c, ParamPoly):
            return c.nsyms
    return 0


def substitute_params(f: SparsePoly, values: Sequence) -> SparsePoly:
    """Replace parameter symbols by values.

    ``values`` holds one value per symbol, ``b1`` first.  Evaluation is exact
    when all values are rational.  A one-term coefficient (each of a family's)
    is computed directly, and equals what ``ParamPoly.subs`` gives bit for bit.
    """
    nsyms = parameter_symbols(f)
    if nsyms == 0:
        return f
    if len(values) != nsyms:
        raise ValueError(f"expected {nsyms} parameter values, got {len(values)}")
    values = [v if isinstance(v, float) or type(v) is Fraction else Fraction(v) for v in values]
    exact = all(_is_exact(v) for v in values)
    out: dict[ExponentVector, Scalar] = {}
    for exp, coeff in f.terms.items():
        if isinstance(coeff, ParamPoly) and len(coeff.terms) == 1 and coeff.nsyms == nsyms:
            ((mono, c),) = coeff.terms.items()
            c = (c if isinstance(c, Fraction) else Fraction(c)) if exact else float(c)
            for e, v in zip(mono, values):
                if e:
                    power = v if e == 1 else v**e
                    c = power if exact and c == 1 else c * power
        else:
            c = coeff.subs(values) if isinstance(coeff, ParamPoly) else coeff
        if not scalar_is_zero(c):
            out[exp] = c
    return SparsePoly(f.n, f.d, out)


# ---------------------------------------------------------------------------
# JSON wire format
#
# {"n": int, "d": int, "terms": [{"exp": [..], "coeff": "p/q" | float |
#  {"params": [{"exp": [..], "coeff": "p/q"}, ...], "nsyms": k >= 1}}]}
# with every exponent listed once in its list, float coefficients finite, and
# beside a float no rational coefficient beyond the float range.
# n, d, nsyms and each exponent entry are JSON integers, not booleans or
# floats; n, d and nsyms are at least 1, exponent entries at least 0.


def _coeff_to_json(c: Scalar):
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, float):
        return c
    return {
        "nsyms": c.nsyms,
        "params": [
            {"exp": list(exp), "coeff": str(v)} for exp, v in sorted(c.terms.items())
        ],
    }


def _int_from_json(obj, least: int, what: str) -> int:
    # bool subclasses int, and int() would truncate 3.7 and parse "3"
    if type(obj) is not int or obj < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {obj!r}")
    return obj


def _terms_from_json(entries, coeff_from_json) -> dict:
    """``{exp: coeff}`` from a list of ``{"exp": .., "coeff": ..}`` objects; an
    exponent listed twice is refused, not summed or overwritten."""
    terms = {}
    for t in entries:
        exp = tuple(_int_from_json(e, 0, "an exponent") for e in t["exp"])
        if exp in terms:
            raise ValueError(f"exponent {list(exp)} is listed twice")
        terms[exp] = coeff_from_json(t["coeff"])
    return terms


def _fraction_from_json(obj) -> Fraction:
    try:
        return Fraction(obj)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"coefficient {obj!r} is not a finite rational") from None


def _coeff_from_json(obj) -> Scalar:
    if isinstance(obj, str):
        return _fraction_from_json(obj)
    if isinstance(obj, bool):  # JSON true/false; bool subclasses int
        raise ValueError(f"boolean is not a coefficient: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, float):
        # Python's json reads NaN and Infinity
        if not isfinite(obj):
            raise ValueError(f"coefficient {obj!r} is not finite")
        return obj
    if isinstance(obj, dict) and "params" in obj:
        nsyms = _int_from_json(obj["nsyms"], 1, "nsyms")
        return ParamPoly(nsyms, _terms_from_json(obj["params"], _fraction_from_json))
    raise ValueError(f"unrecognized coefficient encoding: {obj!r}")


def poly_to_json(f: SparsePoly) -> dict:
    terms = [
        {"exp": list(exp), "coeff": _coeff_to_json(f.terms[exp])}
        for exp in sorted(f.terms, key=canonical_key)
    ]
    return {"n": f.n, "d": f.d, "terms": terms}


def poly_from_json(obj: Mapping) -> SparsePoly:
    """Parse the wire format; input of the wrong structure raises ``ValueError``."""
    try:
        n = _int_from_json(obj["n"], 1, "n")
        d = _int_from_json(obj["d"], 1, "d")
        terms = _terms_from_json(obj["terms"], _coeff_from_json)
        kinds = {type(c) for c in terms.values()}
        if float in kinds and ParamPoly in kinds:
            raise ValueError("cannot mix float coefficients with parameters")
        if float in kinds:
            try:  # beside a float, every coefficient is taken as a float
                [float(c) for c in terms.values()]
            except OverflowError:
                raise ValueError("a rational coefficient beside a float overflows") from None
        return SparsePoly.make(n, d, terms)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial JSON ({type(exc).__name__}: {exc})") from None
