"""Exact scalar arithmetic for the algebra kernel.

A scalar is a finite sum of terms ``c i^k monomial``: an exact ``Fraction``
``c``, a power ``k`` of 0 or 1 of the imaginary unit and a Laurent monomial
in named commuting parameter symbols such as ``hbar``, ``m``, ``dt``, ``tau``.
It is held in the shared sparse-sum format (``ncworlds.sparse``) with basis
key ``(monomial, k)``, so ``i`` is one more basis key, as in the paper, where
it is built from the algebra itself, and not a second coefficient slot.
``terms()`` regroups the keys into ``(monomial, (re, im))`` pairs; no other
module sees the key encoding. Nothing here ever rounds: all arithmetic is
exact, and division is supported whenever the divisor is a Gaussian rational
times one monomial.

This module also holds the storage rule that every element type follows for
its coefficients (``Coeff``): a rational constant is stored as a plain
``int``, or as a ``Fraction`` when its denominator is not 1, and a value is
a ``Scalar`` only when it carries a parameter or ``i``. ``narrow`` applies
the rule, ``text`` prints a stored coefficient, ``reciprocal`` inverts
one and ``over_common_denominator`` puts rational ones over one
denominator, so that a long sum of them is a sum of plain ``int`` values.
Constructors store the ``int`` form. The kinds mix through Python's
operators, and arithmetic keeps whatever type they return without
narrowing again: ``A/2 + A/2`` stores ``Fraction(1, 1)`` and
``hbar * hbar^-1`` the ``Scalar`` 1. ``==``, ``hash`` and the text output
are unaffected, since each of these equals and hashes like the number 1
and prints as ``1``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .sparse import SparseSum, add_into

RatLike = Union[int, Fraction]

# A parameter monomial: sorted tuple of (name, exponent), exponents nonzero.
Monomial = tuple[tuple[str, int], ...]

_EMPTY: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[str, int] = dict(a)
    for name, e in b:
        new = exps.get(name, 0) + e
        if new:
            exps[name] = new
        else:
            del exps[name]
    return tuple(sorted(exps.items()))


def _mono_inv(a: Monomial) -> Monomial:
    return tuple((name, -e) for name, e in a)


def _mono_text(a: Monomial) -> str:
    parts = []
    for name, e in a:
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


class Scalar(SparseSum):
    """Element of the coefficient ring: Gaussian rationals extended by
    central parameter symbols with integer exponents.

    The basis key ``(monomial, k)`` stands for ``i^k monomial`` with ``k`` 0
    or 1, and its coefficient is a nonzero ``Fraction``; a real scalar has
    no ``k = 1`` key. Exponent zero never appears in a monomial, so ``==``
    is mathematical equality.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({(_EMPTY, 0): Fraction(1)})

    @staticmethod
    def rational(p: RatLike, q: RatLike = 1) -> "Scalar":
        return Scalar({(_EMPTY, 0): _fraction(p) / _fraction(q)})

    @staticmethod
    def gaussian(re: RatLike, im: RatLike) -> "Scalar":
        return Scalar({(_EMPTY, 0): _fraction(re), (_EMPTY, 1): _fraction(im)})

    @staticmethod
    def imag_unit() -> "Scalar":
        return Scalar({(_EMPTY, 1): Fraction(1)})

    @staticmethod
    def param(name: str, exp: int = 1, coeff: RatLike = 1) -> "Scalar":
        if exp == 0:
            return Scalar.rational(coeff)
        return Scalar({(((name, exp),), 0): _fraction(coeff)})

    @staticmethod
    def coerce(value: "Scalar | RatLike") -> "Scalar":
        return value if isinstance(value, Scalar) else Scalar.rational(value)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar | RatLike") -> "Scalar":
        if not isinstance(other, _EXACT):
            return NotImplemented
        return SparseSum.__add__(self, Scalar.coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "Scalar | RatLike") -> "Scalar":
        if not isinstance(other, _EXACT):
            return NotImplemented
        return SparseSum.__sub__(self, Scalar.coerce(other))

    def __rsub__(self, other: "Scalar | RatLike") -> "Scalar":
        if not isinstance(other, _EXACT):
            return NotImplemented
        return SparseSum.__sub__(Scalar.coerce(other), self)

    def __mul__(self, other: "Scalar | RatLike") -> "Scalar":
        if not isinstance(other, _EXACT):
            return NotImplemented
        other = Scalar.coerce(other)
        terms: dict[tuple[Monomial, int], Fraction] = {}
        for (m1, k1), a in self._terms.items():
            for (m2, k2), b in other._terms.items():
                k = k1 + k2
                if k == 2:   # i * i = -1
                    add_into(terms, (_mono_mul(m1, m2), 0), -(a * b))
                else:
                    add_into(terms, (_mono_mul(m1, m2), k), a * b)
        return self._like(terms)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar | RatLike") -> "Scalar":
        return self * Scalar.coerce(other).inverse()

    def inverse(self) -> "Scalar":
        """Exact inverse; only a Gaussian rational times one monomial is
        invertible here."""
        pairs = self.terms()
        if len(pairs) != 1:
            raise ZeroDivisionError(
                "scalar division requires a nonzero single-term divisor"
            )
        (mono, (a, b)), = pairs
        norm, inv = a * a + b * b, _mono_inv(mono)
        return Scalar({(inv, 0): a / norm, (inv, 1): -b / norm})

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        return SparseSum.__eq__(self, other)

    def __hash__(self) -> int:
        # a rational constant hashes as the number it equals
        value = narrow(self)
        return SparseSum.__hash__(self) if value is self else hash(value)

    def terms(self) -> list[tuple[Monomial, tuple[Fraction, Fraction]]]:
        """``(monomial, (re, im))`` pairs sorted by monomial."""
        pairs: dict[Monomial, list[Fraction]] = {}
        for (mono, k), c in self._terms.items():
            pairs.setdefault(mono, [Fraction(0), Fraction(0)])[k] = c
        return sorted((mono, tuple(pair)) for mono, pair in pairs.items())

    def substitute_square(self, name: str, replacement: "Scalar") -> "Scalar":
        """Replace param^(2k) by replacement^k; every exponent must be even."""
        def parts():
            for (mono, k), c in self._terms.items():
                rest = dict(mono)
                power = rest.pop(name, 0)
                if power % 2:
                    raise ValueError(f"odd exponent on {name!r}")
                yield self._like({(tuple(rest.items()), k): c}) * replacement ** (power // 2)
        return Scalar.total(parts())

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, (re, im) in self.terms():
            parts.append(_term_text(mono, re, im))
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self) -> str:
        return f"Scalar({self.to_text()})"


def _gaussian_text(re: Fraction, im: Fraction) -> str:
    if not im:
        return text(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{text(im)}i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    itxt = "i" if mag == 1 else f"{text(mag)}i"
    return f"({text(re)} {sign} {itxt})"


def _term_text(mono: Monomial, re: Fraction, im: Fraction) -> str:
    gtxt = _gaussian_text(re, im)
    if not mono:
        return gtxt
    mtxt = _mono_text(mono)
    if (re, im) == (1, 0):
        return mtxt
    if (re, im) == (-1, 0):
        return "-" + mtxt
    return f"{gtxt} {mtxt}"


# The operand types that arithmetic accepts; anything else is NotImplemented.
_EXACT = (Scalar, int, Fraction)

# A stored coefficient of any element type, by the rule in the module docstring.
Coeff = Union[RatLike, Scalar]


def _fraction(value: RatLike) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def narrow(value: Coeff) -> Coeff:
    """A rational constant as a plain ``int``, or a ``Fraction`` when its
    denominator is not 1; any other scalar unchanged."""
    if isinstance(value, Scalar):
        terms = value._terms
        if not terms:
            return 0
        if len(terms) > 1 or (_EMPTY, 0) not in terms:
            return value
        value = terms[_EMPTY, 0]
    elif isinstance(value, int):
        return int(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"not an exact scalar: {value!r}")
    return value.numerator if value.denominator == 1 else value


def text(value: Coeff) -> str:
    """The canonical text of a stored coefficient, however many digits it
    has."""
    if isinstance(value, Scalar):
        return value.to_text()
    try:
        return str(value)
    except ValueError:  # past CPython's limit on the digits of one conversion
        num, den = value.as_integer_ratio()
        return _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"


def _digits(n: int) -> str:
    """``str(n)`` built from halves that each stay under CPython's limit on
    the digits of one int-to-string conversion, which is left as it is."""
    if n < 0:
        return "-" + _digits(-n)
    try:
        return str(n)
    except ValueError:
        low = n.bit_length() * 3 // 20       # about half of the digits
        high, rest = divmod(n, 10 ** low)
        return _digits(high) + _digits(rest).rjust(low, "0")


def reciprocal(value: Coeff) -> Coeff:
    """The exact inverse of a coefficient, stored by the same rule; a plain
    number is inverted as a ``Fraction``, since ``1 / n`` would be a float."""
    return narrow(value.inverse() if isinstance(value, Scalar) else 1 / _fraction(value))


def over_common_denominator(values: Iterable[Coeff]) -> tuple[list[int], int] | None:
    """Rational coefficients as ``int`` numerators over their least common
    denominator, in order, or ``None`` when a ``Scalar`` is among them.

    Sums of the numerators are exact ``int`` sums, with no ``gcd`` per step:
    ``Fraction(sum(nums), den)`` is the sum of ``values``.
    """
    ratios = []
    for x in values:
        if isinstance(x, Scalar):
            return None
        ratios.append(x.as_integer_ratio())
    den = math.lcm(*{d for _, d in ratios})
    return [num * (den // d) for num, d in ratios], den
