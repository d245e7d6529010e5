"""Iterant algebra: diagonal vectors acted on by permutations.

An iterant element of order n is a finite sum of (diagonal vector,
permutation) pairs, multiplied by the group-ring rule: moving a permutation
past a diagonal permutes the diagonal's entries. Order 2 recovers the
two-component oscillation algebra (the shift eta, the polarity sigma, the
square root of minus one); in general the algebra is isomorphic to full
n x n matrix algebra, and any square matrix splits into permutation-scaled
diagonals with a 1/(n-1)! factor. Diagonal and matrix entries are
``int | Fraction | Scalar`` by the storage rule of ``ncworlds.scalar``.

``IterantElement(order, terms)`` checks every key and narrows every entry of
what it is given. Results the module builds itself (products, the n! terms
of ``matrix_decompose``) are canonical by construction and go through the
trusted ``IterantElement._make``, which checks nothing. The split scales the
n^2 matrix entries by 1/(n-1)! once and indexes into them, and the way back
(``to_matrix``) sums rational entries as ``int`` numerators over one common
denominator, so neither pays a ``Fraction`` operation per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Mapping, Sequence

from .scalar import Coeff, Scalar, narrow, over_common_denominator, reciprocal, text
from .sparse import SparseSum, add_into

# Permutations in one-line notation, zero-based: perm[i] is where row i looks.
Perm = tuple[int, ...]


class Diagonal(tuple):
    """Diagonal vector of coefficients, the coefficient of one permutation: ``+``
    and unary ``-`` act entrywise and an all-zero vector is false."""

    __slots__ = ()

    def __add__(self, other: "Diagonal") -> "Diagonal":
        return Diagonal(a + b for a, b in zip(self, other))

    def __neg__(self) -> "Diagonal":
        return Diagonal(-x for x in self)

    def __bool__(self) -> bool:
        return any(self)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p1: Perm, p2: Perm) -> Perm:
    """Composition matching matrix order: [p1][p2] = [compose(p1, p2)]."""
    return tuple(p2[p1[i]] for i in range(len(p1)))


def permute(v: Sequence[Coeff], p: Perm) -> tuple[Coeff, ...]:
    """The action written v^p: component i becomes v[p[i]]."""
    return tuple(v[p[i]] for i in range(len(p)))


class IterantElement(SparseSum):
    """Finite sum of (diagonal, permutation) terms of one fixed order."""

    __slots__ = ("order",)

    def __init__(self, order: int, terms: Mapping[Perm, Sequence[Coeff]] | None = None):
        if order < 1:
            raise ValueError("iterant order must be positive")
        self.order = order
        terms = terms or {}
        for p, v in terms.items():
            if len(v) != order:
                raise ValueError("length mismatch with iterant order")
            if sorted(p) != list(range(order)):
                raise ValueError(f"not a permutation of 0..{order - 1}: {p}")
        super().__init__({p: Diagonal(map(narrow, v)) for p, v in terms.items()})

    @staticmethod
    def _make(order: int, terms: dict) -> "IterantElement":
        """An element holding ``terms``, which must already be canonical:
        permutation keys of ``order`` mapped to nonzero ``Diagonal`` vectors
        of narrowed entries. The dict is kept, not copied or checked."""
        out = object.__new__(IterantElement)
        out._terms = terms
        out.order = order
        return out

    def _like(self, terms: dict) -> "IterantElement":
        return IterantElement._make(self.order, terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def diagonal(values: Sequence[Coeff]) -> "IterantElement":
        return IterantElement(len(values), {identity_perm(len(values)): values})

    @staticmethod
    def permutation(p: Sequence[int]) -> "IterantElement":
        p = tuple(p)
        return IterantElement(len(p), {p: (1,) * len(p)})

    @staticmethod
    def scalar(order: int, s: Coeff) -> "IterantElement":
        return IterantElement(order, {identity_perm(order): (s,) * order})

    @staticmethod
    def zero(order: int) -> "IterantElement":
        return IterantElement(order)

    @staticmethod
    def pair(a: Sequence[Coeff], b: Sequence[Coeff]) -> "IterantElement":
        """Order-2 element A + B.eta from two value pairs."""
        return IterantElement.diagonal(a) + IterantElement.diagonal(b) * eta()

    # -- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "IterantElement") -> None:
        if self.order != other.order:
            raise ValueError(f"iterant order mismatch: {self.order} vs {other.order}")

    def __mul__(self, other: "IterantElement | Coeff") -> "IterantElement":
        if not isinstance(other, IterantElement):
            s = narrow(other)
            return IterantElement(
                self.order, {p: tuple(x * s for x in v) for p, v in self._terms.items()}
            )
        self._check_compatible(other)
        terms: dict[Perm, Diagonal] = {}
        for p1, v1 in self._terms.items():
            for p2, v2 in other._terms.items():
                # (v1 [p1])(v2 [p2]) = (v1 * v2^p1) [p1 p2]
                prod = Diagonal(a * b for a, b in zip(v1, permute(v2, p1)))
                add_into(terms, compose(p1, p2), prod)
        return self._like(terms)

    def __rmul__(self, other: Coeff) -> "IterantElement":
        return self * other

    def __pow__(self, n: int) -> "IterantElement":
        out = IterantElement.scalar(self.order, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IterantElement) and self.order != other.order:
            return False
        return super().__eq__(other)

    __hash__ = SparseSum.__hash__

    def bar(self) -> "IterantElement":
        """Order-2 component swap on every diagonal (the overbar)."""
        if self.order != 2:
            raise ValueError("bar is the order-2 specialization")
        swap = (1, 0)
        return IterantElement(2, {p: permute(v, swap) for p, v in self._terms.items()})

    def conjugate(self) -> "IterantElement":
        """For A + B.eta of order 2: Abar - B.eta."""
        if self.order != 2:
            raise ValueError("conjugate is defined for order 2")
        ident, swap = (0, 1), (1, 0)
        a = IterantElement(2, {ident: self._terms[ident]}) if ident in self._terms else IterantElement.zero(2)
        b = IterantElement(2, {ident: self._terms[swap]}) if swap in self._terms else IterantElement.zero(2)
        return a.bar() - b * eta()

    def to_matrix(self) -> "Matrix":
        """The n x n matrix with cell (i, p[i]) the sum of entry i of every
        diagonal of permutation p. Rational entries are summed as ``int``
        numerators over their common denominator, with one ``Fraction`` per
        cell; a ``Scalar`` among them is added as it is."""
        n = self.order
        rows = [[0] * n for _ in range(n)]
        scaled = over_common_denominator(x for v in self._terms.values() for x in v)
        if scaled is None:
            for p, v in self._terms.items():
                for i in range(n):
                    rows[i][p[i]] += v[i]
            return Matrix(rows)
        nums, den = scaled
        nums = iter(nums)
        for p in self._terms:
            for i in range(n):
                rows[i][p[i]] += next(nums)
        return Matrix([[Fraction(c, den) for c in row] for row in rows])

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for p, v in self.terms():
            vec = "[" + ", ".join(map(text, v)) + "]"
            ptxt = "(" + " ".join(str(i + 1) for i in p) + ")"
            parts.append(f"{vec}{ptxt}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"IterantElement({self.to_text()})"


def eta(n: int = 2) -> IterantElement:
    """The cyclic time-shift permutation; for n = 2 the swap eta."""
    shift = tuple((i + 1) % n for i in range(n))
    return IterantElement.permutation(shift)


def epsilon_iterant() -> IterantElement:
    """The polarity [-1, 1], written epsilon or sigma."""
    return IterantElement.diagonal([-1, 1])


def imaginary_iterant() -> IterantElement:
    """The oscillation square root of minus one: [-1, 1].eta."""
    return epsilon_iterant() * eta()


class Matrix:
    """Dense square matrix of exact coefficients."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Coeff]]):
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.rows = tuple(tuple(map(narrow, r)) for r in rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        n = self.n
        return Matrix([
            [sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def to_text(self) -> str:
        return "; ".join(", ".join(map(text, r)) for r in self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.to_text()})"


def matrix_decompose(m: Matrix) -> IterantElement:
    """Split a square matrix into permutation-scaled diagonals.

    Sums diag(m[1, p1], ..., m[n, pn]) [p] over all n! permutations and
    scales by 1/(n-1)!; mapping back to a matrix reproduces the input
    exactly because each entry is hit by exactly (n-1)! permutations.
    The n^2 entries are scaled once, each diagonal indexes into them and an
    all-zero diagonal is dropped; the result is built trusted, unchecked.
    """
    n = m.n
    if n < 1:
        raise ValueError("empty matrix")
    factor = reciprocal(math.factorial(n - 1))
    scaled = [[narrow(x * factor) for x in row] for row in m.rows]
    terms: dict[Perm, Diagonal] = {}
    for p in permutations(range(n)):
        vec = Diagonal(map(list.__getitem__, scaled, p))
        if vec:
            terms[p] = vec
    return IterantElement._make(n, terms)


# -- quaternions ------------------------------------------------------------

@dataclass(frozen=True)
class QuaternionReport:
    """All pairwise basis products, plus the orientation of j.k."""

    products: tuple[tuple[str, str, str], ...]
    squares_ok: bool
    ijk_ok: bool
    jk_orientation: str

    @property
    def ok(self) -> bool:
        return self.squares_ok and self.ijk_ok


def quaternion_basis() -> dict[str, IterantElement]:
    root = Scalar.imag_unit()
    eps = epsilon_iterant()
    return {
        "1": IterantElement.scalar(2, 1),
        "i": eps * eta(),
        "j": eps.bar() * root,
        "k": eta() * root,
    }


def quaternion_table() -> QuaternionReport:
    basis = quaternion_basis()
    named: dict[IterantElement, str] = {}
    for name, el in basis.items():
        named[el] = name
        named[-el] = "-" + name

    products = []
    consistent = True
    for a in ("1", "i", "j", "k"):
        for b in ("1", "i", "j", "k"):
            prod = basis[a] * basis[b]
            label = named.get(prod)
            if label is None:
                label = "?"
                consistent = False
            # cross-check through the 2x2 matrix representation
            if prod.to_matrix() != (basis[a].to_matrix() * basis[b].to_matrix()):
                consistent = False
            products.append((a, b, label))

    minus_one = -IterantElement.scalar(2, 1)
    squares_ok = consistent and all(basis[x] * basis[x] == minus_one for x in "ijk")
    ijk_ok = basis["i"] * basis["j"] * basis["k"] == minus_one
    jk = named.get(basis["j"] * basis["k"], "?")
    return QuaternionReport(
        products=tuple(products),
        squares_ok=squares_ok,
        ijk_ok=ijk_ok,
        jk_orientation=f"j.k = {jk}",
    )


# -- Lorentz boosts ---------------------------------------------------------

def lorentz_boost(k: Fraction | int, t: Fraction | int, x: Fraction | int
                  ) -> tuple[Fraction, Fraction]:
    """Boost (t, x) by the scale map [a, b] -> [k a, b/k] on light-cone
    coordinates [t - x, t + x]; the product (t-x)(t+x) is preserved exactly."""
    k = Fraction(k)
    if k == 0:
        raise ValueError("boost parameter k must be nonzero")
    t, x = Fraction(t), Fraction(x)
    left = k * (t - x)
    right = (t + x) / k
    return (left + right) / 2, (right - left) / 2


def boost_parameter(v: Fraction) -> Fraction:
    """k = (1+v)/sqrt(1-v^2) for rational v with rational gamma."""
    v = Fraction(v)
    one_minus = 1 - v * v
    if one_minus <= 0:
        raise ValueError("speed must satisfy |v| < 1")
    num = math.isqrt(one_minus.numerator)
    den = math.isqrt(one_minus.denominator)
    if num * num != one_minus.numerator or den * den != one_minus.denominator:
        raise ValueError("1 - v^2 must be a perfect rational square for exact boosts")
    gamma = Fraction(den, num)
    return (1 + v) * gamma
