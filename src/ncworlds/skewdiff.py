"""Shift-operator calculus on finite time series.

A sequence holds exact values on an integer index window, stored by the
coefficient rule of ``ncworlds.scalar``: a rational constant as a plain
``int`` or ``Fraction``, so integer series run on machine integers, and
only a value with a parameter or the imaginary unit as a ``Scalar``. The
skew algebra adjoins a shift J with f.J = J.f1, where f1 is f advanced one
tick; every application of J shrinks the valid window by one on the right.
Elements are finite sums J^k . sequence, multiplied by the skew rule, and
the adjusted derivative nabla(f) = J(f1 - f)/dt satisfies the Leibniz rule
exactly while the raw difference operator does not.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence as Seq

from .scalar import Coeff, Scalar, narrow, reciprocal, text
from .sparse import SparseSum, add_into, commutator


class WindowError(RuntimeError):
    """An operation ran out of valid window."""


class Sequence:
    """Finite run of exact values; values[t - start] is the value at time t.

    ``values`` and ``at`` give ``int | Fraction | Scalar``: the constructor
    applies ``scalar.narrow``, and arithmetic keeps whatever Python's
    operators return."""

    __slots__ = ("start", "values")

    def __init__(self, values: Seq[Coeff], start: int = 0):
        self.values = tuple(map(narrow, values))
        self.start = start
        if not self.values:
            raise WindowError("window exhausted: empty sequence")

    @classmethod
    def _of(cls, values: tuple, start: int) -> "Sequence":
        """A sequence holding ``values`` as given; they must be non-empty."""
        out = object.__new__(cls)
        out.values = values
        out.start = start
        return out

    @property
    def end(self) -> int:
        """Last valid index, inclusive."""
        return self.start + len(self.values) - 1

    def at(self, t: int) -> Coeff:
        if not self.start <= t <= self.end:
            raise WindowError(f"index {t} outside window [{self.start}, {self.end}]")
        return self.values[t - self.start]

    def shift(self, b: int = 1) -> "Sequence":
        """Advance by b ticks: value at t becomes the value formerly at t+b.

        The window keeps its left edge and loses b points on the right."""
        if b == 0:
            return self
        if b < 0 or b >= len(self.values):
            raise WindowError(f"window exhausted shifting by {b}")
        return Sequence._of(self.values[b:], self.start)

    def _zip(self, other: "Sequence", op: Callable[[Coeff, Coeff], Coeff]) -> "Sequence":
        """``op`` pointwise on the common window."""
        lo = max(self.start, other.start)
        values = tuple(map(op, self.values[lo - self.start:], other.values[lo - other.start:]))
        if not values:
            raise WindowError("window exhausted: no overlap")
        return Sequence._of(values, lo)

    def __add__(self, other: "Sequence") -> "Sequence":
        return self._zip(other, operator.add)

    def __sub__(self, other: "Sequence") -> "Sequence":
        return self._zip(other, operator.sub)

    def __mul__(self, other: "Sequence | Coeff") -> "Sequence":
        if isinstance(other, Sequence):
            return self._zip(other, operator.mul)
        s = narrow(other)
        return Sequence._of(tuple([v * s for v in self.values]), self.start)

    def __rmul__(self, other: Coeff) -> "Sequence":
        return self * other

    def __neg__(self) -> "Sequence":
        return Sequence._of(tuple(map(operator.neg, self.values)), self.start)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.start == other.start and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.start, self.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def is_constant(self) -> bool:
        return all(v == self.values[0] for v in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def to_text(self) -> str:
        body = ", ".join(map(text, self.values))
        return f"({body})@{self.start}"

    def __repr__(self) -> str:
        return f"Sequence{self.to_text()}"


def delta(f: Sequence) -> Sequence:
    """Classical forward difference f(t+1) - f(t)."""
    return f.shift(1) - f


def constant(value: Coeff, start: int, length: int) -> Sequence:
    return Sequence([value] * length, start)


class SkewElement(SparseSum):
    """Finite sum of J^k . sequence terms, k >= 0.

    A term whose sequence is zero is still stored, because its window bounds
    every later sum; a ``Sequence`` is never empty, so never false.

    Unhashable: ``==`` compares on the common window, so it is not even
    transitive (``J (1, 2)@0`` equals both ``J (1, 2, 3)@0`` and
    ``J (1, 2, 4)@0``), and no hash can agree with it."""

    __slots__ = ()

    def __init__(self, terms: Mapping[int, Sequence] | None = None):
        if terms and any(k < 0 for k in terms):
            raise ValueError("shift powers must be non-negative")
        super().__init__(terms)

    @staticmethod
    def of(f: Sequence) -> "SkewElement":
        return SkewElement({0: f})

    @staticmethod
    def shift_term(power: int, f: Sequence) -> "SkewElement":
        return SkewElement({power: f})

    @staticmethod
    def zero() -> "SkewElement":
        return SkewElement()

    def __mul__(self, other: "SkewElement | Coeff") -> "SkewElement":
        if not isinstance(other, SkewElement):
            return self._like({k: f * other for k, f in self._terms.items()})
        terms: dict[int, Sequence] = {}
        for a, f in self._terms.items():
            for b, g in other._terms.items():
                # (J^a f)(J^b g) = J^(a+b) (f advanced b ticks) g
                add_into(terms, a + b, f.shift(b) * g)
        return self._like(terms)

    def __rmul__(self, other: Coeff) -> "SkewElement":
        return self * other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkewElement):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self._terms.values())

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, f in self.terms():
            if f.is_zero():
                continue
            head = "" if k == 0 else (f"J^{k} " if k > 1 else "J ")
            parts.append(head + f.to_text())
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SkewElement({self.to_text()})"


def as_skew(f: "Sequence | SkewElement") -> SkewElement:
    return f if isinstance(f, SkewElement) else SkewElement.of(f)


def nabla(f: "Sequence | SkewElement", dt: Coeff = 1) -> SkewElement:
    """The adjusted derivative [f, J]/dt = J (f1 - f)/dt."""
    f = as_skew(f)
    inv_dt = reciprocal(dt)
    return SkewElement({k + 1: delta(seq) * inv_dt for k, seq in f.terms()})


def position_velocity_commutator(x: Sequence, dt: Coeff = 1) -> SkewElement:
    """[x, nabla x]; pointwise equal to J (delta x)^2 / dt."""
    xs = as_skew(x)
    return commutator(xs, nabla(x, dt))


# -- three-component model --------------------------------------------------

def epsilon(i: int, j: int, k: int) -> int:
    """Sign of the permutation (i, j, k) of (1, 2, 3); zero on repeats."""
    if {i, j, k} != {1, 2, 3}:
        return 0
    sign = 1
    seq = [i, j, k]
    for a in range(3):
        for b in range(a + 1, 3):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def epsilon_identity_check() -> list[tuple[tuple[int, int, int, int], int, int]]:
    """Brute force over all 81 index tuples: (a, b, c, d, lhs, rhs) rows
    for sum_i eps(a,b,i) eps(c,d,i) = -delta(a,d) delta(b,c) + delta(a,c) delta(b,d)."""
    rows = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                for d in (1, 2, 3):
                    lhs = sum(epsilon(a, b, i) * epsilon(c, d, i) for i in (1, 2, 3))
                    rhs = -(a == d) * (b == c) + (a == c) * (b == d)
                    rows.append(((a, b, c, d), lhs, rhs))
    return rows


@dataclass(frozen=True)
class Vec3:
    """Triple of skew elements; componentwise windows."""

    c1: SkewElement
    c2: SkewElement
    c3: SkewElement

    @staticmethod
    def of(seqs: Seq["Sequence | SkewElement"]) -> "Vec3":
        a, b, c = seqs
        return Vec3(as_skew(a), as_skew(b), as_skew(c))

    def __iter__(self) -> Iterator[SkewElement]:
        return iter((self.c1, self.c2, self.c3))

    def comp(self, i: int) -> SkewElement:
        return tuple(self)[i - 1]

    def map(self, fn: Callable[[SkewElement], SkewElement]) -> "Vec3":
        return Vec3(*map(fn, self))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(*(a + b for a, b in zip(self, other)))

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(*(a - b for a, b in zip(self, other)))

    def __neg__(self) -> "Vec3":
        return self.map(lambda f: -f)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self)


def _epsilon_sum(term: Callable[[int, int], SkewElement]) -> Vec3:
    """The vector with components sum_ij eps(i,j,k) term(i, j), k = 1, 2, 3."""
    return Vec3(*(SkewElement.total(term(i, j) * epsilon(i, j, k)
                                    for i in (1, 2, 3) for j in (1, 2, 3)
                                    if epsilon(i, j, k))
                  for k in (1, 2, 3)))


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Non-commutative cross product, multiplication order as written:
    (a x b)_k = sum_ij eps(i,j,k) a_i b_j."""
    return _epsilon_sum(lambda i, j: a.comp(i) * b.comp(j))


def dot(a: Vec3, b: Vec3) -> SkewElement:
    return SkewElement.total(x * y for x, y in zip(a, b))


def partial_spatial(f: SkewElement, xdot: Vec3, i: int) -> SkewElement:
    """The spatial derivation [f, xdot_i]."""
    return commutator(f, xdot.comp(i))


def partial_t(f: SkewElement, xdot: Vec3, dt: Coeff = 1) -> SkewElement:
    """Temporal derivative: nabla f - sum_i xdot_i [f, xdot_i].

    Unlike the commutator derivations this one is not Leibniz; it obeys the
    modified product rule tested in modified_leibniz_residual."""
    out = nabla(f, dt)
    for i in (1, 2, 3):
        out = out - xdot.comp(i) * partial_spatial(f, xdot, i)
    return out


def partial_t_vec(f: Vec3, xdot: Vec3, dt: Coeff = 1) -> Vec3:
    return f.map(lambda comp: partial_t(comp, xdot, dt))


def divergence(f: Vec3, xdot: Vec3) -> SkewElement:
    return SkewElement.total(partial_spatial(f.comp(i), xdot, i) for i in (1, 2, 3))


def curl(f: Vec3, xdot: Vec3) -> Vec3:
    return _epsilon_sum(lambda i, j: partial_spatial(f.comp(j), xdot, i))


def laplacian(f: SkewElement, xdot: Vec3) -> SkewElement:
    return SkewElement.total(partial_spatial(partial_spatial(f, xdot, i), xdot, i)
                             for i in (1, 2, 3))


def em_fields(x: Vec3, dt: Coeff = 1) -> tuple[Vec3, Vec3, Vec3]:
    """Velocity, electric and magnetic parts of a coordinate triple:
    xdot = nabla x, e = partial_t(xdot), b = xdot x xdot."""
    xdot = x.map(lambda f: nabla(f, dt))
    b = cross(xdot, xdot)
    e = partial_t_vec(xdot, xdot, dt)
    return xdot, e, b


@dataclass(frozen=True)
class EmResiduals:
    lorentz_force: Vec3       # xddot - e - xdot x b
    div_b: SkewElement        # div b
    faraday: Vec3             # partial_t b + curl e - b x b
    ampere: Vec3              # partial_t e - curl b - (partial_t^2 - lap) xdot

    def all_zero(self) -> bool:
        return (self.lorentz_force.is_zero() and self.div_b.is_zero()
                and self.faraday.is_zero() and self.ampere.is_zero())


def em_theorem_residuals(x: Vec3, dt: Coeff = 1) -> tuple[EmResiduals, Vec3]:
    """Exact residuals of the four field equations; returns (residuals, b)."""
    xdot, e, b = em_fields(x, dt)
    xddot = xdot.map(lambda f: nabla(f, dt))

    lorentz = xddot - e - cross(xdot, b)
    div_b = divergence(b, xdot)
    faraday = partial_t_vec(b, xdot, dt) + curl(e, xdot) - cross(b, b)
    # dt^2 xdot is dt(e) since e = dt(xdot); shared between both sides
    dt_e = partial_t_vec(e, xdot, dt)
    wave = dt_e - xdot.map(lambda f: laplacian(f, xdot))
    ampere = dt_e - curl(b, xdot) - wave
    return EmResiduals(lorentz, div_b, faraday, ampere), b


def modified_leibniz_residual(f: SkewElement, g: SkewElement, x: Vec3) -> SkewElement:
    """partial_t(fg) - partial_t(f) g - f partial_t(g) - sum_i d_i(f) d_i(g),
    with the derivatives built from the velocity of the coordinate triple x."""
    xdot = x.map(nabla)
    out = partial_t(f * g, xdot) - partial_t(f, xdot) * g - f * partial_t(g, xdot)
    for i in (1, 2, 3):
        out = out - partial_spatial(f, xdot, i) * partial_spatial(g, xdot, i)
    return out


# -- scalar bookkeeping for the one-dimensional walk -------------------------

@dataclass(frozen=True)
class WickReport:
    """Scalar outcome of the clock-rotation substitution dt -> i dt."""

    velocity_commutator: Scalar   # [q, p/m] before rotation: hbar/m
    heisenberg: Scalar            # [p, q] after rotation: i hbar

    def holds(self) -> bool:
        hbar = Scalar.param("hbar")
        m = Scalar.param("m")
        return (self.velocity_commutator == hbar / m
                and self.heisenberg == Scalar.imag_unit() * hbar)


def wick_heisenberg() -> WickReport:
    hbar = Scalar.param("hbar")
    m = Scalar.param("m")
    i = Scalar.imag_unit()
    # the walk gives [q, p/m] = (dx)^2/dt, pinned to hbar/m at the smallest scale
    velocity_commutator = hbar / m
    # rotate the tick: dt -> i dt, then [q, p/m] = (dx)^2/(i dt) = -i hbar/m
    rotated = velocity_commutator / i
    heisenberg = (-rotated) * m
    return WickReport(velocity_commutator=velocity_commutator, heisenberg=heisenberg)
