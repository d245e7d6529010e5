"""Free non-commutative polynomial algebra over the exact scalar ring.

Elements are canonical finite maps from words (tuples of generators) to
coefficients, ``int | Fraction | Scalar`` by the storage rule of
``ncworlds.scalar``: constructors store the ``int`` form, and arithmetic
keeps whatever type Python returns (``A/2 + A/2`` stores ``Fraction(1, 1)``),
which leaves ``==``, ``hash`` and the text output unaffected. No zero
coefficient is ever stored, so structural equality is equality in the free
algebra. Every derivative in this world is a commutator map ``f -> [f, n]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .scalar import Coeff, narrow, reciprocal, text
from .sparse import SparseSum, add_into, commutator  # commutator is re-exported


@dataclass(frozen=True, order=True)
class Generator:
    """A non-commuting symbol, identified by name, integer indices, formal
    partial-derivative indices, and a prime (dot-derivative) count."""

    name: str
    indices: tuple[int, ...] = ()
    derivs: tuple[int, ...] = ()
    primes: int = 0

    def __post_init__(self):
        # mixed formal partials commute: store the multi-index sorted
        object.__setattr__(self, "derivs", tuple(sorted(self.derivs)))

    def with_deriv(self, i: int) -> "Generator":
        return Generator(self.name, self.indices, self.derivs + (i,), self.primes)

    def text(self) -> str:
        s = self.name
        if self.indices or self.derivs:
            s += "_" + "".join(str(i) for i in self.indices)
            if self.derivs:
                s += "," + "".join(str(i) for i in self.derivs)
        return s + "'" * self.primes


Word = tuple[Generator, ...]

EMPTY_WORD: Word = ()


def word_text(w: Word) -> str:
    return "1" if not w else ".".join(g.text() for g in w)


def _word_key(w: Word):
    return (len(w), w)


class NcPoly(SparseSum):
    """Canonical element of the free algebra: finite map word -> coefficient."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "NcPoly":
        return NcPoly()

    @staticmethod
    def one() -> "NcPoly":
        return NcPoly({EMPTY_WORD: 1})

    @staticmethod
    def from_scalar(s: Coeff) -> "NcPoly":
        return NcPoly({EMPTY_WORD: narrow(s)})

    @staticmethod
    def from_word(w: Word, coeff: Coeff = 1) -> "NcPoly":
        return NcPoly({w: narrow(coeff)})

    @staticmethod
    def gen(name: str, *indices: int, derivs: tuple[int, ...] = (), primes: int = 0) -> "NcPoly":
        g = Generator(name, tuple(indices), derivs, primes)
        return NcPoly({(g,): 1})

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: "NcPoly | Coeff") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return self.scaled(other)
        terms: dict[Word, Coeff] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                add_into(terms, w1 + w2, c1 * c2)
        return self._like(terms)

    def __rmul__(self, other: Coeff) -> "NcPoly":
        return self.scaled(other)

    def scaled(self, s: Coeff) -> "NcPoly":
        s = narrow(s)
        return NcPoly({w: c * s for w, c in self._terms.items()})

    def __truediv__(self, s: Coeff) -> "NcPoly":
        return self.scaled(reciprocal(s))

    def __pow__(self, n: int) -> "NcPoly":
        out = NcPoly.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[Word, Coeff]]:
        """Terms in graded lexicographic word order."""
        return iter(sorted(self._terms.items(), key=lambda t: _word_key(t[0])))

    def coeff(self, w: Word) -> Coeff:
        return self._terms.get(w, 0)

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.terms():
            ctxt = text(c)
            if not w:
                parts.append(ctxt if _is_plain(ctxt) else f"({ctxt})")
            elif c == 1:
                parts.append(word_text(w))
            else:
                parts.append(f"({ctxt}) {word_text(w)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NcPoly({self.to_text()})"


def _is_plain(ctxt: str) -> bool:
    return " " not in ctxt and not ctxt.startswith("-")


def G(name: str, *indices: int, derivs: tuple[int, ...] = (), primes: int = 0) -> Generator:
    return Generator(name, tuple(indices), derivs, primes)
