"""The sparse-sum format shared by every element type.

Each element of the kernel's algebras is a finite formal sum over a basis:
``(monomial, i-power)`` pairs for ``Scalar``, words for ``NcPoly``,
commutative monomials for ``CPoly``, shift powers for ``SkewElement`` and
permutations for ``IterantElement``. All of them store
the sum as a dict ``_terms`` from basis key to coefficient that holds no
zero coefficient, where a coefficient is zero when ``bool(value)`` is false.
A coefficient type only needs ``+``, unary ``-`` and ``bool``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, TypeVar

S = TypeVar("S", bound="SparseSum")


def add_into(terms: dict, key, value) -> None:
    """Add ``value`` into ``terms[key]``, dropping the key when the sum is zero."""
    prev = terms.get(key)
    if prev is not None:
        value = prev + value
    if value:
        terms[key] = value
    elif prev is not None:
        del terms[key]


def commutator(a, b):
    """[a, b] = ab - ba in any of the element types."""
    return a * b - b * a


class SparseSum:
    """A finite sum held as a canonical ``_terms`` map; subclasses add the
    product and the text."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        self._terms = {k: v for k, v in terms.items() if v} if terms else {}

    def _like(self: S, terms: dict) -> S:
        """An element of this one's space holding ``terms``, which must already
        be canonical; the dict is kept, not copied."""
        out = object.__new__(type(self))
        out._terms = terms
        return out

    def _check_compatible(self, other: "SparseSum") -> None:
        """Raise when ``other`` lives in a different space; the default space
        is the whole type."""

    @classmethod
    def total(cls: type[S], elements: Iterable[S]) -> S:
        """The sum of ``elements``, accumulated in one dict."""
        out = cls()
        for e in elements:
            for key, value in e._terms.items():
                add_into(out._terms, key, value)
        return out

    def __add__(self: S, other: S) -> S:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self._terms)
        for key, value in other._terms.items():
            add_into(terms, key, value)
        return self._like(terms)

    def __sub__(self: S, other: S) -> S:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self._terms)
        for key, value in other._terms.items():
            add_into(terms, key, -value)
        return self._like(terms)

    def __neg__(self: S) -> S:
        return self._like({k: -v for k, v in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def terms(self) -> list:
        """Terms sorted by basis key."""
        return sorted(self._terms.items())
