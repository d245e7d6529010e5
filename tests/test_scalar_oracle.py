"""Scalar arithmetic checked against sympy, which shares no code with it.

Random Gaussian-Laurent scalars over hbar, m and tau are built twice: as a
``Scalar`` through its public constructors, and as a sympy expression with
``sympy.I`` straight from the drawn data. Every result is read back through
``Scalar.terms()`` and compared with ``sympy.expand`` of the same operation.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncworlds.scalar import Scalar

sympy = pytest.importorskip("sympy")

NAMES = ("hbar", "m", "tau")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def scalars(min_size=0, max_size=4, names=NAMES, tau=st.integers(-2, 2)):
    """Drawn data of a scalar: a list of (re, im, {name: exponent}) terms."""
    mono = st.fixed_dictionaries(
        {name: tau if name == "tau" else st.integers(-2, 2) for name in names})
    return st.lists(st.tuples(fractions, fractions, mono),
                    min_size=min_size, max_size=max_size)


def build(data) -> Scalar:
    out = Scalar.zero()
    for re, im, mono in data:
        term = Scalar.gaussian(re, im)
        for name, e in mono.items():
            term = term * Scalar.param(name, e)
        out = out + term
    return out


def _rational(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def expected(data):
    """The sum of the drawn terms, each one kept as a product."""
    return sympy.Add(*(
        (_rational(re) + sympy.I * _rational(im))
        * sympy.Mul(*(SYMBOLS[name] ** e for name, e in mono.items()))
        for re, im, mono in data))


def to_sympy(s: Scalar):
    return sympy.Add(*(
        (_rational(re) + sympy.I * _rational(im))
        * sympy.Mul(*(SYMBOLS[name] ** e for name, e in mono))
        for mono, (re, im) in s.terms()))


def same(s: Scalar, want) -> bool:
    return sympy.expand(to_sympy(s) - want) == 0


@settings(max_examples=80, deadline=None)
@given(a=scalars(), b=scalars())
def test_ring_operations_match_sympy(a, b):
    x, y = build(a), build(b)
    sx, sy = expected(a), expected(b)
    assert same(x, sx) and same(y, sy)
    assert same(x + y, sx + sy)
    assert same(x - y, sx - sy)
    assert same(-x, -sx)
    assert same(x * y, sx * sy)
    assert same(2 - x * 3, 2 - sx * 3)
    assert (x == y) == (sympy.expand(sx - sy) == 0)
    assert x.is_zero() == (sympy.expand(sx) == 0)


@settings(max_examples=60, deadline=None)
@given(z=scalars(min_size=1, max_size=1), a=scalars())
def test_inverse_of_a_gaussian_monomial_matches_sympy(z, a):
    (re, im, _), = z
    assume(re or im)
    d, sd = build(z), expected(z)
    assert same(d.inverse(), sympy.expand(1 / sd))
    assert same(build(a) / d, sympy.expand(expected(a) / sd))


def _check_substitute_square(a, r):
    tau = SYMBOLS["tau"]
    got = build(a).substitute_square("tau", build(r))
    # sqrt(r) ** (2k) is r ** k for every integer k
    assert same(got, sympy.expand(expected(a).subs(tau, sympy.sqrt(expected(r)))))


@settings(max_examples=40, deadline=None)
@given(a=scalars(tau=st.sampled_from((-2, 0, 2))),
       r=scalars(min_size=1, max_size=1, names=("hbar", "m")))
def test_substitute_square_by_a_gaussian_monomial_matches_sympy(a, r):
    (re, im, _), = r
    assume(re or im)
    _check_substitute_square(a, r)


@settings(max_examples=40, deadline=None)
@given(a=scalars(tau=st.sampled_from((0, 2))),
       r=scalars(max_size=3, names=("hbar", "m")))
def test_substitute_square_by_a_sum_matches_sympy(a, r):
    _check_substitute_square(a, r)
