import operator
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ncworlds.ncpoly import G, NcPoly, commutator
from ncworlds.quotient import FLAT, P, Q, reduce_poly
from ncworlds.scalar import Scalar

A, B, C = NcPoly.gen("A"), NcPoly.gen("B"), NcPoly.gen("C")
POOL = (G("A"), G("B"), G("C"), G("N", 1))


def random_poly(rng, max_degree=3, max_terms=4):
    out = NcPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.choice(POOL) for _ in range(rng.randint(0, max_degree)))
        c = rng.randint(-3, 3)
        if c:
            out = out + NcPoly.from_word(w, c)
    return out


def test_additive_inverse_and_identity():
    assert (A + A.scaled(-1)).is_zero()
    assert A.scaled(1) == A
    assert A * NcPoly.one() == A
    assert NcPoly.one() * A == A


def test_coefficient_merge_oracle():
    # oracle: tally words with plain dict arithmetic
    ab, ba = (G("A"), G("B")), (G("B"), G("A"))
    tally = Counter()
    for w, c in [(ab, 1), (ba, 1), (ab, 1), (ba, -1)]:
        tally[w] += c
    got = (A * B + B * A) + (A * B - B * A)
    assert dict(got.terms()) == {
        w: Scalar.rational(c) for w, c in tally.items() if c
    }
    assert got == (A * B).scaled(2)


def test_noncommutative_expansion():
    lhs = (A + B) * (A - B)
    assert lhs == A * A - A * B + B * A - B * B
    assert lhs != A * A - B * B


def test_associativity_of_concrete_products():
    theta, h = NcPoly.gen("Theta"), NcPoly.gen("H")
    assert (theta * h) * h == theta * (h * h)


def test_self_commutator_vanishes():
    assert commutator(A, A).is_zero()
    p = A * B - C.scaled(3)
    assert commutator(p, p).is_zero()


def test_nested_commutator_display():
    theta, h = NcPoly.gen("Theta"), NcPoly.gen("H")
    got = commutator(commutator(theta, h), h)
    want = theta * h * h + h * h * theta - (h * theta * h).scaled(2)
    assert got == want


def test_jacobi_identity_random():
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (random_poly(rng, 2, 3) for _ in range(3))
        total = (commutator(commutator(a, b), c)
                 + commutator(commutator(c, a), b)
                 + commutator(commutator(b, c), a))
        assert total.is_zero()


def test_derivation_is_leibniz():
    rng = random.Random(9)
    for _ in range(25):
        n, f, g = (random_poly(rng, 3, 3) for _ in range(3))
        assert (commutator(f * g, n) - commutator(f, n) * g
                - f * commutator(g, n)).is_zero()
        assert commutator(NcPoly.one(), n).is_zero()


def test_derivation_of_generator_is_commutator():
    j = NcPoly.gen("J")
    f = A * B + C
    assert commutator(f, j) == f * j - j * f


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(40):
        a, b, c = (random_poly(rng, 4, 5) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_scalar_coefficients_flow_through():
    i = Scalar.imag_unit()
    p = A.scaled(i) * B.scaled(i)
    assert p == (A * B).scaled(-1)
    assert (A.scaled(Fraction(1, 2)) + A.scaled(Fraction(1, 2))) == A


def test_zero_polynomial_is_empty():
    z = NcPoly.zero()
    assert z.is_zero() and not z
    assert z + A == A
    assert (z * A).is_zero()
    assert z.to_text() == "0"


def test_canonical_text_form():
    theta, h = NcPoly.gen("Theta"), NcPoly.gen("H")
    p = commutator(commutator(theta, h), h)
    assert p.to_text() == "H.H.Theta + (-2) H.Theta.H + Theta.H.H"
    assert NcPoly.one().to_text() == "1"
    assert (NcPoly.one().scaled(-1)).to_text() == "(-1)"
    q = NcPoly.gen("Q", 1)
    assert (q * q - NcPoly.one().scaled(2)).to_text() == "(-2) + Q_1.Q_1"


def test_generator_identity_and_order():
    assert G("Q", 1) == G("Q", 1)
    assert G("Q", 1) != G("Q", 2)
    assert G("H") < G("H", primes=1)
    assert G("P", 1) < G("P", 2) < G("Q", 1)
    assert G("g", 1, 1) < G("g", 1, 1, derivs=(2,))
    assert G("g", derivs=(2, 1)) == G("g", derivs=(1, 2))


def test_generator_text():
    assert G("Q", 1).text() == "Q_1"
    assert G("Theta", 1, 2).text() == "Theta_12"
    assert G("H", primes=2).text() == "H''"
    assert G("theta", derivs=(1,)).text() == "theta_,1"
    assert G("g", 1, 1, derivs=(2,)).text() == "g_11,2"


# -- mixed coefficient storage: plain rationals and Scalars -----------------------

def params_over(cs):
    """``c hbar^e`` or ``c tau^e`` with ``c`` drawn from ``cs``."""
    return st.builds(lambda c, name, e: Scalar.param(name, e, c),
                     cs, st.sampled_from(("hbar", "tau")), st.integers(-2, 2))


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
params = params_over(fractions)
coeffs = st.one_of(st.integers(-4, 4), fractions, fractions.map(Scalar.rational),
                   params, st.builds(operator.add, params, st.integers(-2, 2)))
nonzero_ints = st.integers(1, 4) | st.integers(-4, -1)
nonzero_fractions = st.builds(Fraction, nonzero_ints, st.integers(1, 4))
divisors = st.one_of(nonzero_ints, nonzero_fractions, params_over(nonzero_fractions),
                     nonzero_fractions.map(lambda c: Scalar.imag_unit() * c))
words = st.lists(st.sampled_from(POOL), max_size=2).map(tuple)
term_lists = st.lists(st.tuples(words, coeffs), max_size=3)


def poly_of(terms):
    return NcPoly.total(NcPoly.from_word(w, c) for w, c in terms)


def ref_of(terms):
    """Word -> Scalar map, summed term by term with ``Scalar.coerce``."""
    out = {}
    for w, c in terms:
        out[w] = out.get(w, Scalar.zero()) + Scalar.coerce(c)
    return {w: c for w, c in out.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, Scalar.zero()) + c * sign
    return {w: c for w, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, Scalar.zero()) + c1 * c2
    return {w: c for w, c in out.items() if c}


def ref_scaled(a, k):
    return {w: c * k for w, c in a.items() if c * k}


def matches(poly, ref):
    """``poly`` holds the Scalars of ``ref``, prints like them and stores
    every coefficient as an int, a Fraction or a Scalar."""
    assert dict(poly.terms()) == ref
    assert all(type(c) in (int, Fraction, Scalar) for _, c in poly.terms())
    assert poly.to_text() == NcPoly(ref).to_text()
    return True


def test_constructors_store_rational_constants_as_plain_numbers():
    hbar = Scalar.param("hbar")
    cases = [(Scalar.rational(4, 2), int), (Fraction(6, 3), int), (Fraction(1, 2), Fraction),
             (Scalar.rational(1, 2), Fraction), (3, int), (hbar, Scalar),
             (Scalar.imag_unit(), Scalar)]
    for value, kind in cases:
        for poly in (NcPoly.from_scalar(value), NcPoly.from_word((G("A"),), value)):
            (_, c), = poly.terms()
            assert type(c) is kind and c == value
    assert [type(c) for _, c in (A + NcPoly.one()).terms()] == [int, int]
    assert A.coeff((G("B"),)) == 0 and type(A.coeff((G("B"),))) is int
    assert type((A / 2).coeff((G("A"),))) is Fraction


@settings(max_examples=150, deadline=None)
@given(term_lists, term_lists, coeffs, divisors)
def test_mixed_coefficient_arithmetic_matches_scalar_reference(ta, tb, k, d):
    a, b = poly_of(ta), poly_of(tb)
    ra, rb = ref_of(ta), ref_of(tb)
    assert matches(a, ra) and matches(b, rb)
    assert matches(a + b, ref_add(ra, rb))
    assert matches(a - b, ref_add(ra, rb, -1))
    assert matches(-a, ref_scaled(ra, Scalar.rational(-1)))
    assert matches(a * b, ref_mul(ra, rb))
    assert matches(a.scaled(k), ref_scaled(ra, Scalar.coerce(k)))
    assert matches(k * a, ref_scaled(ra, Scalar.coerce(k)))
    assert matches(a / d, ref_scaled(ra, Scalar.coerce(d).inverse()))
    assert (a / d) * d == a
    for zero in (0, Fraction(0), Scalar.zero()):
        with pytest.raises(ZeroDivisionError):
            a / zero


@settings(max_examples=100, deadline=None)
@given(term_lists, term_lists, term_lists)
def test_mixed_coefficient_ring_axioms(ta, tb, tc):
    a, b, c = poly_of(ta), poly_of(tb), poly_of(tc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


flat_words = st.lists(st.sampled_from((Q(1), P(1), Q(2), P(2))), max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(flat_words, coeffs), max_size=3))
def test_reduce_is_idempotent_on_mixed_coefficients(terms):
    poly = NcPoly.total(reduce(operator.mul, w, NcPoly.from_scalar(c)) for w, c in terms)
    once = reduce_poly(poly, FLAT)
    assert reduce_poly(once, FLAT) == once
