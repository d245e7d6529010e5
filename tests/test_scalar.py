import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncworlds.ncpoly import NcPoly
from ncworlds.scalar import Scalar, narrow, over_common_denominator, text


def test_gaussian_unit_squares_to_minus_one():
    i = Scalar.imag_unit()
    assert i * i == Scalar.rational(-1)
    assert i * i * i * i == Scalar.one()


def test_rational_arithmetic_is_exact():
    assert Scalar.rational(1, 3) + Scalar.rational(1, 6) == Scalar.rational(1, 2)
    assert Scalar.rational(2, 7) * Scalar.rational(7, 2) == Scalar.one()
    assert Scalar.rational(1, 10**12) * Scalar.rational(10**12) == Scalar.one()


def test_parameters_are_laurent():
    hbar = Scalar.param("hbar")
    assert hbar * Scalar.param("hbar", -1) == Scalar.one()
    assert (hbar ** 3) / hbar == hbar * hbar
    assert Scalar.param("m", 2).inverse() == Scalar.param("m", -2)


def test_zero_exponent_is_absent():
    assert Scalar.param("m", 0) == Scalar.one()
    assert (Scalar.param("m") / Scalar.param("m")) == Scalar.one()


def test_division_by_gaussian():
    i = Scalar.imag_unit()
    one = Scalar.one()
    assert one / i == -i
    z = Scalar.gaussian(1, 2)
    assert z * z.inverse() == one


def test_multi_term_divisor_rejected():
    with pytest.raises(ZeroDivisionError):
        (Scalar.one() + Scalar.param("m")).inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()


def test_ring_axioms_random():
    rng = random.Random(11)
    names = ["hbar", "m", "tau"]

    def rand_scalar():
        out = Scalar.zero()
        for _ in range(rng.randint(1, 3)):
            term = Scalar.gaussian(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                                   Fraction(rng.randint(-2, 2)))
            for name in rng.sample(names, k=rng.randint(0, 2)):
                term = term * Scalar.param(name, rng.randint(-2, 2) or 1)
            out = out + term
        return out

    for _ in range(60):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Scalar.zero() == a
        assert a * Scalar.one() == a
        assert (a - a).is_zero()


def test_substitute_square():
    s = Scalar.param("s")
    k, tau = Scalar.param("k"), Scalar.param("tau")
    assert (s * s / tau).substitute_square("s", k * tau) == k
    with pytest.raises(ValueError):
        s.substitute_square("s", k)


def test_canonical_text():
    assert Scalar.zero().to_text() == "0"
    assert Scalar.rational(-2).to_text() == "-2"
    assert Scalar.rational(3, 2).to_text() == "3/2"
    assert Scalar.imag_unit().to_text() == "i"
    assert (-Scalar.imag_unit()).to_text() == "-i"
    assert (Scalar.rational(2) * Scalar.imag_unit()).to_text() == "2i"
    assert Scalar.param("hbar").to_text() == "hbar"
    assert (Scalar.param("hbar", 2) * Scalar.param("m", -1)).to_text() == "hbar^2 m^-1"
    assert (Scalar.one() + Scalar.param("hbar")).to_text() == "1 + hbar"
    mixed = Scalar.gaussian(1, 2) * Scalar.param("m")
    assert mixed.to_text() == "(1 + 2i) m"


def test_structural_equality_and_hash():
    a = Scalar.param("m") * Scalar.rational(1, 2)
    b = Scalar.rational(1, 2) * Scalar.param("m")
    assert a == b and hash(a) == hash(b)
    assert a != Scalar.param("m")


@pytest.mark.parametrize("value", [1.5, "1/2", 0.5j, None])
def test_inexact_operands_are_not_implemented(value):
    one = Scalar.one()
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(one, op)(value) is NotImplemented
    with pytest.raises(TypeError):
        one + value
    with pytest.raises(TypeError):
        value - one


@pytest.mark.parametrize("value", [1.5, "1/2", None])
def test_coerce_rejects_inexact_values_by_name(value):
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        Scalar.coerce(value)


def test_adding_another_element_type_defers_to_python():
    x = NcPoly.gen("X")
    for a, b in ((Scalar.one(), x), (x, Scalar.one())):
        with pytest.raises(TypeError, match="unsupported operand"):
            a + b
        with pytest.raises(TypeError, match="unsupported operand"):
            a - b
    assert Scalar.one() * x == x


def test_exact_operands_still_mix():
    half = Scalar.rational(1, 2)
    assert half + 1 == Scalar.rational(3, 2) == 1 + half
    assert half - Fraction(1, 4) == Scalar.rational(1, 4)
    assert 1 - half == half
    assert Scalar.coerce(Fraction(2, 3)) == Scalar.rational(2, 3)


def test_rational_constants_hash_like_the_numbers_they_equal():
    assert len({Scalar.one(), 1, Fraction(1)}) == 1
    assert len({Scalar.zero(), 0}) == 1
    assert hash(Scalar.rational(3, 4)) == hash(Fraction(3, 4))
    hbar = Scalar.param("hbar")
    assert len({hbar * hbar.inverse(), 1}) == 1


@pytest.mark.parametrize("make", [
    lambda v: Scalar.rational(v),
    lambda v: Scalar.rational(1, v),
    lambda v: Scalar.gaussian(v, 0),
    lambda v: Scalar.gaussian(0, v),
    lambda v: Scalar.param("m", coeff=v),
    lambda v: Scalar.param("m", 0, coeff=v),
], ids=["rational", "rational-q", "gaussian-re", "gaussian-im", "param", "param-exp0"])
@pytest.mark.parametrize("value", [0.1, "1/2", None])
def test_constructors_reject_inexact_values_by_name(make, value):
    with pytest.raises(TypeError, match=re.escape(f"not an exact scalar: {value!r}")):
        make(value)


def test_narrow_gives_plain_rationals_and_keeps_other_scalars():
    for value, want in ((Scalar.rational(6, 3), 2), (Scalar.zero(), 0),
                        (Fraction(4, 2), 2), (7, 7), (True, 1)):
        assert narrow(value) == want and type(narrow(value)) is int
    for value, want in ((Scalar.rational(1, 2), Fraction(1, 2)),
                        (Fraction(-1, 2), Fraction(-1, 2))):
        assert narrow(value) == want and type(narrow(value)) is Fraction
    for value in (Scalar.param("m"), Scalar.imag_unit(), Scalar.gaussian(1, 1),
                  Scalar.one() + Scalar.param("m")):
        assert narrow(value) is value
    with pytest.raises(TypeError, match="not an exact scalar: 0.5"):
        narrow(0.5)


rationals = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**12),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, max_size=40))
def test_common_denominator_sums_like_fractions(values):
    nums, den = over_common_denominator(values)
    assert len(nums) == len(values) and all(type(x) is int for x in nums)
    assert all(Fraction(x, den) == v for x, v in zip(nums, values))
    assert Fraction(sum(nums), den) == sum(values, Fraction(0))


def test_common_denominator_declines_scalars():
    assert over_common_denominator([1, Fraction(1, 2), Scalar.param("a")]) is None
    assert over_common_denominator([]) == ([], 1)


def _decode(digits: str) -> int:
    """An int from its decimal text, read in pieces that each stay well under
    the interpreter's limit on one string conversion."""
    sign = -1 if digits.startswith("-") else 1
    digits = digits.lstrip("-")
    value = 0
    for start in range(0, len(digits), 1000):
        piece = digits[start:start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return sign * value


@pytest.mark.parametrize("value", [
    7 * (10**6000 - 1) // 9,
    -(3 * 10**9000 + 17),
    Fraction(1, 10**5000 + 3),
    Fraction(-(10**4400 + 1), 7),
], ids=["int", "negative", "denominator", "numerator"])
def test_text_prints_numbers_past_the_conversion_limit(value):
    out = text(value)
    num, _, den = out.partition("/")
    assert Fraction(_decode(num), _decode(den) if den else 1) == value
    assert out.lstrip("-")[0] != "0"
    assert text(Scalar.rational(value)) == out
