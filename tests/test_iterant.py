import math
import operator
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ncworlds.iterant import (IterantElement, Matrix, boost_parameter,
                              epsilon_iterant, eta, imaginary_iterant,
                              lorentz_boost, matrix_decompose, quaternion_basis,
                              quaternion_table)
from ncworlds.scalar import Scalar

ONE = IterantElement.scalar(2, 1)
MINUS_ONE = -ONE


def test_square_root_of_minus_one_both_views():
    assert imaginary_iterant() ** 2 == MINUS_ONE
    other = IterantElement.diagonal([1, -1]) * eta()
    assert other ** 2 == MINUS_ONE


def test_componentwise_product():
    a, b, c, d = (Scalar.param(n) for n in "abcd")
    ab = IterantElement.diagonal([a, b])
    cd = IterantElement.diagonal([c, d])
    assert ab * cd == IterantElement.diagonal([a * c, b * d])


def test_shift_relations():
    assert eta() * eta() == ONE
    assert epsilon_iterant() * epsilon_iterant() == ONE
    eps = epsilon_iterant()
    assert eps.bar() == -eps
    a, b = Scalar.param("a"), Scalar.param("b")
    ab = IterantElement.diagonal([a, b])
    assert eta() * ab == ab.bar() * eta()
    assert ab * eta() * ab * eta() == IterantElement.diagonal([a * b, a * b])


def test_matrix_correspondence():
    a, b, c, d = (Scalar.param(n) for n in "abcd")
    el = IterantElement.pair([a, d], [b, c])
    assert el.to_matrix() == Matrix([[a, b], [c, d]])
    assert imaginary_iterant().to_matrix() == Matrix([[0, -1], [1, 0]])
    assert ONE.to_matrix() == Matrix.identity(2)


def test_matrix_map_is_multiplicative():
    rng = random.Random(2)
    for n in (2, 3):
        perms = list(permutations(range(n)))
        for _ in range(20):
            def rand():
                count = rng.randint(1, min(3, len(perms)))
                return IterantElement(n, {
                    p: tuple(Scalar.rational(rng.randint(-4, 4)) for _ in range(n))
                    for p in rng.sample(perms, k=count)
                })
            x, y = rand(), rand()
            assert (x * y).to_matrix() == x.to_matrix() * y.to_matrix()
            assert (x + y).to_matrix() == x.to_matrix() + y.to_matrix()


def test_decompose_symbolic_3x3():
    names = ["a", "b", "c", "d", "e", "f", "g", "h", "k"]
    v = {n: Scalar.param(n) for n in names}
    m = Matrix([[v["a"], v["b"], v["c"]],
                [v["d"], v["e"], v["f"]],
                [v["g"], v["h"], v["k"]]])
    dec = matrix_decompose(m)
    half = Scalar.rational(1, 2)
    # the six displayed diagonal x permutation summands, scaled by 1/2!
    expected = IterantElement(3, {
        (0, 1, 2): (v["a"] * half, v["e"] * half, v["k"] * half),
        (1, 2, 0): (v["b"] * half, v["f"] * half, v["g"] * half),
        (2, 0, 1): (v["c"] * half, v["d"] * half, v["h"] * half),
        (2, 1, 0): (v["c"] * half, v["e"] * half, v["g"] * half),
        (1, 0, 2): (v["b"] * half, v["d"] * half, v["k"] * half),
        (0, 2, 1): (v["a"] * half, v["f"] * half, v["h"] * half),
    })
    assert dec == expected
    assert dec.to_matrix() == m


def test_decompose_identity_2x2():
    ident = Matrix.identity(2)
    assert matrix_decompose(ident).to_matrix() == ident


def test_decompose_roundtrip_random():
    rng = random.Random(77)
    for n in (2, 3, 4):
        for _ in range(50):
            m = Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(n)] for _ in range(n)])
            assert matrix_decompose(m).to_matrix() == m


def test_quaternion_relations():
    basis = quaternion_basis()
    i, j, k = basis["i"], basis["j"], basis["k"]
    assert i * i == MINUS_ONE
    assert j * j == MINUS_ONE
    assert k * k == MINUS_ONE
    assert i * j * k == MINUS_ONE
    # orientation determined by 2x2 matrix multiplication as the oracle
    jk = j.to_matrix() * k.to_matrix()
    assert jk == i.to_matrix()
    assert (j * k) == i


def test_quaternion_table_report():
    table = quaternion_table()
    assert table.ok
    assert table.jk_orientation == "j.k = i"
    assert len(table.products) == 16
    entries = {(a, b): prod for a, b, prod in table.products}
    assert entries[("i", "j")] == "k"
    assert entries[("j", "i")] == "-k"
    assert entries[("1", "i")] == "i"


def test_conjugation_is_determinant():
    a, b, c, d = (Scalar.param(n) for n in "abcd")
    el = IterantElement.pair([a, d], [b, c])
    prod = el * el.conjugate()
    det = a * d - b * c
    assert prod == IterantElement.diagonal([det, det])


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        IterantElement.scalar(2, 1) * IterantElement.scalar(3, 1)
    with pytest.raises(ValueError):
        IterantElement.scalar(2, 1) + IterantElement.scalar(3, 1)


def test_malformed_construction_rejected():
    with pytest.raises(ValueError):
        IterantElement(0)
    with pytest.raises(ValueError):
        IterantElement(2, {(0, 0): (Scalar.one(), Scalar.one())})
    with pytest.raises(ValueError):
        IterantElement(2, {(0, 1): (Scalar.one(),)})


def test_lorentz_invariance_random():
    rng = random.Random(13)
    for _ in range(40):
        k = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        t2, x2 = lorentz_boost(k, t, x)
        assert (t2 - x2) * (t2 + x2) == (t - x) * (t + x)


def test_lorentz_identity_and_velocity_form():
    assert lorentz_boost(1, Fraction(4), Fraction(-2)) == (Fraction(4), Fraction(-2))
    # v = 3/5: gamma = 5/4 exactly, oracle t' = (t - x v) gamma, x' = (x - v t) gamma
    v, gamma = Fraction(3, 5), Fraction(5, 4)
    k = boost_parameter(v)
    assert k == (1 + v) * gamma == 2
    for t, x in [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(1))]:
        want = ((t - x * v) * gamma, (x - v * t) * gamma)
        assert lorentz_boost(k, t, x) == want
    assert lorentz_boost(k, 1, 0) == (Fraction(5, 4), Fraction(-3, 4))


def test_lorentz_errors():
    with pytest.raises(ValueError):
        lorentz_boost(0, 1, 1)
    with pytest.raises(ValueError):
        boost_parameter(Fraction(1, 2))  # gamma irrational
    with pytest.raises(ValueError):
        boost_parameter(Fraction(7, 5))  # faster than light


# -- mixed entry storage: plain rationals and Scalars -----------------------------

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
params = st.builds(lambda c, name, e: Scalar.param(name, e, c),
                   fractions, st.sampled_from(("hbar", "tau")), st.integers(-2, 2))
entries = st.one_of(st.integers(-4, 4), fractions, fractions.map(Scalar.rational),
                    params, st.builds(operator.add, params, st.integers(-2, 2)))


@st.composite
def iterants(draw, order):
    """(element, reference): the reference maps each permutation to its
    diagonal as Scalars, built term by term with ``Scalar.coerce``."""
    perms = draw(st.lists(st.permutations(range(order)).map(tuple),
                          max_size=3, unique=True))
    terms = {p: draw(st.lists(entries, min_size=order, max_size=order)) for p in perms}
    ref = {p: tuple(map(Scalar.coerce, v)) for p, v in terms.items()}
    return IterantElement(order, terms), {p: v for p, v in ref.items() if any(v)}


def ref_add(a, b, sign=1):
    out = dict(a)
    for p, v in b.items():
        old = out.get(p, (Scalar.zero(),) * len(v))
        out[p] = tuple(x + y * sign for x, y in zip(old, v))
    return {p: v for p, v in out.items() if any(v)}


def ref_mul(a, b):
    # (v1 [p1])(v2 [p2]) = (v1 * v2^p1) [p1 p2], written out entry by entry
    out = {}
    for p1, v1 in a.items():
        for p2, v2 in b.items():
            n = len(p1)
            p = tuple(p2[p1[i]] for i in range(n))
            prod = tuple(v1[i] * v2[p1[i]] for i in range(n))
            out = ref_add(out, {p: prod})
    return out


def ref_scaled(a, k):
    return {p: tuple(x * k for x in v) for p, v in a.items() if any(x * k for x in v)}


def matches(el, ref):
    """``el`` holds the Scalars of ``ref``, prints like them and stores every
    entry as an int, a Fraction or a Scalar."""
    assert dict(el.terms()) == ref
    assert all(type(x) in (int, Fraction, Scalar) for _, v in el.terms() for x in v)
    want = " + ".join("[" + ", ".join(x.to_text() for x in v) + "]("
                      + " ".join(str(i + 1) for i in p) + ")"
                      for p, v in sorted(ref.items())) or "0"
    assert el.to_text() == want
    return True


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(iterants(n), iterants(n))), entries)
def test_mixed_entry_arithmetic_matches_scalar_reference(pair, k):
    (a, ra), (b, rb) = pair
    assert matches(a, ra) and matches(b, rb)
    assert matches(a + b, ref_add(ra, rb))
    assert matches(a - b, ref_add(ra, rb, -1))
    assert matches(a * b, ref_mul(ra, rb))
    assert matches(a * k, ref_scaled(ra, Scalar.coerce(k)))
    assert matches(k * a, ref_scaled(ra, Scalar.coerce(k)))
    assert a.to_matrix() * b.to_matrix() == (a * b).to_matrix()


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(iterants(n), iterants(n), iterants(n))))
def test_mixed_entry_ring_axioms(triple):
    (a, _), (b, _), (c, _) = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_decomposition_divides_exactly():
    for n in (2, 3, 4):
        m = Matrix([[i * n + j + 1 for j in range(n)] for i in range(n)])
        dec = matrix_decompose(m)
        assert all(type(x) in (int, Fraction) for _, v in dec.terms() for x in v)
        assert all(type(x) is int for r in dec.to_matrix().rows for x in r)
        assert dec.to_matrix() == m


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decomposition_of_a_parameter_matrix_reconstructs(n):
    # a distinct parameter in each of the n^2 slots keeps every cell a Scalar
    m = Matrix([[Scalar.param(f"m{i}{j}") for j in range(n)] for i in range(n)])
    dec = matrix_decompose(m)
    assert len(dec.terms()) == math.factorial(n)
    assert dec.to_matrix() == m


def test_decomposition_drops_all_zero_diagonals():
    # only the (n-1)! = 2 diagonals through the one nonzero entry remain
    m = Matrix([[0, 0, 0], [0, 5, 0], [0, 0, 0]])
    dec = matrix_decompose(m)
    assert sorted(p for p, _ in dec.terms()) == [(0, 1, 2), (2, 1, 0)]
    assert dec.to_matrix() == m
    assert matrix_decompose(Matrix([[0, 0], [0, 0]])).is_zero()


@pytest.mark.parametrize("terms, message", [
    ({(0, 0, 2): (1, 2, 3)}, "not a permutation"),
    ({(0, 1, 3): (1, 2, 3)}, "not a permutation"),
    ({(0, 1, 2): (1, 2)}, "length mismatch"),
    ({(0, 1, 2): (1, 2, 3, 4)}, "length mismatch"),
])
def test_constructor_still_checks_its_input(terms, message):
    with pytest.raises(ValueError, match=message):
        IterantElement(3, terms)
