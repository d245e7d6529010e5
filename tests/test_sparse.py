"""Invariants of the sparse-sum format shared by the element types."""

import pytest

from ncworlds.constraints import THETA, CPoly, hsym
from ncworlds.iterant import IterantElement, eta
from ncworlds.ncpoly import NcPoly
from ncworlds.scalar import Scalar
from ncworlds.skewdiff import Sequence, SkewElement
from ncworlds.sparse import add_into


def test_add_into_drops_a_cancelled_key():
    terms = {"a": 2, "b": 1}
    add_into(terms, "a", -2)
    add_into(terms, "c", 0)
    add_into(terms, "b", 1)
    assert terms == {"b": 2}


def test_cancelled_sums_drop_their_keys():
    x, y = NcPoly.gen("X"), NcPoly.gen("Y")
    assert [w for w, _ in ((x + y) - x).terms()] == [w for w, _ in y.terms()]
    assert (x * y - x * y).is_zero() and not (x - x)

    a, b = CPoly.monomial((hsym(0), THETA)), CPoly.monomial((THETA, hsym(1)), 3)
    assert [m for m, _ in ((a + b) - a).terms()] == [m for m, _ in b.terms()]
    assert (b - b).terms() == [] and (b - b) == CPoly()

    d = IterantElement.diagonal([1, 2])
    assert [p for p, _ in ((d + eta()) - d).terms()] == [(1, 0)]
    assert (d - d) == IterantElement.zero(2)
    # a diagonal that cancels in one entry only is kept
    (perm, vec), = (d - IterantElement.diagonal([1, 3])).terms()
    assert vec == (Scalar.zero(), Scalar.rational(-1))


def test_total_matches_repeated_addition():
    x, y = NcPoly.gen("X"), NcPoly.gen("Y")
    parts = [x, y * x, -x, x * y, NcPoly.from_scalar(3)]
    folded = NcPoly.zero()
    for p in parts:
        folded = folded + p
    assert NcPoly.total(parts) == folded
    assert NcPoly.total([]) == NcPoly.zero()


def test_cancelled_skew_term_keeps_its_window():
    a = SkewElement({1: Sequence([1, 2, 3])})
    g = Sequence([1, 2, 3, 4, 5])
    zero = a - a
    assert zero.is_zero() and zero == SkewElement.zero()
    assert (zero + SkewElement.shift_term(1, g)).to_text() == "J (1, 2, 3)@0"
    assert SkewElement.total([a, -a, SkewElement.shift_term(1, g)]).to_text() == "J (1, 2, 3)@0"


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__"])
def test_iterant_order_mismatch_raises(op):
    two, three = IterantElement.scalar(2, 1), IterantElement.scalar(3, 1)
    with pytest.raises(ValueError, match="order mismatch"):
        getattr(two, op)(three)


def test_iterant_zeros_of_different_orders_differ():
    assert IterantElement.zero(2) != IterantElement.zero(3)
    assert IterantElement.zero(2) == IterantElement.zero(2)


def test_skew_elements_are_unhashable():
    # window-aware == is not transitive, so no hash can agree with it
    short = SkewElement({1: Sequence([1, 2])})
    assert short == SkewElement({1: Sequence([1, 2, 3])})
    assert short == SkewElement({1: Sequence([1, 2, 4])})
    assert SkewElement({1: Sequence([1, 2, 3])}) != SkewElement({1: Sequence([1, 2, 4])})
    a = SkewElement({1: Sequence([1, 2, 3])})
    with pytest.raises(TypeError):
        hash(a - a)
