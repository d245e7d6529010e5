import random
import string
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncworlds.ncpoly import G, NcPoly
from ncworlds.parser import (Comm, ImagUnit, Num, Param, ParseError, Prod, Sum,
                             Symm, evaluate, parse, print_expr, world)
from ncworlds.quotient import ReductionError, reduce_poly
from ncworlds.scalar import Scalar


def test_commutator_in_flat_world():
    poly = evaluate(parse("[Q^1, P_1]"), world("flat"))
    assert poly == NcPoly.one()
    assert poly.to_text() == "1"


def test_symmetrizer_surface_form():
    poly = evaluate(parse("{X Y}"))
    assert poly.to_text() == "(1/2) X.Y + (1/2) Y.X"


def test_syntax_error_position_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("(")
    assert err.value.line == 1 and err.value.col == 2
    assert err.value.expected
    with pytest.raises(ParseError):
        parse("[A, ")
    with pytest.raises(ParseError):
        parse("A + ")
    with pytest.raises(ParseError):
        parse("2.5")


def test_upper_and_lower_indices_agree():
    assert parse("Q^1") == parse("Q_1") == G("Q", 1)
    assert parse("Theta_12") == G("Theta", 1, 2)
    assert parse("H''") == G("H", primes=2)
    assert parse("g_11,2") == G("g", 1, 1, derivs=(2,))
    assert parse("theta_,1") == G("theta", derivs=(1,))


def test_parameters_and_imaginary_unit():
    assert parse("i") == ImagUnit()
    assert parse("hbar") == Param("hbar", 1)
    assert parse("hbar^-2") == Param("hbar", -2)
    assert evaluate(parse("i i")) == NcPoly.from_scalar(Scalar.rational(-1))
    assert evaluate(parse("hbar hbar^-1")) == NcPoly.one()


def test_deriv_comma_does_not_eat_argument_comma():
    e = parse("[Q_1, 2 A]")
    assert isinstance(e, Comm)
    assert e.a == G("Q", 1)


def test_dot_product_separator():
    assert parse("H.Q_1") == parse("H Q_1")
    text = "(-2) H.Theta.H + Theta.H.H + H.H.Theta"
    poly = evaluate(parse(text))
    t, h = NcPoly.gen("Theta"), NcPoly.gen("H")
    assert poly == t * h * h + h * h * t - (h * t * h).scaled(2)


def test_reduce_output_reparses():
    from ncworlds.ncpoly import commutator
    t, h = NcPoly.gen("Theta"), NcPoly.gen("H")
    p = commutator(commutator(t, h), h)
    assert evaluate(parse(p.to_text())) == p
    q = evaluate(parse("[Q^1, P_1 P_1]"), world("flat"))
    assert evaluate(parse(q.to_text())) == q


def test_evaluation_worlds():
    assert evaluate(parse("P_1 Q^1"), world("flat")) == evaluate(
        parse("Q^1 P_1 - 1"))
    assert evaluate(parse("B A"), world("abc")) == evaluate(parse("A B"))
    free = evaluate(parse("P_1 Q^1"), world("free"))
    assert free == NcPoly.from_word((G("P", 1), G("Q", 1)))
    with pytest.raises(ValueError):
        world("curved")


def test_nested_expression():
    e = parse("{(A + B) C} - 1/2 [A, C] - 1/2 [B, C] - C A - C B")
    poly = evaluate(e)
    assert poly.is_zero()


# -- round-trip property --------------------------------------------------------

NAMES = ["A", "B", "H", "Theta", "psi", "Q", "P", "g"]
PARAMS = ["hbar", "m", "dt", "tau"]


def random_expr(rng, depth):
    if depth == 0:
        kind = rng.randrange(4)
        if kind == 0:
            return Num(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
        if kind == 1:
            return ImagUnit()
        if kind == 2:
            exp = rng.choice([-2, -1, 1, 2, 3])
            return Param(rng.choice(PARAMS), exp)
        indices = tuple(rng.randint(1, 3) for _ in range(rng.randrange(3)))
        derivs = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randrange(2))))
        return G(rng.choice(NAMES), *indices, derivs=derivs,
                 primes=rng.randrange(3))
    kind = rng.randrange(4)
    if kind == 0:
        return Prod(tuple(random_expr(rng, depth - 1)
                          for _ in range(rng.randint(2, 3))))
    if kind == 1:
        parts = tuple((rng.choice([1, -1]), random_expr(rng, depth - 1))
                      for _ in range(rng.randint(2, 3)))
        return Sum(parts)
    if kind == 2:
        return Comm(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return Symm(tuple(random_expr(rng, depth - 1)
                      for _ in range(rng.randint(1, 3))))


def test_roundtrip_500_random_asts():
    rng = random.Random(2024)
    for _ in range(500):
        e = random_expr(rng, rng.randint(1, 6))
        text = print_expr(e)
        back = parse(text)
        assert back == e, f"{text!r} reparsed as {print_expr(back)!r}"


def test_print_then_parse_normalizes():
    for src in ["( A )", "A  +  B", "[ A , B ]", "Q^1 P_1", "A.B"]:
        e = parse(src)
        assert parse(print_expr(e)) == e


@pytest.mark.parametrize("src, col", [
    ("1/0", 1),         # zero denominator, not a ZeroDivisionError traceback
    ("2 + 3/0 X", 5),
    ("X^", 3),          # an index marker needs digits
    ("X_", 3),
    ("X_ Y", 3),
    ("hbar^", 6),
    ("hbar^-", 7),      # a signed exponent needs digits too
])
def test_malformed_literals_are_located_parse_errors(src, col):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (1, col)


# ASCII plus non-ASCII numerals ("²", "½", "٣") and letters ("θ", "é")
TEXT = st.text(st.sampled_from(string.printable + "²½θ٣é"), max_size=24)


@settings(max_examples=400, deadline=None)
@given(TEXT)
def test_parse_succeeds_or_raises_a_located_parse_error(src):
    try:
        e = parse(src)
    except ParseError as err:
        line = src.split("\n")[err.line - 1]
        assert 1 <= err.col <= len(line) + 1
    else:
        assert parse(print_expr(e)) == e


@pytest.mark.parametrize("src, col", [
    ("٣", 1),           # digits are ASCII only
    ("X ٣", 3),
    ("Q^٣", 3),
    ("θ²", 2),          # a name is a run of str.isalpha letters
    ("½", 1),
    ("A\n  ²", 3),
])
def test_non_ascii_numerals_are_located_parse_errors(src, col):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (src.count("\n") + 1, col)


def test_non_ascii_letters_are_names():
    assert parse("θ é'") == Prod((G("θ"), G("é", primes=1)))


@pytest.mark.parametrize("opening, closing, value", [
    ("(A ", ")", NcPoly.from_word((G("A"),) * 200 + (G("B"),))),
    ("[1, ", "]", NcPoly.zero()),
    ("{1 ", "}", NcPoly.gen("B")),
], ids=["paren", "commutator", "symmetrizer"])
def test_bracket_nesting_is_bounded_at_the_opening_bracket(opening, closing, value):
    deepest = parse(opening * 200 + "B" + closing * 200)
    assert parse(print_expr(deepest)) == deepest
    assert evaluate(deepest, world("flat")) == value
    with pytest.raises(ParseError) as err:
        parse(opening * 201 + "B" + closing * 201)
    assert (err.value.line, err.value.col) == (1, 200 * len(opening) + 1)
    assert "200" in str(err.value)


@pytest.mark.parametrize("src, col", [
    ("9" * 5000, 1),
    ("X + 1/" + "3" * 5000, 5),
    ("A\n hbar^" + "2" * 5000, 2),
], ids=["number", "denominator", "exponent"])
def test_over_long_literals_are_located_parse_errors(src, col):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (src.count("\n") + 1, col)


def test_literals_up_to_the_digit_limit_parse():
    limit = sys.get_int_max_str_digits()
    assert parse("7" * limit) == Num(Fraction("7" * limit))
    assert parse("hbar^-" + "1" * limit) == Param("hbar", -int("1" * limit))


# expression text over each world's letters: products, sums, commutators,
# symmetrizers and parentheses, with small rational constants
WORLD_LETTERS = {
    "flat": ("Q^1", "Q^2", "P_1", "P_2", "2", "1/2"),
    "flat-fn": ("Q^1", "P_1", "P_2", "theta", "g_12", "(-1/3)"),
    "abc": ("A", "B", "C", "3"),
}


def expression_text(letters):
    def grow(inner):
        return st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(" ".join),
            st.tuples(inner, st.sampled_from((" + ", " - ")), inner).map("".join),
            st.tuples(inner, inner).map(lambda t: f"[{t[0]}, {t[1]}]"),
            st.lists(inner, min_size=1, max_size=3).map(
                lambda fs: "{" + " ".join(f"({f})" for f in fs) + "}"),
            inner.map(lambda x: f"({x})"),
        )

    return st.recursive(st.sampled_from(letters), grow, max_leaves=8)


@pytest.mark.parametrize("name", sorted(WORLD_LETTERS))
def test_reducing_at_product_nodes_equals_reducing_once(name):
    system = world(name)

    @settings(max_examples=400, deadline=None)
    @given(expression_text(WORLD_LETTERS[name]))
    def check(text):
        e = parse(text)
        assert evaluate(e, system) == reduce_poly(evaluate(e), system)

    check()


def test_one_step_budget_covers_the_whole_evaluation():
    # each commutator takes one step, so the sum needs two
    e = parse("[P_1, Q^1] + [P_2, Q^2]")
    assert evaluate(e, world("flat"), max_steps=2) == NcPoly.one().scaled(-2)
    with pytest.raises(ReductionError) as err:
        evaluate(e, world("flat"), max_steps=1)
    assert err.value.word == (G("P", 2), G("Q", 2)) and err.value.limit == 1
