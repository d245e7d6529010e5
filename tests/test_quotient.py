import random

import pytest
from hypothesis import given, strategies as st

from ncworlds.ncpoly import G, NcPoly, commutator
from ncworlds.parser import evaluate, parse
from ncworlds.quotient import (ABC, FLAT, FLAT_FN, NAMED_SYSTEMS, P, Q, ReductionError,
                               RewriteSystem, check_confluence, flat_partial_p,
                               flat_partial_q, formal_partial_p, formal_partial_q,
                               gauge_curvature_residual, hamilton_check, reduce_poly,
                               schroedinger_residual, subword_rule)

POOL = (G("Q", 1), G("Q", 2), G("P", 1), G("P", 2))


def random_flat_poly(rng, max_degree=3, max_terms=4):
    out = NcPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.choice(POOL) for _ in range(rng.randint(0, max_degree)))
        c = rng.randint(-3, 3)
        if c:
            out = out + NcPoly.from_word(w, c)
    return out


def test_canonical_commutation():
    assert reduce_poly(P(1) * Q(1), FLAT) == Q(1) * P(1) - NcPoly.one()
    assert reduce_poly(P(1) * Q(2), FLAT) == Q(2) * P(1)
    assert reduce_poly(Q(2) * Q(1), FLAT) == Q(1) * Q(2)
    assert reduce_poly(P(2) * P(1), FLAT) == P(1) * P(2)
    assert reduce_poly(commutator(Q(1), P(1)), FLAT) == NcPoly.one()
    assert reduce_poly(commutator(Q(1), P(2)), FLAT).is_zero()


def test_function_symbols_commute_and_differentiate():
    system = FLAT_FN
    theta = NcPoly.gen("theta")
    assert (reduce_poly(P(1) * theta, system)
            == theta * P(1) - NcPoly.gen("theta", derivs=(1,)))
    # [theta, P_1] = theta_,1 after one transposition
    assert (reduce_poly(commutator(theta, P(1)), system)
            == NcPoly.gen("theta", derivs=(1,)))
    g = NcPoly.from_word((G("g", 1, 1),))
    assert reduce_poly(theta * g - g * theta, system).is_zero()
    assert reduce_poly(Q(1) * theta, system) == theta * Q(1)


def test_partial_derivatives_delta():
    assert flat_partial_q(Q(1), 1) == NcPoly.one()
    assert flat_partial_q(Q(2), 1).is_zero()
    assert flat_partial_p(P(1), 1) == NcPoly.one()
    assert flat_partial_p(P(2), 1).is_zero()


def test_partial_of_square():
    # oracle: [Q1 Q1, P1] expanded by hand gives 2 Q1
    assert flat_partial_q(Q(1) * Q(1), 1) == Q(1).scaled(2)
    assert flat_partial_p(P(1) * P(1), 1) == P(1).scaled(2)


def test_partials_match_formal_differentiation():
    rng = random.Random(3)
    for _ in range(30):
        f = random_flat_poly(rng)
        nf = reduce_poly(f, FLAT)
        for i in (1, 2):
            assert flat_partial_q(f, i) == formal_partial_q(nf, i, FLAT)
            assert flat_partial_p(f, i) == formal_partial_p(nf, i, FLAT)


def test_mixed_partials_commute():
    rng = random.Random(4)
    for _ in range(20):
        f = random_flat_poly(rng)
        assert (flat_partial_q(flat_partial_q(f, 1), 2)
                == flat_partial_q(flat_partial_q(f, 2), 1))


def test_reduce_idempotent_and_respects_product():
    rng = random.Random(6)
    for _ in range(20):
        a, b = random_flat_poly(rng, 4), random_flat_poly(rng, 4)
        ra = reduce_poly(a, FLAT)
        assert reduce_poly(ra, FLAT) == ra
        assert (reduce_poly(a * b, FLAT)
                == reduce_poly(reduce_poly(a, FLAT) * reduce_poly(b, FLAT), FLAT))


def test_hamilton_equations():
    # linear case: [P_1, Q_1] = -1 = -dQ_1/dQ_1
    for r1, r2 in hamilton_check(Q(1), (1, 2)):
        assert r1.is_zero() and r2.is_zero()
    # kinetic case: [Q_1, P_1 P_1] = 2 P_1
    for r1, r2 in hamilton_check(P(1) * P(1), (1,)):
        assert r1.is_zero() and r2.is_zero()
    for r1, r2 in hamilton_check(Q(1) * P(1), (1,)):
        assert r1.is_zero() and r2.is_zero()
    rng = random.Random(8)
    for _ in range(20):
        h = random_flat_poly(rng, 3)
        for r1, r2 in hamilton_check(h, (1, 2)):
            assert r1.is_zero() and r2.is_zero()


def test_gauge_curvature_flat_and_generic():
    zero = [NcPoly.zero(), NcPoly.zero()]
    assert gauge_curvature_residual(zero, NcPoly.gen("F"), 1, 2).is_zero()
    a = [NcPoly.gen("A", 1), NcPoly.gen("A", 2)]
    assert gauge_curvature_residual(a, NcPoly.gen("F"), 1, 2).is_zero()
    rng = random.Random(12)
    pool = POOL + (G("A", 1), G("A", 2), G("F"))
    for _ in range(10):
        f = NcPoly.zero()
        for _ in range(3):
            w = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
            f = f + NcPoly.from_word(w, rng.randint(-2, 2))
        assert gauge_curvature_residual(a, f, 1, 2).is_zero()


def test_gauge_curvature_function_connection():
    system = FLAT_FN
    a = [NcPoly.gen("a", 1), NcPoly.gen("a", 2)]
    r12 = (flat_partial_q(a[1], 1, system) - flat_partial_q(a[0], 2, system)
           + reduce_poly(commutator(a[0], a[1]), system))
    assert r12 == NcPoly.gen("a", 2, derivs=(1,)) - NcPoly.gen("a", 1, derivs=(2,))


def test_schroedinger_residual_vanishes():
    assert schroedinger_residual().is_zero()


def test_abc_relations():
    a, b, c = NcPoly.gen("A"), NcPoly.gen("B"), NcPoly.gen("C")
    assert reduce_poly(b * a, ABC) == a * b
    assert reduce_poly(b * c * a, ABC) == a * c * b
    assert reduce_poly(c * b * a, ABC) == c * a * b


def test_step_limit_diagnostic():
    # a deliberately looping system: X -> X keeps the measure constant
    x = G("X")
    loop = RewriteSystem(
        name="loop",
        rules=(subword_rule((x,), NcPoly.from_word((x,))),),
    )
    with pytest.raises(ReductionError) as err:
        reduce_poly(NcPoly.from_word((x,)), loop, max_steps=50)
    assert "X" in str(err.value) and "50" in str(err.value)


def test_env_step_limit(monkeypatch):
    monkeypatch.setenv("NCWORLDS_MAX_STEPS", "7")
    x = G("X")
    loop = RewriteSystem(
        name="loop",
        rules=(subword_rule((x,), NcPoly.from_word((x,))),),
    )
    with pytest.raises(ReductionError) as err:
        reduce_poly(NcPoly.from_word((x,)), loop)
    assert "7" in str(err.value)


def test_reduction_with_inert_generators():
    h = NcPoly.gen("H")
    # inert generators block reordering across them
    w = P(1) * h * Q(1)
    assert reduce_poly(w, FLAT) == w
    assert reduce_poly(P(1) * Q(1) * h, FLAT) == (Q(1) * P(1) - NcPoly.one()) * h


def stirling2_row(n):
    """S(n, 0..n), Stirling numbers of the second kind, by their recurrence
    S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < m else 0) + row[k - 1] for k in range(1, m + 1)]
    return row


def test_stirling_row_oracle_itself():
    assert stirling2_row(4) == [0, 1, 7, 6, 1]
    assert sum(stirling2_row(6)) == 203   # the Bell number B_6


@pytest.mark.parametrize("n", range(1, 13))
def test_normal_ordered_qp_power_has_stirling_coefficients(n):
    # boson normal ordering: (Q P)^n = sum_k (-1)^(n+k) S(n,k) Q^k P^k
    s = stirling2_row(n)
    expected = NcPoly.total((Q(1) ** k * P(1) ** k).scaled((-1) ** (n + k) * s[k])
                            for k in range(1, n + 1))
    assert reduce_poly((Q(1) * P(1)) ** n, FLAT) == expected


def test_equal_words_are_merged_before_rewriting():
    # following every rewrite path apart takes 4139 steps here
    s = stirling2_row(8)
    expected = NcPoly.total((Q(1) ** k * P(1) ** k).scaled((-1) ** (8 + k) * s[k])
                            for k in range(1, 9))
    assert reduce_poly((Q(1) * P(1)) ** 8, FLAT, max_steps=1000) == expected


LINEARITY_POOLS = {
    "flat": (FLAT, POOL),
    "flat-fn": (FLAT_FN, POOL + (G("theta"), G("g", 1))),
    "abc": (ABC, (G("A"), G("B"), G("C"))),
}


def small_polys(pool):
    term = st.tuples(st.lists(st.sampled_from(pool), max_size=4), st.integers(-3, 3))
    return st.lists(term, max_size=4).map(
        lambda terms: NcPoly.total(NcPoly.from_word(tuple(w), c) for w, c in terms))


@pytest.mark.parametrize("name", sorted(LINEARITY_POOLS))
def test_reduction_is_linear(name):
    system, pool = LINEARITY_POOLS[name]

    @given(small_polys(pool), small_polys(pool))
    def check(a, b):
        assert (reduce_poly(a + b, system)
                == reduce_poly(a, system) + reduce_poly(b, system))

    check()


@pytest.mark.parametrize("n", range(1, 21))
def test_stirling_normal_ordering_through_evaluate(n):
    s = stirling2_row(n)
    expected = NcPoly.total((Q(1) ** k * P(1) ** k).scaled((-1) ** (n + k) * s[k])
                            for k in range(1, n + 1))
    assert evaluate(parse(" ".join(["(Q^1 P_1)"] * n)), FLAT) == expected


# (alphabet, longest word) per named system: the alphabet has a letter of
# every class the rules tell apart, and the length covers every overlap of
# two rule spans (2 + 2 - 1 in flat and flat-fn, 3 + 3 - 1 in abc)
CONFLUENCE_CASES = {
    "free": ((G("A"), G("B")), 2),
    "flat": (POOL + (G("H"), G("theta", derivs=(1,))), 3),
    "flat-fn": (POOL + (G("theta"), G("theta", derivs=(1,)), G("g", 1, 2)), 3),
    "abc": ((G("A"), G("B"), G("C")), 5),
}


def test_every_named_system_has_a_confluence_case():
    assert set(CONFLUENCE_CASES) == set(NAMED_SYSTEMS)


@pytest.mark.parametrize("name", sorted(CONFLUENCE_CASES))
def test_named_systems_are_confluent(name):
    alphabet, max_len = CONFLUENCE_CASES[name]
    assert check_confluence(NAMED_SYSTEMS[name], alphabet, max_len) is None


def test_confluence_check_rejects_a_non_confluent_system():
    a, b, c = G("A"), G("B"), G("C")
    toy = RewriteSystem("toy", (subword_rule((a, b), NcPoly.from_word((c,))),
                                subword_rule((b, c), NcPoly.from_word((a,)))))
    # A B C rewrites to C C or to A A, and both are irreducible
    assert check_confluence(toy, (a, b, c), 2) is None
    assert check_confluence(toy, (a, b, c), 3) == (a, b, c)


@pytest.mark.parametrize("name", sorted(LINEARITY_POOLS))
def test_reduction_is_an_algebra_map(name):
    system, pool = LINEARITY_POOLS[name]

    @given(small_polys(pool), small_polys(pool))
    def check(a, b):
        assert (reduce_poly(a * b, system)
                == reduce_poly(reduce_poly(a, system) * reduce_poly(b, system), system))

    check()
