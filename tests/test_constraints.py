import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, prod

import pytest

from ncworlds.constraints import (CPoly, THETA, curvature_form_check,
                                  derivative_tower, first_constraint_residual,
                                  hprime2_coefficient, hprime_coefficient, hsym,
                                  quadratic_hamiltonian, requirement_form_residual,
                                  second_constraint_residual, symmetrize,
                                  symmetrized_level, symmetrized_level_dot,
                                  symmetrizer_commutator_identity,
                                  third_constraint_check, theta_sym)
from ncworlds.ncpoly import G, NcPoly, commutator
from ncworlds.quotient import FLAT_FN, P, reduce_poly
from ncworlds.scalar import Scalar


def words_of(poly):
    """Word -> Fraction map for polynomials with plain rational coefficients."""
    out = {}
    for w, c in poly.terms():
        assert isinstance(c, (int, Fraction))
        out[tuple(g.name for g in w)] = c
    return out


def sym_oracle(labels):
    """Independent symmetrizer: tally letter tuples over permutations."""
    tally = Counter()
    for order in permutations(labels):
        tally[tuple(order)] += 1
    n_fact = 1
    for k in range(2, len(labels) + 1):
        n_fact *= k
    return {w: Fraction(c, n_fact) for w, c in tally.items()}


def test_symmetrize_single_factor():
    x = NcPoly.gen("X")
    assert symmetrize([x]) == x


def test_symmetrize_pair():
    x, y = NcPoly.gen("X"), NcPoly.gen("Y")
    got = symmetrize([x, y])
    assert got == (x * y + y * x) / Scalar.rational(2)
    assert words_of(got) == sym_oracle(["X", "Y"])


def test_symmetrize_triple_oracle():
    a, b, c = NcPoly.gen("A"), NcPoly.gen("B"), NcPoly.gen("C")
    got = symmetrize([a, b, c])
    want = sym_oracle(["A", "B", "C"])
    assert words_of(got) == want
    assert all(v == Fraction(1, 6) for v in want.values())
    assert len(want) == 6


def test_symmetrize_permutation_invariant_and_multilinear():
    rng = random.Random(3)
    pool = (G("A"), G("B"), G("C"))

    def rand_poly():
        out = NcPoly.zero()
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            out = out + NcPoly.from_word(w, rng.randint(-3, 3))
        return out

    for _ in range(10):
        fs = [rand_poly() for _ in range(rng.randint(1, 4))]
        base = symmetrize(fs)
        shuffled = fs[:]
        rng.shuffle(shuffled)
        assert symmetrize(shuffled) == base
    # multilinearity in one slot
    f, g, h = rand_poly(), rand_poly(), rand_poly()
    assert symmetrize([f + g, h]) == symmetrize([f, h]) + symmetrize([g, h])


def test_symmetrize_empty_rejected():
    with pytest.raises(ValueError):
        symmetrize([])


def second_constraint_oracle():
    """Expand {THH} - {{TH}H} - (1/12)[[T,H],H] with raw word tallies."""
    tally = Counter()
    # {T H H}
    for order in permutations(("T", "H", "H")):
        tally[order] += Fraction(1, 6)
    # {{T H} H}: {TH} = (TH + HT)/2, then average the two slots
    for inner in (("T", "H"), ("H", "T")):
        tally[inner + ("H",)] -= Fraction(1, 4)
        tally[("H",) + inner] -= Fraction(1, 4)
    # (1/12)[[T,H],H] = (1/12)(THH - 2 HTH + HHT)
    tally[("T", "H", "H")] -= Fraction(1, 12)
    tally[("H", "T", "H")] += Fraction(2, 12)
    tally[("H", "H", "T")] -= Fraction(1, 12)
    return {w: c for w, c in tally.items() if c}


def test_second_constraint_identity():
    t, h = NcPoly.gen("T"), NcPoly.gen("H")
    assert second_constraint_oracle() == {}
    assert second_constraint_residual(t, h).is_zero()
    assert requirement_form_residual(t, h).is_zero()
    # degenerate: T = H makes every bracket vanish
    assert second_constraint_residual(h, h).is_zero()
    assert commutator(commutator(h, h), h).is_zero()


def test_second_constraint_polynomial_inputs():
    rng = random.Random(4)
    pool = (G("T"), G("H"), G("Z"))

    def rand_poly():
        out = NcPoly.zero()
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            out = out + NcPoly.from_word(w, rng.randint(-2, 2))
        return out

    for _ in range(10):
        assert second_constraint_residual(rand_poly(), rand_poly()).is_zero()


def test_symmetrizer_commutator_identity_abc():
    result = symmetrizer_commutator_identity()
    assert result.ok()
    # the reduced difference is exactly (1/12)(ABC - 2 ACB + CAB)
    assert words_of(result.reduced_difference) == {
        ("A", "B", "C"): Fraction(1, 12),
        ("A", "C", "B"): Fraction(-1, 6),
        ("C", "A", "B"): Fraction(1, 12),
    }


def test_third_constraint():
    t, h = NcPoly.gen("Theta"), NcPoly.gen("H")
    hdot = NcPoly.gen("H", primes=1)
    result = third_constraint_check(t, h, hdot)
    assert result.expansion_double.is_zero()
    assert result.expansion_dotted.is_zero()
    assert result.ratio == Fraction(1, 12)
    assert result.ratio_residual.is_zero()


def test_second_level_symmetrized_display():
    # operator image of theta'' = h' theta + h^2 theta:
    # (1/3)(T H H + H T H + H H T) + (1/2)(T H' + H' T)
    t, h = NcPoly.gen("Theta"), NcPoly.gen("H")
    hdot = NcPoly.gen("H", primes=1)
    got = symmetrized_level(derivative_tower(2)[1], t, [h, hdot])
    third = Scalar.rational(1, 3)
    half = Scalar.rational(1, 2)
    want = ((t * h * h + h * t * h + h * h * t).scaled(third)
            + (t * hdot + hdot * t).scaled(half))
    assert got == want


def test_third_constraint_displayed_formula():
    # {T''}^dot must reproduce {{TH}HH}-style display from the level-2 terms
    t, h = NcPoly.gen("Theta"), NcPoly.gen("H")
    hdot, hddot = NcPoly.gen("H", primes=1), NcPoly.gen("H", primes=2)
    tower = derivative_tower(2)
    got = symmetrized_level_dot(tower[1], t, [h, hdot, hddot])
    want = (symmetrize([symmetrize([t, h]), h, h])
            + symmetrize([t, h, hdot]).scaled(2)
            + symmetrize([symmetrize([t, h]), hdot])
            + symmetrize([t, hddot]))
    assert got == want
    got3 = symmetrized_level(derivative_tower(3)[2], t, [h, hdot, hddot])
    want3 = (symmetrize([t, h, h, h]) + symmetrize([t, h, hdot]).scaled(3)
             + symmetrize([t, hddot]))
    assert got3 == want3


def test_curvature_form():
    for n in (1, 2, 3):
        residuals, summed = curvature_form_check(n)
        assert len(residuals) == n * n
        assert all(p.is_zero() for p in residuals.values())
        assert summed.is_zero()
    # n = 1: the curvature term [[H_1, H_1], T_11] vanishes on its own
    h1, t11 = NcPoly.gen("H", 1), theta_sym(1, 1)
    assert commutator(commutator(h1, h1), t11).is_zero()
    assert theta_sym(2, 1) == theta_sym(1, 2)


def test_first_constraint_quadratic():
    assert first_constraint_residual(1).is_zero()
    assert first_constraint_residual(2).is_zero()


def test_first_constraint_one_dimensional_expansion():
    # hand expansion: [theta, H] = g theta' P - g theta''/2 - g' theta'/2
    system = FLAT_FN
    theta = NcPoly.gen("theta")
    lhs = reduce_poly(commutator(theta, quadratic_hamiltonian(1)), system)
    g = NcPoly.from_word((G("g", 1, 1),))
    gp = NcPoly.from_word((G("g", 1, 1, derivs=(1,)),))
    tp = NcPoly.gen("theta", derivs=(1,))
    tpp = NcPoly.gen("theta", derivs=(1, 1))
    want = g * tp * P(1) - (g * tpp) / Scalar.rational(2) - (gp * tp) / Scalar.rational(2)
    assert lhs == reduce_poly(want, system)


def test_constant_observable_trivial():
    system = FLAT_FN
    c = NcPoly.from_scalar(Scalar.param("c"))
    h = quadratic_hamiltonian(1)
    assert reduce_poly(commutator(c, h), system).is_zero()
    assert reduce_poly(commutator(c, P(1)), system).is_zero()


# -- derivative tower ----------------------------------------------------------

def test_tower_displayed_levels():
    h, t = hsym, THETA
    tower = derivative_tower(5)
    assert tower[0].polynomial == CPoly.monomial((h(0), t))
    assert tower[1].polynomial == (CPoly.monomial((h(1), t))
                                   + CPoly.monomial((h(0), h(0), t)))
    assert tower[2].polynomial == (CPoly.monomial((h(2), t))
                                   + CPoly.monomial((h(1), h(0), t), 3)
                                   + CPoly.monomial((h(0),) * 3 + (t,)))
    level4 = (CPoly.monomial((h(0),) * 4 + (t,))
              + CPoly.monomial((h(0), h(0), t, h(1)), 6)
              + CPoly.monomial((t, h(1), h(1)), 3)
              + CPoly.monomial((h(0), t, h(2)), 4)
              + CPoly.monomial((t, h(3))))
    assert tower[3].polynomial == level4
    level5 = (CPoly.monomial((h(0),) * 5 + (t,))
              + CPoly.monomial((h(0),) * 3 + (t, h(1)), 10)
              + CPoly.monomial((h(0), t, h(1), h(1)), 15)
              + CPoly.monomial((h(0), h(0), t, h(2)), 10)
              + CPoly.monomial((t, h(1), h(2)), 10)
              + CPoly.monomial((h(0), t, h(3)), 5)
              + CPoly.monomial((t, h(4))))
    assert tower[4].polynomial == level5


def test_tower_triangular_numbers():
    tower = derivative_tower(7)
    got = [hprime_coefficient(tower[n - 1]) for n in range(2, 8)]
    assert got == [1, 3, 6, 10, 15, 21]
    assert got == [Fraction(n * (n - 1), 2) for n in range(2, 8)]


def test_tower_hprime_squared_series():
    tower = derivative_tower(12)
    got = [hprime2_coefficient(tower[n - 1]) for n in range(4, 13)]
    assert got[0] == 3 and got[1] == 15
    # eventually constant after four discrete differentiations
    seq = list(got)
    for _ in range(4):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    assert len(set(seq)) == 1
    # the tail of the quoted series continues the computed one
    assert got == [3, 15, 45, 105, 210, 378, 630, 990, 1485]


def bell_oracle(count):
    bells = [1]
    row = [1]
    for _ in range(count):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        bells.append(new[0])
        row = new
    return bells


def test_tower_coefficient_sums_are_bell_numbers():
    tower = derivative_tower(10)
    sums = [lvl.polynomial.coefficient_sum() for lvl in tower]
    assert sums == bell_oracle(10)[1:]


def test_tower_chain_and_errors():
    tower = derivative_tower(6)
    for a, b in zip(tower, tower[1:]):
        assert a.polynomial.derive() == b.polynomial
        assert b.level == a.level + 1
    with pytest.raises(ValueError):
        derivative_tower(0)


def test_cpoly_text():
    tower = derivative_tower(4)
    assert tower[0].polynomial.to_text() == "h theta"
    assert tower[1].polynomial.to_text() == "h^2 theta + h' theta"
    assert "h'^2 theta" in tower[3].polynomial.to_text()


def test_match_ratio_skips_missing_and_parameter_words():
    from ncworlds.constraints import _match_ratio
    a, b, c = NcPoly.gen("A"), NcPoly.gen("B"), NcPoly.gen("C")
    hbar = Scalar.param("hbar")
    # A is missing from diff and B carries a parameter: both are skipped
    target = a + b + c.scaled(2)
    diff = b.scaled(hbar) + c.scaled(Fraction(1, 3))
    assert _match_ratio(diff, target) == Fraction(1, 6)
    # a rational-constant Scalar counts as its number
    three = a.scaled(hbar * 3) * NcPoly.from_scalar(hbar.inverse())
    assert isinstance(three.coeff((G("A"),)), Scalar)
    assert _match_ratio(three, a.scaled(4)) == Fraction(3, 4)
    assert _match_ratio(b, a) is None


def partitions(n, largest=None):
    """The multiplicity shapes of n factors: partitions of n, largest first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def brute_force_symmetrize(factors):
    """Sum of the product over every ordering of the list, divided by n!."""
    total, count = NcPoly.zero(), 0
    for order in permutations(factors):
        product = NcPoly.one()
        for f in order:
            product = product * f
        total, count = total + product, count + 1
    return total.scaled(Fraction(1, count))


def test_partitions_oracle_itself():
    assert [sum(1 for _ in partitions(n)) for n in range(1, 7)] == [1, 2, 3, 5, 7, 11]


@cache
def bell_level(n):
    """Level n of the tower, theta times the complete Bell polynomial
    B_n(h, h', ...), as (symbols, coefficient) pairs: one term per partition
    of n, a part j standing for h^(j-1), and the term with k_j parts j having
    coefficient n! / prod_j (k_j! (j!)^k_j) (Comtet, Advanced Combinatorics,
    1974)."""
    return [((THETA,) + tuple(hsym(j - 1) for j in parts),
             factorial(n) // prod(factorial(k) * factorial(j) ** k
                                  for j, k in Counter(parts).items()))
            for parts in partitions(n)]


def bell_level_disagreements(n, poly):
    """Where ``poly`` departs from ``bell_level(n)``."""
    wrong = []
    count, want_count = len(poly.terms()), len(bell_level(n))
    if count != want_count:
        wrong.append(("term count", count, want_count))
    for syms, want in bell_level(n):
        if poly.coeff(syms) != want:
            wrong.append((syms, poly.coeff(syms), want))
    return wrong


@pytest.fixture(scope="module")
def tower30():
    return derivative_tower(30)


def test_tower_is_theta_times_the_complete_bell_polynomial(tower30):
    for lvl in tower30:
        assert bell_level_disagreements(lvl.level, lvl.polynomial) == []
    assert len(tower30[-1].polynomial.terms()) == 5604  # p(30)


def test_bell_oracle_rejects_a_bumped_or_dropped_term(tower30):
    level = tower30[-1].polynomial
    m, c = level.terms()[len(level.terms()) // 2]
    [(_, got, want)] = bell_level_disagreements(30, level + CPoly.monomial(m))
    assert (got, want) == (c + 1, c)
    count, (_, got, want) = bell_level_disagreements(30, level - CPoly.monomial(m, c))
    assert count == ("term count", 5603, 5604)
    assert (got, want) == (0, c)


# distinct factors, several of them not single generators
SHAPE_FACTORS = (
    NcPoly.gen("A"),
    NcPoly.gen("B") + NcPoly.gen("C").scaled(2),
    NcPoly.from_scalar(Fraction(-1, 3)) + NcPoly.gen("A") * NcPoly.gen("C"),
    NcPoly.gen("D").scaled(Scalar.param("hbar")),
    NcPoly.gen("C"),
    NcPoly.gen("A") - NcPoly.gen("B"),
)


@pytest.mark.parametrize("shape", [s for n in range(1, 7) for s in partitions(n)],
                         ids=lambda s: "-".join(map(str, s)))
def test_symmetrize_matches_the_permutation_average_for_every_shape(shape):
    factors = [f for f, m in zip(SHAPE_FACTORS, shape) for _ in range(m)]
    random.Random(len(factors)).shuffle(factors)
    assert symmetrize(factors) == brute_force_symmetrize(factors)
