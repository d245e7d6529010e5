import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncworlds.scalar import Scalar
from ncworlds.skewdiff import (Sequence, SkewElement, Vec3, WindowError,
                               as_skew, constant, cross, delta, dot,
                               em_fields, em_theorem_residuals, epsilon,
                               epsilon_identity_check, modified_leibniz_residual,
                               nabla, partial_spatial, partial_t,
                               position_velocity_commutator, wick_heisenberg)


def rand_seq(rng, length=12, spread=3, start=0):
    return Sequence([rng.randint(-spread, spread) for _ in range(length)], start)


def rand_vec(rng, length=12, spread=3):
    return Vec3.of([rand_seq(rng, length, spread) for _ in range(3)])


# -- windows -----------------------------------------------------------------

def test_shift_consumes_a_tick():
    f = Sequence([10, 20, 30, 40])
    g = f.shift(1)
    assert g.start == 0 and g.values == f.values[1:]
    assert g.end == f.end - 1
    assert f.shift(3).values == (Scalar.rational(40),)


def test_negative_shift_power_rejected():
    with pytest.raises(ValueError):
        SkewElement({-1: Sequence([1, 2])})


def test_shift_exhaustion():
    f = Sequence([1, 2])
    with pytest.raises(WindowError):
        f.shift(2)
    with pytest.raises(WindowError):
        Sequence([])


def test_pointwise_ops_on_overlap():
    f = Sequence([1, 2, 3, 4], start=0)
    g = Sequence([10, 20], start=2)
    h = f + g
    assert h.start == 2 and h.values == (Scalar.rational(13), Scalar.rational(24))
    with pytest.raises(WindowError):
        f + Sequence([1], start=9)


def test_skew_rule_f_j_equals_j_f_shifted():
    rng = random.Random(1)
    f = rand_seq(rng)
    j = SkewElement.shift_term(1, constant(1, 0, 12))
    (power, seq), = (as_skew(f) * j).terms()
    # f J = J f' : the payload is f advanced one tick
    assert power == 1
    assert (seq - f.shift(1)).is_zero()


def test_product_collects_powers():
    rng = random.Random(2)
    f, g = rand_seq(rng), rand_seq(rng)
    jf = SkewElement({1: f})
    jg = SkewElement({1: g})
    (power, seq), = (jf * jg).terms()
    assert power == 2
    assert (seq - f.shift(1) * g).is_zero()


def test_nabla_constant_vanishes():
    assert nabla(constant(5, 0, 8)).is_zero()


def test_nabla_linear_ramp():
    f = Sequence([t for t in range(10)])
    (power, seq), = nabla(f).terms()
    assert power == 1 and seq.is_constant() and seq.values[0] == Scalar.one()


def test_nabla_leibniz_exact_and_raw_rule():
    rng = random.Random(3)
    for _ in range(20):
        f, g = rand_seq(rng), rand_seq(rng)
        fs, gs = as_skew(f), as_skew(g)
        assert (nabla(fs * gs) - nabla(fs) * gs - fs * nabla(gs)).is_zero()
        # raw difference operator: D(fg) = D(f) g + f' D(g), not plain Leibniz
        assert (delta(f * g) - delta(f) * g - f.shift(1) * delta(g)).is_zero()
    # and the unshifted rule genuinely fails on some input
    f = Sequence([0, 1, 0, 1])
    g = Sequence([0, 2, 4, 6])
    assert not (delta(f * g) - delta(f) * g - f * delta(g)).is_zero()


def test_position_velocity_commutator_pointwise():
    rng = random.Random(4)
    tau = Scalar.param("tau")
    for _ in range(10):
        x = rand_seq(rng)
        got = position_velocity_commutator(x, tau)
        want = SkewElement({1: delta(x) * delta(x) * tau.inverse()})
        assert (got - want).is_zero()


def test_commutator_constant_iff_square_step_constant():
    alternating = Sequence([t % 2 for t in range(10)])
    (power, seq), = position_velocity_commutator(alternating).terms()
    assert power == 1 and seq.is_constant() and seq.values[0] == Scalar.one()

    linear = Sequence([3 * t for t in range(10)])
    (_, seq), = position_velocity_commutator(linear).terms()
    assert seq.is_constant() and seq.values[0] == Scalar.rational(9)

    uneven = Sequence([0, 1, 3, 4, 6, 7, 9])
    (_, seq), = position_velocity_commutator(uneven).terms()
    assert not seq.is_constant()


def test_brownian_walk_diffusion_constant():
    rng = random.Random(5)
    step, tau, k = Scalar.param("s"), Scalar.param("tau"), Scalar.param("k")
    values = [Scalar.zero()]
    for _ in range(11):
        values.append(values[-1] + step * rng.choice((1, -1)))
    (power, seq), = position_velocity_commutator(Sequence(values), tau).terms()
    assert power == 1
    want = step * step / tau
    assert all(v == want for v in seq.values)
    # encode step^2 = k tau: the commutator coefficient becomes the diffusion constant
    assert want.substitute_square("s", k * tau) == k


# -- epsilon and vectors -------------------------------------------------------

def test_epsilon_values():
    assert epsilon(1, 2, 3) == epsilon(2, 3, 1) == epsilon(3, 1, 2) == 1
    assert epsilon(3, 2, 1) == epsilon(2, 1, 3) == epsilon(1, 3, 2) == -1
    assert epsilon(1, 1, 2) == epsilon(2, 2, 2) == 0


def test_epsilon_identity_all_81():
    rows = epsilon_identity_check()
    assert len(rows) == 81
    assert all(lhs == rhs for _, lhs, rhs in rows)
    table = {t: lhs for t, lhs, _ in rows}
    assert table[(1, 2, 1, 2)] == 1
    assert table[(1, 2, 2, 1)] == -1
    assert all(table[(a, a, c, d)] == 0
               for a in (1, 2, 3) for c in (1, 2, 3) for d in (1, 2, 3))


def test_cross_of_commuting_vector_with_itself():
    rng = random.Random(6)
    x = rand_vec(rng)
    assert cross(x, x).is_zero()


def test_triple_product_identity_commuting():
    rng = random.Random(7)
    for _ in range(10):
        a, b, c = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        ac, ab = dot(a, c), dot(a, b)
        rhs = b.map(lambda f: ac * f) - c.map(lambda f: ab * f)
        assert (cross(a, cross(b, c)) - rhs).is_zero()


# -- fields ---------------------------------------------------------------------

def test_magnetic_field_is_shifted_step_cross():
    rng = random.Random(8)
    seqs = [rand_seq(rng) for _ in range(3)]
    x = Vec3.of(seqs)
    _, _, b = em_fields(x)
    dx = [delta(f) for f in seqs]
    dx1 = [f.shift(1) for f in dx]
    for k in (1, 2, 3):
        want = sum((dx1[i - 1] * dx[j - 1] * epsilon(i, j, k)
                    for i in (1, 2, 3) for j in (1, 2, 3) if epsilon(i, j, k)),
                   start=constant(0, 0, len(seqs[0])))
        assert (b.comp(k) - SkewElement({2: want})).is_zero()


def test_electric_field_discrete_form():
    rng = random.Random(9)
    seqs = [rand_seq(rng) for _ in range(3)]
    x = Vec3.of(seqs)
    _, e, _ = em_fields(x)

    def cross_seq(a, b):
        return [sum((a[i - 1] * b[j - 1] * epsilon(i, j, k)
                     for i in (1, 2, 3) for j in (1, 2, 3) if epsilon(i, j, k)),
                    start=constant(0, 0, len(seqs[0]))) for k in (1, 2, 3)]

    dx = [delta(f) for f in seqs]
    dx1 = [f.shift(1) for f in dx]
    dx2 = [f.shift(2) for f in dx]
    d2x = [delta(delta(f)) for f in seqs]
    triple = cross_seq(dx2, cross_seq(dx1, dx))
    for k in (1, 2, 3):
        want = SkewElement({2: d2x[k - 1]}) - SkewElement({3: triple[k - 1]})
        assert (e.comp(k) - want).is_zero()


def test_em_theorem_on_random_series():
    rng = random.Random(10)
    nonzero = 0
    trials = 25
    for _ in range(trials):
        x = rand_vec(rng)
        res, b = em_theorem_residuals(x)
        assert res.all_zero()
        if not cross(b, b).is_zero():
            nonzero += 1
    assert nonzero >= trials * 9 // 10


def test_em_linear_series_fields_vanish():
    x = Vec3.of([Sequence([2 * t for t in range(12)]),
                 Sequence([-t for t in range(12)]),
                 Sequence([5 * t for t in range(12)])])
    _, e, b = em_fields(x)
    assert e.is_zero() and b.is_zero()
    res, _ = em_theorem_residuals(x)
    assert res.all_zero()


def test_em_window_too_short():
    x = Vec3.of([Sequence([1, 2, 3]), Sequence([0, 1, 1]), Sequence([2, 0, 1])])
    with pytest.raises(WindowError):
        em_theorem_residuals(x)


def test_modified_leibniz():
    rng = random.Random(11)
    x = rand_vec(rng)
    xdot = x.map(lambda f: nabla(f))
    one = as_skew(constant(1, 0, 12))
    assert modified_leibniz_residual(one, one, x).is_zero()
    for _ in range(10):
        f, g = as_skew(rand_seq(rng)), as_skew(rand_seq(rng))
        assert modified_leibniz_residual(f, g, x).is_zero()
    assert modified_leibniz_residual(xdot.c1, xdot.c2, x).is_zero()


def test_spatial_derivative_of_commuting_scalar():
    # for a commuting scalar series F, [F, xdot_i] collapses to Fdot . delta_i;
    # the collapse uses pointwise commutativity, so it is model-specific
    rng = random.Random(21)
    for _ in range(10):
        seqs = [rand_seq(rng) for _ in range(3)]
        x = Vec3.of(seqs)
        xdot = x.map(lambda f: nabla(f))
        f = rand_seq(rng)
        for i in (1, 2, 3):
            lhs = partial_spatial(as_skew(f), xdot, i)
            rhs = nabla(f) * as_skew(delta(seqs[i - 1]))
            assert (lhs - rhs).is_zero()


def test_partial_t_not_plain_leibniz():
    # the temporal derivative needs the correction term for some inputs
    rng = random.Random(12)
    found = False
    x = rand_vec(rng)
    xdot = x.map(lambda f: nabla(f))
    for _ in range(10):
        f, g = as_skew(rand_seq(rng)), as_skew(rand_seq(rng))
        plain = (partial_t(f * g, xdot) - partial_t(f, xdot) * g
                 - f * partial_t(g, xdot))
        if not plain.is_zero():
            found = True
            break
    assert found


def test_skew_associativity():
    rng = random.Random(13)
    for _ in range(15):
        def rand_el():
            powers = rng.sample((0, 1, 2), k=rng.randint(1, 2))
            return SkewElement({p: rand_seq(rng) for p in powers})
        a, b, c = rand_el(), rand_el(), rand_el()
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_wick_rotation():
    report = wick_heisenberg()
    hbar, m = Scalar.param("hbar"), Scalar.param("m")
    assert report.velocity_commutator == hbar / m
    assert report.heisenberg == Scalar.imag_unit() * hbar
    assert report.holds()
    # with a frozen walk the commutator is zero: the hbar -> 0 degeneration
    frozen = position_velocity_commutator(constant(3, 0, 6))
    assert frozen.is_zero()


# -- mixed storage: plain rationals and Scalars ----------------------------------

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
params = st.builds(lambda c, name, e: Scalar.param(name, e, c),
                   fractions, st.sampled_from(("hbar", "tau")), st.integers(-2, 2))
values = st.one_of(st.integers(-4, 4), fractions, fractions.map(Scalar.rational),
                   params, st.builds(operator.add, params, st.integers(-2, 2)))
windows = st.tuples(st.lists(values, min_size=1, max_size=6), st.integers(-2, 2))


def check_against(result, start, want):
    """``result`` holds the Scalars ``want`` from ``start`` on."""
    assert result.start == start and len(result) == len(want)
    assert all(result.at(start + n) == w for n, w in enumerate(want))
    expected = Sequence(want, start)
    assert result == expected and hash(result) == hash(expected)
    assert result.is_zero() == all(w.is_zero() for w in want)
    assert result.to_text() == f"({', '.join(w.to_text() for w in want)})@{start}"


def test_constructor_stores_rational_constants_as_plain_numbers():
    hbar = Scalar.param("hbar")
    f = Sequence([Scalar.rational(4, 2), Fraction(1, 2), Scalar.zero(), 3, hbar])
    assert [type(v) for v in f.values] == [int, Fraction, int, int, Scalar]
    assert f.values == (2, Fraction(1, 2), 0, 3, hbar)


def test_sequences_equal_across_storage_hash_alike():
    a = Scalar.param("hbar")
    product = Sequence([a]) * Sequence([a.inverse()])
    assert isinstance(product.values[0], Scalar)
    assert product == Sequence([1])
    assert len({product, Sequence([1])}) == 1


@settings(max_examples=150, deadline=None)
@given(windows, windows, values)
def test_mixed_sequence_arithmetic_matches_scalar_reference(fw, gw, k):
    (fv, fs), (gv, gs) = fw, gw
    f, g = Sequence(fv, fs), Sequence(gv, gs)
    fref = [Scalar.coerce(v) for v in fv]
    gref = [Scalar.coerce(v) for v in gv]
    lo = max(fs, gs)
    hi = min(fs + len(fv), gs + len(gv))
    for op in (operator.add, operator.sub, operator.mul):
        if lo >= hi:
            with pytest.raises(WindowError):
                op(f, g)
            continue
        want = [op(fref[t - fs], gref[t - gs]) for t in range(lo, hi)]
        check_against(op(f, g), lo, want)
    check_against(-f, fs, [-v for v in fref])
    check_against(f * k, fs, [v * Scalar.coerce(k) for v in fref])
    check_against(k * f, fs, [v * Scalar.coerce(k) for v in fref])
    for b in range(len(fv)):
        check_against(f.shift(b), fs, fref[b:])
    assert (f == g) == (fs == gs and fref == gref)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32))
def test_em_theorem_with_parameter_entries_and_tick(seed):
    rng = random.Random(seed)
    hbar, tau = Scalar.param("hbar"), Scalar.param("tau", -1)
    pool = (hbar, tau, hbar * tau, 1)
    x = Vec3.of([Sequence([rng.randint(-2, 2) * rng.choice(pool) for _ in range(8)])
                 for _ in range(3)])
    res, _ = em_theorem_residuals(x, dt=Scalar.param("dt"))
    assert res.all_zero()
