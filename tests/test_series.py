import random
from fractions import Fraction as F
from math import comb, factorial, lcm

import pytest

from cassoc.exact import ext_bernoulli_recursive
from cassoc.series import QQ, BiSeries, UniSeries, _linear_power_table, exp_linear, standard_series
from cassoc.zeta import ring_for_degree, theta_series

LAM = BiSeries.monomial(QQ, 1, 0, F(1), 12)
MU = BiSeries.monomial(QQ, 0, 1, F(1), 12)
ONE = BiSeries.constant(QQ, F(1), 12)

SUB_MU_RHO = ((0, 1), (-1, -1))
SUB_NEG = ((-1, 0), (0, -1))


def rand_series(rng, order=12, terms=6):
    coeffs = {}
    for _ in range(terms):
        k = rng.randint(0, order)
        l = rng.randint(0, order - k)
        coeffs[(k, l)] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return BiSeries(QQ, coeffs, order)


def test_substitute_monomials():
    assert LAM.substitute_linear(SUB_MU_RHO) == MU
    assert (LAM * MU).substitute_linear(SUB_NEG) == LAM * MU


def test_substitute_swap_even_odd():
    s = LAM + LAM * MU
    assert s.even_part() + s.odd_part() == s
    assert LAM.even_part().is_zero() and LAM.odd_part() == LAM
    lm = LAM * MU
    assert lm.even_part() == lm and lm.odd_part().is_zero()
    assert s.even_part().even_part() == s.even_part()


def test_substitute_composition():
    rng = random.Random(5)
    m1 = ((1, 2), (0, -1))
    m2 = ((-1, -1), (1, 0))
    prod = (
        (m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0], m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
        (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0], m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]),
    )
    for _ in range(5):
        s = rand_series(rng)
        assert s.substitute_linear(m1).substitute_linear(m2) == s.substitute_linear(prod)


def test_non_rational_coefficients_raise():
    with pytest.raises(TypeError):
        BiSeries(QQ, {(1, 0): 0.5, (0, 1): F(1)}, 3)
    # nor can one be written past the constructor: the view is read-only
    s = BiSeries(QQ, {(0, 1): F(1)}, 3)
    with pytest.raises(TypeError):
        s.coeffs[(1, 0)] = 0.5
    assert s.coeffs == {(0, 1): 1} and s * s == BiSeries.monomial(QQ, 0, 2, F(1), 3)
    with pytest.raises(TypeError):
        UniSeries(QQ, [F(0), 0.5], 1).as_biseries((1, 1))
    # nor may a float or a string enter as an entry of a substitution matrix
    for bad in (0.1, "1/2"):
        with pytest.raises(TypeError):
            ONE.substitute_linear(((bad, 0), (0, 1)))
        with pytest.raises(TypeError):
            ONE.substitute_linear(((1, 0), (0, bad)))
        with pytest.raises(TypeError):
            UniSeries(QQ, [F(1), F(1)], 1).as_biseries((1, bad))


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(5):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_exp_log_roundtrip():
    zero = BiSeries(QQ, {}, 10)
    assert zero.exp() == BiSeries.constant(QQ, F(1), 10)
    s = BiSeries(QQ, {(1, 0): F(1), (0, 1): F(1)}, 10)
    assert s.exp().log() == s
    rng = random.Random(23)
    for _ in range(3):
        t = rand_series(rng, order=10)
        t = t - BiSeries.constant(QQ, t.coeff(0, 0), 10)
        assert t.exp().log() == t
        u = ONE.truncate(10) + t
        assert u.log().exp() == u
        assert u.sqrt() * u.sqrt() == u


def test_compose_geometric_series():
    rng = random.Random(29)
    t = rand_series(rng, order=10)
    t = t - BiSeries.constant(QQ, t.coeff(0, 0), 10)
    assert t.compose([F(1)] * 11) == (ONE.truncate(10) - t).inverse()
    assert t.compose([F(0), F(1)]) == t and t.compose([F(2)]) == ONE.truncate(10) * 2
    with pytest.raises(ValueError, match="without constant term"):
        ONE.compose([F(1), F(1)])


def test_exp_drinfeld_low_degree():
    # 1 + lam mu f starts 1 + lam mu / 6 because -2 theta_2 = 1/6
    s = BiSeries(QQ, {(1, 1): F(1, 6), (2, 0): F(-1, 12) + F(1, 12)}, 2)
    assert s.coeff(1, 1) == F(1, 6)
    e = BiSeries(QQ, {(1, 1): F(1, 6)}, 2).exp()
    assert e.coeff(0, 0) == 1 and e.coeff(1, 1) == F(1, 6)


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError, match="non-unit constant term"):
        ONE.exp()
    with pytest.raises(ValueError, match="non-unit constant term"):
        (LAM + MU).log()
    with pytest.raises(ValueError, match="non-unit constant term"):
        (LAM + MU).sqrt()


def test_divide_exact():
    q = (LAM * LAM + LAM * MU).divide_monomial(1, 0)
    assert q == (LAM + MU).truncate(10)
    em = standard_series("expm1_over_x", 8).as_biseries((1, 1), 8)
    assert em.coeff(0, 0) == 1
    assert em.coeff(1, 0) == F(1, 2) and em.coeff(0, 1) == F(1, 2)
    with pytest.raises(ArithmeticError, match="not divisible"):
        (LAM + ONE).divide_monomial(1, 0)
    with pytest.raises(ArithmeticError, match="not divisible"):
        (LAM + MU * MU).divide_lam_plus_mu()
    with pytest.raises(ArithmeticError, match="not divisible"):
        (ONE + LAM + MU).divide_lam_plus_mu()
    assert (LAM + MU).divide_lam_plus_mu() == BiSeries.constant(QQ, F(1), 11)


def test_divide_unit_inverse():
    rng = random.Random(31)
    t = rand_series(rng, order=10)
    u = ONE.truncate(10) + t - BiSeries.constant(QQ, t.coeff(0, 0), 10)
    assert u * u.inverse() == ONE.truncate(10)
    assert t * u * u.inverse() == t


def test_standard_series_x_over_expm1():
    s = standard_series("x_over_expm1", 6)
    assert s.coeff(0, 0) == 1
    assert s.coeff(1, 0) == F(-1, 2)
    assert s.coeff(2, 0) == F(1, 12)
    assert s.coeff(3, 0) == 0
    assert s.coeff(4, 0) == F(-1, 720)


def test_standard_series_two_x_over_sinh2x():
    s = standard_series("two_x_over_sinh2x", 8)
    assert s.coeff(0, 0) == 1
    assert s.coeff(2, 0) == F(-1, 6)
    assert s.coeff(4, 0) == F(7, 360)
    assert s.coeff(6, 0) == F(-31, 3 * 5040)
    assert s.coeff(8, 0) == F(127, 15 * 40320)


def test_standard_series_sinh_factor():
    s = standard_series("sinh_factor_bivariate", 6)
    assert s.coeff(0, 0) == 1
    assert s.coeff(2, 0) == F(1, 6) and s.coeff(1, 1) == F(2, 6)


def test_c_generating_low_terms():
    c = standard_series("c_generating_closed", 4)
    assert c.coeff(0, 0) == F(-1, 2)
    assert c.coeff(1, 0) == F(1, 12)
    assert c.coeff(0, 1) == F(-1, 12)
    assert c.coeff(1, 1) == F(1, 24)


def test_c_generating_matches_recursion_deg12():
    c = standard_series("c_generating_closed", 12)
    from math import factorial

    for m in range(1, 14):
        for n in range(1, 15 - m):
            if (n - 1) + (m - 1) <= 12:
                want = F(ext_bernoulli_recursive(m, n), factorial(m) * factorial(n))
                assert c.coeff(n - 1, m - 1) == want


def test_truncation_discipline():
    a = rand_series(random.Random(2), order=8)
    b = rand_series(random.Random(3), order=5)
    assert (a + b).order == 5
    assert (a * b).order == 5
    assert a.divide_lam_plus_mu().order == 7 if not a.coeffs.get((0, 0)) else True
    with pytest.raises(IndexError):
        (a * b).coeff(6, 0)


def test_records_roundtrip():
    s = BiSeries(QQ, {(0, 0): F(1, 6), (2, 1): F(-3, 7)}, 5)
    recs = s.to_records()
    assert recs == [
        {"k": 0, "l": 0, "coeff": "1/6"},
        {"k": 2, "l": 1, "coeff": "-3/7"},
    ]
    assert BiSeries.from_records(QQ, recs, 5) == s


def test_uniseries_as_biseries_direction():
    u = UniSeries(QQ, [F(0), F(1), F(2)], 2)
    b = u.as_biseries((1, 1), 2)
    assert b.coeff(1, 0) == 1 and b.coeff(0, 1) == 1
    assert b.coeff(2, 0) == 2 and b.coeff(1, 1) == 4 and b.coeff(0, 2) == 2


def test_a_uniseries_is_a_series_in_lam():
    u = UniSeries(QQ, [F(1), F(-1, 2), F(1, 12), 0.5], 2)  # the float past the order is dropped unread
    assert isinstance(u, BiSeries) and type(u).__slots__ == ()
    assert u.order == 2 and u.coeffs == {(0, 0): 1, (1, 0): F(-1, 2), (2, 0): F(1, 12)}
    assert u == BiSeries(QQ, {(0, 0): F(1), (1, 0): F(-1, 2), (2, 0): F(1, 12)}, 2)
    assert UniSeries(QQ, [F(1)], 3) == ONE.truncate(3)  # a short list is zero above it
    with pytest.raises(TypeError):
        u.coeffs[(3, 0)] = F(1)
    with pytest.raises(IndexError):
        u.coeff(3, 0)
    # as_biseries substitutes through the lower of the two orders
    assert u.as_biseries((1, 0), 5) == u and u.as_biseries((1, 0), 5).order == 2
    assert u.as_biseries((0, 1)).order == 2 and u.as_biseries((0, 1), 1) == BiSeries(QQ, {(0, 0): 1, (0, 1): F(-1, 2)}, 1)
    assert u.as_biseries((0, 1), 1).order == 1


def _termwise_mu_zero(s):
    """[c_0, ..., c_order] of s(lam, 0), read term by term off ``coeffs``."""
    cs = [s.ring.zero] * (s.order + 1)
    for (k, l), c in s.coeffs.items():
        if l == 0:
            cs[k] = c
    return cs


def _termwise_diagonal(s):
    """[c_0, ..., c_order] of s(lam, -lam), summed term by term over ``coeffs``."""
    cs = [s.ring.zero] * (s.order + 1)
    for (k, l), c in s.coeffs.items():
        cs[k + l] += -c if l % 2 else c
    return cs


def _rand_theta_series(rng, ring, order, terms=6):
    coeffs = {}
    for _ in range(terms):
        k = rng.randint(0, order)
        l = rng.randint(0, order - k)
        t = ring.generator(rng.choice(ring.gens)) * F(rng.randint(-9, 9), rng.randint(1, 9))
        coeffs[(k, l)] = t + ring.from_rational(F(rng.randint(-9, 9), rng.randint(1, 9)))
    return BiSeries(ring, coeffs, order)


@pytest.mark.parametrize("theta", [False, True], ids=["QQ", "theta"])
@pytest.mark.parametrize("order", range(17))
def test_restrictions_match_the_termwise_sums(order, theta):
    rng = random.Random(100 + order)
    ring = ring_for_degree(9) if theta else QQ
    for _ in range(3):
        s = _rand_theta_series(rng, ring, order) if theta else rand_series(rng, order, terms=8)
        s = s + BiSeries.monomial(QQ, order, 0, F(rng.randint(1, 9)), order)
        assert order == 0 or not s.is_symmetric()
        for got, want in ((s.set_mu_zero(), _termwise_mu_zero(s)), (s.diagonal(), _termwise_diagonal(s))):
            assert got.order == order and all(l == 0 for _, l in got.coeffs)
            assert [got.coeff(n, 0) for n in range(order + 1)] == want
            assert got == UniSeries(ring, want, order)


def test_the_linear_power_table_is_bounded_and_shared():
    _linear_power_table(F(1, 2), -1, 9, 3)
    info = _linear_power_table.cache_info()
    assert info.maxsize == 64 and info.currsize <= 64
    for args in ((F(1, 2), -1, 9, 3), (1, 0, 16, 0), (0, 0, 4, 0)):
        D, table = _linear_power_table(*args)
        assert (D, table) == _linear_power_table.__wrapped__(*args)
        assert _linear_power_table(*args)[1] is table and all(type(row) is tuple for row in table)
    # a bool is not the int it equals: it still meets the gate once 1 is cached
    with pytest.raises(TypeError):
        _linear_power_table(True, 0, 16, 0)


@pytest.mark.parametrize("a, b", [(0, 0), (1, 1), (0, 1), (-1, 0), (3, -2), (F(1, 2), F(-2, 3)), (F(-5, 4), 7)])
@pytest.mark.parametrize("order", [0, 1, 7, 16])
def test_exp_linear_closed_form_matches_exp(a, b, order):
    got = exp_linear(a, b, order)
    want = BiSeries(QQ, {(1, 0): a, (0, 1): b}, order).exp()
    assert got.order == order and got == want and got.coeffs == want.coeffs


@pytest.mark.parametrize("seed", range(6))
def test_exp_linear_matches_termwise_closed_form(seed):
    rng = random.Random(seed)
    a, b = (F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9)) for _ in range(2))
    for a, b in ((a, b), (0, b), (a, 0), (0, 0)):
        for order in (0, 3, 16):
            want = {
                (k, l): F(a) ** k * F(b) ** l / (factorial(k) * factorial(l))
                for k in range(order + 1)
                for l in range(order + 1 - k)
            }
            got = exp_linear(a, b, order)
            assert got.order == order and got.coeffs == {kl: c for kl, c in want.items() if c}


@pytest.mark.parametrize("seed", range(6))
def test_linear_power_table_is_the_binomial_expansion(seed):
    rng = random.Random(seed)
    a, b = (F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
    for a, b in ((a, b), (0, b), (a, 0)):
        for bits in (0, 3):
            D, table = _linear_power_table(a, b, 12, bits)
            assert D == lcm(F(a).denominator, F(b).denominator)
            A, B = a * D, b * D
            assert len(table) == 13
            for k, row in enumerate(table):
                want = [((i << 8 | k - i) << bits, comb(k, i) * A**i * B ** (k - i)) for i in range(k + 1)]
                assert row == tuple((key, s) for key, s in want if s)


@pytest.mark.parametrize("seed", range(4))
def test_coeff_reads_the_integer_form_and_keeps_it(seed):
    rng = random.Random(seed)
    ring = ring_for_degree(9)
    theta = theta_series(9, ring)
    for s in (rand_series(rng, 9) * rand_series(rng, 9), rand_series(rng, 9) * theta + theta):
        view = (s * 1).coeffs  # the same values through a copy
        for k in range(s.order + 1):
            for l in range(s.order + 1 - k):
                assert s.coeff(k, l) == view.get((k, l), s.ring.zero)
        nums = s._nums
        assert s.coeffs is s.coeffs and s._nums is nums  # one view, over the same integer form


@pytest.mark.parametrize("theta", [False, True], ids=["QQ", "theta"])
def test_changing_the_constructors_dict_afterwards_leaves_the_series(theta):
    ring = ring_for_degree(9) if theta else QQ
    source = dict((theta_series(9, ring) if theta else rand_series(random.Random(5), 9)).coeffs)
    want = dict(source)
    s = BiSeries(ring, source, 9)
    source.clear()
    source[(1, 1)] = ring.one
    assert s.coeffs == want and s == BiSeries(ring, want, 9)


def test_orders_beyond_the_packed_key_raise():
    # l sits in 8 bits of a packed key, so an order above 255 cannot be held
    assert BiSeries(QQ, {(0, 255): F(1)}, 255).coeff(0, 255) == 1
    with pytest.raises(ValueError, match="above 255"):
        BiSeries(QQ, {}, 256)
    with pytest.raises(ValueError, match="above 255"):
        ONE.pad(256)
