import hashlib
from fractions import Fraction as F
from math import comb

import pytest

from cassoc import zeta
from cassoc.hexagon import AlphaTable, ParamSet, build_f, residual_15b, split_residuals
from cassoc.series import QQ, BiSeries, UniSeries
from cassoc.zeta import (
    ThetaRing,
    drinfeld_f,
    drinfeld_s,
    ring_for_degree,
    solve_betas_in_theta,
    theta_even,
    theta_series,
    verify_even_S_identity,
)


def test_theta_even_values():
    assert theta_even(1) == F(-1, 12)
    assert theta_even(2) == F(1, 360)
    assert theta_even(3) == F(-1, 5670)
    assert theta_even(4) == F(1, 75600)
    assert theta_even(5) == F(-1, 935550)


def test_theta_poly_arithmetic():
    ring = ThetaRing(9)
    t3 = ring.generator(3)
    t5 = ring.generator(5)
    p = t3 * t5 * F(2) + ring.from_rational(F(1, 3))
    q = p - t3 * t5 * F(2)
    assert q == ring.from_rational(F(1, 3))
    assert q.is_rational() and q.rational_part() == F(1, 3)
    assert p.odd_to_zero() == F(1, 3)
    assert (t3 * t3).max_weight() == 6
    assert (p / 2).rational_part() == F(1, 6)
    assert ring.inverse_of(ring.from_rational(F(2, 5))) == ring.from_rational(F(5, 2))
    with pytest.raises(ZeroDivisionError):
        ring.inverse_of(t3)


def test_theta_poly_rendering():
    ring = ThetaRing(5)
    t3 = ring.generator(3)
    p = t3 * t3 * F(9, 2) - ring.from_rational(F(1, 1890))
    assert "t3^2" in p.format()
    assert r"\theta_{3}^{2}" in p.format_latex()
    obj = p.to_json_obj()
    assert ring.parse_poly(obj) == p


@pytest.mark.parametrize(
    "obj, message",
    [
        pytest.param({"poly": [[[1], "1"]]}, "one entry per generator", id="short-vector"),
        pytest.param({"poly": [[[-1, 0], "1"]]}, "exponent must be an int", id="negative"),
        pytest.param({"poly": [[[1.5, 0], "1"]]}, "exponent must be an int", id="float"),
        pytest.param({"poly": [[[True, 0], "1"]]}, "exponent must be an int", id="bool"),
        pytest.param({"poly": [[[2**15, 0], "1"]]}, "exponent must be an int", id="too-wide"),
        pytest.param({"poly": [[[1, 0], "1"], [[1, 0], "2"]]}, "appears twice", id="repeated"),
        pytest.param({"nope": 1}, "theta polynomial must be", id="no-poly-key"),
        pytest.param({"poly": "x"}, "theta polynomial must be", id="not-a-list"),
        pytest.param({"poly": [[[1, 0], "1", "2"]]}, "theta term must be", id="not-a-pair"),
    ],
)
def test_parse_poly_rejects_malformed_input(obj, message):
    with pytest.raises(ValueError, match=message):
        ThetaRing(5).parse(obj)


def test_drinfeld_s_shape():
    s = drinfeld_s(6)
    ring = s.ring
    # s(lam, 0) = 0 and s is symmetric
    assert s.set_mu_zero().is_zero()
    assert s == s.swap()
    assert s.coeff(1, 1) == ring.from_rational(-2 * theta_even(1))


def test_drinfeld_f_coefficients():
    fd = drinfeld_f(7)
    ring = fd.ring
    t3, t5, t7 = ring.generator(3), ring.generator(5), ring.generator(7)
    q = ring.from_rational
    assert fd.coeff(0, 0) == q(F(1, 6))
    assert fd.coeff(1, 0) == t3 * F(-3)
    assert fd.coeff(2, 2) == t3 * t3 * F(9) + q(F(23, 3 * 5040))
    assert fd.coeff(3, 2) == t7 * F(-35) - t5 * F(5, 3) + t3 * F(1, 24)
    assert fd == fd.swap()


def test_even_S_identity():
    assert verify_even_S_identity(4)
    assert verify_even_S_identity(12)


def test_theta_series():
    ts = theta_series(5)
    ring = ts.ring
    t3 = ring.generator(3)
    assert ts.coeff(2, 1) == t3 * F(-3)
    assert ts.coeff(1, 2) == t3 * F(-3)
    assert all((k + l) % 2 == 1 for (k, l) in ts.coeffs)
    assert ts.diagonal().is_zero()
    # theta is the odd part of s, term by term the closed form
    s = drinfeld_s(5, ring)
    assert s.odd_part() == ts
    ring9 = ring_for_degree(9)
    assert theta_series(9, ring9).coeffs == {
        (i, g - i): ring9.generator(g) * F(-comb(g, i)) for g in (3, 5, 7, 9) for i in range(1, g)
    }


def test_theta_series_needs_every_odd_symbol_up_to_its_order():
    # a ring short of theta_11 is refused, never a series with theta_11 dropped
    with pytest.raises(ValueError, match="odd-symbol bound"):
        theta_series(12, ThetaRing(9))
    with pytest.raises(ValueError, match="odd-symbol bound"):
        solve_betas_in_theta(9, ThetaRing(9))
    # a larger ring adds no symbol above the order
    wide, exact = (theta_series(9, ThetaRing(n)).coeffs for n in (13, 9))
    assert {key: c.format() for key, c in wide.items()} == {key: c.format() for key, c in exact.items()}


def test_drinfeld_hexagon_residuals():
    fd = drinfeld_f(9)
    assert residual_15b(fd).is_zero()
    e, o = split_residuals(fd)
    assert e.is_zero() and o.is_zero()


def test_solve_betas_printed_parameters():
    params = solve_betas_in_theta(9)
    r = params.ring
    t3, t5, t7, t9 = (r.generator(n) for n in (3, 5, 7, 9))
    q = r.from_rational
    assert params.beta[(3, 1)] == t3 * t3 * F(9, 2) - q(F(8, 3 * 5040))
    assert params.beta[(4, 1)] == t3 * t5 * F(15) - t3 * t3 * F(3, 4) + q(F(44, 45 * 5040))
    assert params.beta_tilde[(0, 0)] == t3 * F(-3)
    assert params.beta_tilde[(1, 0)] == t5 * F(-5) + t3 * F(1, 2)
    assert params.beta_tilde[(2, 0)] == t7 * F(-7) + t5 * F(5, 6) - t3 * F(7, 120)
    assert params.beta_tilde[(3, 0)] == t9 * F(-9) + t7 * F(7, 6) - t5 * F(7, 72) + t3 * F(31, 5040)
    assert params.beta_tilde[(3, 1)] == t3 * t3 * t3 * F(-9, 2) - t9 * F(3) + t3 * F(1, 630)


def test_solve_betas_round_trip():
    # even N needs the even family through degree N + 2
    for N in (8, 9, 10):
        params = solve_betas_in_theta(N)
        assert build_f(params, N) == drinfeld_f(N, params.ring)


@pytest.mark.parametrize("N, digest", [
    (20, "66dd2b260986bfa91f4eb269a0abaad3cab128fe706b678f3d1426810fcc032c"),
    (24, "50fb3812bc175f0613f58129de8fab6ec068c68059ebf37bc44a5f65882c1bdd"),
])
def test_solve_betas_digest(N, digest):
    # every beta and beta~ through weight N as an odd-zeta polynomial
    assert hashlib.sha256(solve_betas_in_theta(N).to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("factor, perturbation", [
    # eps lam mu (lam + mu): h and h~ stay in the associator-polynomial span
    # but gain odd-degree parts
    ("sqrt", {(2, 1): F(1, 7), (1, 2): F(1, 7)}),
    # eps lam mu (lam + mu) w^4 of degree 7: only h, kept to degree N + 2, sees it
    ("sqrt", {(6, 1): F(1, 7), (5, 2): F(3, 7), (4, 3): F(5, 7), (3, 4): F(5, 7), (2, 5): F(3, 7), (1, 6): F(1, 7)}),
    # eps (lam mu (lam + mu))^2 in sinh(theta): only h~ gains an odd-degree part
    ("sinh", {(4, 2): F(1, 7), (3, 3): F(2, 7), (2, 4): F(1, 7)}),
    # eps lam^2: h is no longer symmetric
    ("sqrt", {(2, 0): F(1, 7)}),
])
def test_solve_betas_rejects_perturbed_series(monkeypatch, factor, perturbation):
    if factor == "sqrt":
        exact_sqrt = zeta._sqrt_sinhc_product
        monkeypatch.setattr(zeta, "_sqrt_sinhc_product", lambda n: exact_sqrt(n) + BiSeries(QQ, perturbation, n))
    else:
        exact_cosh_sinh = zeta._cosh_sinh

        def perturbed_cosh_sinh(s):
            cosh, sinh = exact_cosh_sinh(s)
            return cosh, sinh + BiSeries(QQ, perturbation, s.order)

        monkeypatch.setattr(zeta, "_cosh_sinh", perturbed_cosh_sinh)
    with pytest.raises(ArithmeticError, match="residual outside span"):
        solve_betas_in_theta(6)


def test_theta_json_round_trip():
    params = solve_betas_in_theta(9)
    back = ParamSet.from_json(params.to_json(), params.ring)
    assert back.beta == params.beta and back.beta_tilde == params.beta_tilde
    assert any(not v.is_rational() for v in params.beta.values())
    table = AlphaTable.from_series(drinfeld_f(7, params.ring))
    assert AlphaTable.from_json(table.to_json(), params.ring) == table


def test_odd_to_zero_recovers_even_family():
    from cassoc.hexagon import family_III

    fd = drinfeld_f(12)
    f3 = family_III(12)
    for kl in set(fd.coeffs) | set(f3.coeffs):
        assert fd.coeffs.get(kl, fd.ring.zero).odd_to_zero() == f3.coeffs.get(kl, F(0))


def test_weight_grading():
    fd = drinfeld_f(10)
    for (k, l), c in fd.coeffs.items():
        assert c.max_weight() <= k + l + 2


def test_cosh_side_is_one_on_diagonal():
    # both sides of the even identity collapse to 1 at mu = -lam
    from cassoc.zeta import _cosh_sinh, _sqrt_sinhc_product

    ring = ring_for_degree(9)
    th = theta_series(9, ring)
    lhs = _cosh_sinh(th)[0].diagonal()
    assert lhs.coeff(0, 0) == ring.one and all(
        ring.is_zero(lhs.coeff(n, 0)) for n in range(1, 10)
    )
    # and the right-hand side h * sqrt(...) collapses to 1 there as well
    from cassoc.hexagon import extract_h
    h = extract_h(drinfeld_f(7, ring))
    rhs = (h * _sqrt_sinhc_product(h.order).inverse().inverse()).diagonal()
    assert rhs.coeff(0, 0) == ring.one and all(ring.is_zero(rhs.coeff(n, 0)) for n in range(1, 8))


def test_ring_bound_guard():
    with pytest.raises(ValueError):
        drinfeld_s(12, ThetaRing(9))
    assert ring_for_degree(11).gens == (3, 5, 7, 9, 11)
    # the default ring is sized from the order, as drinfeld_f's is
    s = drinfeld_s(12)
    assert s.ring.gens == (3, 5, 7, 9, 11)
    assert s.coeff(10, 1) == s.ring.generator(11) * F(-11)


def test_theta_series_coefficients_lie_in_the_ring():
    ring, other = ThetaRing(5), ThetaRing(9)
    t3 = ring.generator(3)
    # the ring's own elements, and a ring with the same generators, enter
    assert BiSeries(ring, {(1, 0): ThetaRing(5).generator(5)}, 2).coeff(1, 0) == ring.generator(5)
    for bad in (0.5, F(1, 2), 1, True, None, other.generator(9), other.one):
        with pytest.raises(TypeError):
            BiSeries(ring, {(0, 0): bad}, 2)
        with pytest.raises(TypeError):
            UniSeries(ring, [ring.zero, bad], 2)
    s = BiSeries(ring, {(0, 0): t3, (1, 0): ring.one}, 2)
    # a scalar is a rational or an element of the ring
    assert s * F(1, 2) == s * ring.from_rational(F(1, 2)) == F(1, 2) * s
    assert s * t3 == s * BiSeries.constant(ring, t3, 2)
    for bad in (0.5, True, "1/2", other.generator(3), other.one):
        with pytest.raises(TypeError):
            s * bad
    # two theta rings combine only when their generators agree; QQ always does
    t = BiSeries(other, {(0, 0): other.generator(3)}, 2)
    q = BiSeries(QQ, {(0, 1): F(1, 3)}, 2)
    for pair in ((s, t), (t, s)):
        with pytest.raises(TypeError):
            pair[0] * pair[1]
        with pytest.raises(TypeError):
            pair[0] + pair[1]
    assert (s * q).ring is ring and (q + s).ring is ring


def test_compositions_over_theta_ring():
    from cassoc.zeta import _cosh_sinh

    ring = ring_for_degree(9)
    th = theta_series(9, ring)
    one = BiSeries.constant(ring, ring.one, 9)
    cosh, sinh = _cosh_sinh(th)
    assert cosh * cosh - sinh * sinh == one
    u = one + th
    assert th.exp().log() == th
    assert u.log().exp() == u
    assert u.sqrt() * u.sqrt() == u
    assert u * u.inverse() == one
