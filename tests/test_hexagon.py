import hashlib
import json
import random
from fractions import Fraction as F
from math import factorial

import pytest

from cassoc import hexagon, verify
from cassoc.golden import EXAMPLE_37_ALPHA, FAMILY_I_PRINTED, FAMILY_II_PRINTED, G_B_PARTS, T_B_PARTS
from cassoc.hexagon import (
    AlphaTable,
    ParamSet,
    associator_polynomial,
    build_f,
    decompose_symmetric_series,
    diagonal_series,
    extract_h,
    extract_h_tilde,
    extreme_coefficients,
    family_I,
    family_II,
    family_II_params,
    family_III,
    free_parameter_census,
    g_from_f,
    hexagon_symmetry_suite,
    is_associator_polynomial,
    model_hexagon_check,
    residual_15b,
    residual_39,
    solve_degreewise,
    split_residuals,
)
from cassoc.hexagon import _associator_basis, _operator_slice
from cassoc.series import QQ, BiSeries, exp_linear, standard_series

F_B3 = BiSeries(QQ, dict(EXAMPLE_37_ALPHA), 3)


def random_paramset(seed, nmax=6):
    rng = random.Random(seed)
    beta = {}
    bt = {}
    for n in range(3, nmax + 1):
        for k in range(1, n // 3 + 1):
            beta[(n, k)] = F(rng.randint(-9, 9), rng.randint(1, 7))
    for n in range(0, nmax - 1):
        for k in range(0, n // 3 + 1):
            bt[(n, k)] = F(rng.randint(-9, 9), rng.randint(1, 7))
    return ParamSet(beta, bt)


def test_g_from_f_trivial():
    zero = BiSeries(QQ, {}, 6)
    assert g_from_f(zero).is_zero()
    one = BiSeries.constant(QQ, F(1), 6)
    g = g_from_f(one)
    assert g.coeff(0, 0) == 1 and g.coeff(1, 0) == F(-1, 2) and g.coeff(2, 0) == F(1, 12)
    assert g.coeff(0, 1) == 0


def test_g_from_f_printed_expansion():
    g = g_from_f(F_B3)
    assert g.coeff(0, 0) == F(1, 6)
    assert g.coeff(1, 0) == F(-1, 12)
    assert g.homogeneous_part(2) == {(2, 0): F(1, 360), (1, 1): F(-1, 360), (0, 2): F(-4, 360)}
    assert g.homogeneous_part(3) == {(3, 0): F(4, 720), (2, 1): F(1, 720), (1, 2): F(4, 720)}


def test_substituted_g_expansions():
    g = g_from_f(F_B3)
    g_mr = g.substitute_linear(((0, 1), (-1, -1)))
    assert g_mr.coeff(0, 0) == F(1, 6)
    assert g_mr.homogeneous_part(1) == {(0, 1): F(-1, 12)}
    assert g_mr.homogeneous_part(2) == {(2, 0): F(-4, 360), (1, 1): F(-7, 360), (0, 2): F(-2, 360)}
    g_mr3 = g_mr.homogeneous_part(3)
    assert g_mr3 == {(2, 1): F(4, 720), (1, 2): F(7, 720), (0, 3): F(7, 720)}
    g_rl = g.substitute_linear(((-1, -1), (1, 0)))
    assert g_rl.homogeneous_part(1) == {(1, 0): F(1, 12), (0, 1): F(1, 12)}
    # the print shows -(2l^2+3lm+m^2)/360 here, but its own sum of the three
    # variants forces +3lm and +m^2; the engine value is the consistent one
    assert g_rl.homogeneous_part(2) == {(2, 0): F(-2, 360), (1, 1): F(3, 360), (0, 2): F(1, 360)}
    assert g_rl.homogeneous_part(3) == {
        (3, 0): F(-7, 720), (2, 1): F(-14, 720), (1, 2): F(-11, 720), (0, 3): F(-4, 720),
    }


def test_example_310_parts_and_residual():
    g = g_from_f(F_B3)
    g_mr = g.substitute_linear(((0, 1), (-1, -1)))
    g_rl = g.substitute_linear(((-1, -1), (1, 0)))
    G = g + g_mr + g_rl
    one = BiSeries.constant(QQ, F(1), 3)
    lam = BiSeries.monomial(QQ, 1, 0, F(1), 3)
    mu = BiSeries.monomial(QQ, 0, 1, F(1), 3)
    T = one + lam * g_mr - mu * g
    for d, parts in G_B_PARTS.items():
        assert G.homogeneous_part(d) == parts
    for d, parts in T_B_PARTS.items():
        assert T.homogeneous_part(d) == parts
    assert residual_39(F_B3).is_zero()


def test_residual_39_zero_input_gives_c():
    zero = BiSeries(QQ, {}, 8)
    assert residual_39(zero) == standard_series("c_generating_closed", 8)


def test_residual_15b_families():
    for f in (family_I(12), family_II(12), family_III(12)):
        assert residual_15b(f).is_zero()
        assert residual_39(f).is_zero()


def test_residual_15b_perturbed_constant():
    f = family_I(6)
    bad = f + BiSeries.constant(QQ, F(1), 6)
    res = residual_15b(bad)
    assert res.coeff(0, 0) != 0


def test_split_residuals():
    f = family_I(10)
    e, o = split_residuals(f)
    assert e.is_zero() and o.is_zero()
    even_only = family_III(10)
    e, o = split_residuals(even_only)
    assert e.is_zero() and o.is_zero()
    with pytest.raises(ValueError, match="asymmetric"):
        split_residuals(BiSeries(QQ, {(1, 0): F(1)}, 4))


def test_split_residuals_match_direct_halves():
    # each half with both substitutions written out, on symmetric tables that
    # are not solutions, so every coefficient of both halves is compared
    rng = random.Random(5)
    sub_mu_rho, sub_lam_rho = ((0, 1), (-1, -1)), ((1, 0), (-1, -1))
    for n in (6, 7, 8, 9):
        coeffs = {}
        for k in range(n + 1):
            for l in range(k, n + 1 - k):
                coeffs[(k, l)] = coeffs[(l, k)] = F(rng.randint(-9, 9), rng.randint(1, 5))
        f = BiSeries(QQ, coeffs, n)
        m = n + 3 - n % 2
        lam, mu = BiSeries.monomial(QQ, 1, 0, F(1), m), BiSeries.monomial(QQ, 0, 1, F(1), m)
        ft = (BiSeries.constant(QQ, F(1), m) + lam * mu * f.pad(m)).even_part()
        even = (
            (lam + mu) * ft
            - lam * exp_linear(0, 1, m) * ft.substitute_linear(sub_mu_rho)
            - mu * exp_linear(-1, 0, m) * ft.substitute_linear(sub_lam_rho)
        )
        g = f.odd_part()
        odd = (
            g
            + exp_linear(0, 1, n) * g.substitute_linear(sub_mu_rho)
            + exp_linear(-1, 0, n) * g.substitute_linear(sub_lam_rho)
        )
        e, o = split_residuals(f)
        assert (e.order, e.coeffs) == (m, even.coeffs) and not even.is_zero()
        assert (o.order, o.coeffs) == (n, odd.coeffs) and not odd.is_zero()


def test_residual_equivalence_random_params():
    for seed in range(20):
        f = build_f(random_paramset(seed), 10)
        assert f.is_symmetric()
        r15 = residual_15b(f)
        r39 = residual_39(f)
        e, o = split_residuals(f)
        assert r15.is_zero() and r39.is_zero() and e.is_zero() and o.is_zero()


def test_equivalence_chain_negative_control():
    # a non-solution must fail all three residual forms at once
    f = family_I(8)
    bad = f + BiSeries(QQ, {(2, 0): F(1, 7), (0, 2): F(1, 7)}, 8)
    assert not residual_15b(bad).is_zero()
    assert not residual_39(bad).is_zero()
    e, o = split_residuals(bad)
    assert not e.is_zero()


def test_extreme_coefficients():
    ec = extreme_coefficients(6)
    assert ec == [F(1, 6), F(-1, 90), F(1, 945), F(-1, 9450)]


def test_diagonal_series():
    d = diagonal_series(6)
    assert d.coeff(0, 0) == F(1, 6)
    assert d.coeff(2, 0) == F(-7, 360)
    assert d.coeff(4, 0) == F(31, 15120)
    assert d.coeff(6, 0) == F(-127, 604800)
    f = family_I(10)
    assert f.diagonal() == diagonal_series(10)


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_extreme_diagonal_check_sees_one_perturbed_diagonal_coefficient(monkeypatch, name):
    # lam^5 mu^3 adds -1 to f(lam, -lam) at lam^8, past the printed diagonal terms
    assert verify.check_extreme_diagonal() == (True, "extreme coefficients and diagonal series exact")
    family = getattr(hexagon, f"family_{name}")
    monkeypatch.setattr(hexagon, f"family_{name}", lambda n: family(n) + BiSeries.monomial(QQ, 5, 3, F(1), n))
    assert getattr(hexagon, f"family_{name}")(12).diagonal().coeff(8, 0) == diagonal_series(12).coeff(8, 0) - 1
    assert verify.check_extreme_diagonal() == (False, f"family {name} diagonal mismatch")


def test_associator_polynomials():
    f2 = associator_polynomial(2, [F(1)])
    assert f2 == BiSeries(QQ, {(2, 0): F(1), (1, 1): F(1), (0, 2): F(1)}, 2)
    f4 = associator_polynomial(4, [F(1)])
    assert f4.coeffs == {(4, 0): F(1), (3, 1): F(2), (2, 2): F(3), (1, 3): F(2), (0, 4): F(1)}
    f1 = associator_polynomial(1, [])
    assert f1.is_zero()
    # degree 6 family: delta = beta31 + 6 relation from the printed example
    b31 = F(3, 7)
    f6 = associator_polynomial(6, [F(1), b31])
    delta = b31 + 6
    assert f6.coeff(4, 2) == delta
    assert f6.coeff(3, 3) == 2 * delta - 5
    assert f6.coeff(5, 1) == 3 and f6.coeff(6, 0) == 1
    # degree 7 is unique up to scale
    f7 = associator_polynomial(7, [F(1)])
    assert f7.coeffs == {
        (6, 1): F(1), (5, 2): F(3), (4, 3): F(5), (3, 4): F(5), (2, 5): F(3), (1, 6): F(1),
    }
    for p in (f2, f4, f6, f7):
        assert is_associator_polynomial(p)
    assert not is_associator_polynomial(BiSeries(QQ, {(2, 0): F(1)}, 2))
    with pytest.raises(ValueError):
        associator_polynomial(6, [F(1)])
    with pytest.raises(ValueError):
        associator_polynomial(1, [F(1)])
    # a non-rational parameter needs its ring named
    from cassoc.zeta import ThetaRing

    ring = ThetaRing(3)
    t3 = ring.generator(3)
    with pytest.raises(TypeError):
        associator_polynomial(2, [t3])
    assert associator_polynomial(2, [t3], ring) == f2 * BiSeries.constant(ring, t3, 2)


def test_decompose_round_trip():
    rng = random.Random(9)
    for _ in range(3):
        parts = {}
        for d in range(0, 9):
            n_params = (d // 2) // 3 + 1 if d % 2 == 0 else ((d - 1) // 2 - 1) // 3 + 1 if d >= 3 else 0
            if d == 1:
                continue
            params = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(max(n_params, 0))]
            if params:
                parts[d] = params
        h = BiSeries(QQ, {}, 8)
        for d, params in parts.items():
            h = h + associator_polynomial(d, params).pad(8)
        back = decompose_symmetric_series(h)
        for d, params in parts.items():
            if d <= 8:
                assert back[d] == params
    with pytest.raises(ArithmeticError, match="residual outside span"):
        decompose_symmetric_series(BiSeries(QQ, {(2, 0): F(1)}, 2))


def test_associator_basis_is_unit_triangular():
    # the peel in decompose_symmetric_series rests on this: the element with
    # exponent j has lam^j mu^(d-j), coefficient 1, as its lowest lam term
    for d in range(31):
        basis = _associator_basis(d)
        js = range(d % 2, d // 3 + 1, 2)
        assert len(basis) == len(js)
        for j, element in zip(js, basis):
            assert min(k for k, _ in element.coeffs) == j
            assert element.coeff(j, d - j) == 1


def test_decompose_round_trip_over_theta_ring():
    from cassoc.zeta import ring_for_degree

    ring = ring_for_degree(9)
    t3, t5, t7 = (ring.generator(n) for n in (3, 5, 7))
    monomials = [ring.one, t3, t5, t7, t3 * t3, t3 * t5]
    rng = random.Random(24)
    N = 10
    h = BiSeries(ring, {}, N)
    parts = {}
    for d in range(N + 1):
        params = []
        for _ in _associator_basis(d):
            c = ring.zero
            for mono in rng.sample(monomials, rng.randint(0, 3)):
                c = c + mono * F(rng.randint(-9, 9), rng.randint(1, 7))
            params.append(c)
        parts[d] = params
        h = h + associator_polynomial(d, params, ring).pad(N)
    assert decompose_symmetric_series(h) == parts


def test_decompose_rejects_symmetric_non_associator_polynomials():
    from cassoc.zeta import ring_for_degree

    ring = ring_for_degree(3)
    t3 = ring.generator(3)
    # lam^2 + mu^2 is swap-symmetric but not symmetric under lam -> -lam - mu
    for h in (BiSeries(QQ, {(2, 0): F(1), (0, 2): F(1)}, 2), BiSeries(ring, {(2, 0): t3, (0, 2): t3}, 2)):
        assert h == h.swap() and not is_associator_polynomial(h)
        with pytest.raises(ArithmeticError, match="residual outside span"):
            decompose_symmetric_series(h)


def test_family_I_printed():
    f = family_I(8)
    for kl, v in FAMILY_I_PRINTED.items():
        assert f.coeff(*kl) == v, kl
    # the print stops at (8,0)+(0,8) in degree 8; all lower degrees are fully listed
    for kl, v in f.coeffs.items():
        if kl[0] + kl[1] <= 6:
            assert FAMILY_I_PRINTED.get(kl, F(0)) == v, kl


def test_family_II_printed():
    f = family_II(8)
    for kl, v in FAMILY_II_PRINTED.items():
        assert f.coeff(*kl) == v, kl


def test_family_II_from_params():
    ps = family_II_params(12)
    assert ps.beta[(3, 1)] == F(-31, 2 * 5040)
    assert ps.beta[(4, 1)] == F(127, 30 * 5040)
    assert build_f(ps, 12) == family_II(12)


def test_family_II_params_digest():
    digest = "2e3ea114439de5aeeb5d36ca4dffc8fb831de8455917456cf4299b3f0ea0a62a"
    assert hashlib.sha256(family_II_params(16).to_json().encode()).hexdigest() == digest


def test_family_III_structure():
    f = family_III(12)
    assert f.odd_part().is_zero()
    assert f.coeff(0, 0) == F(1, 6)
    assert f.coeff(0, 0) == extreme_coefficients(0)[0]


def test_build_f_degree6_with_printed_beta31():
    ps = ParamSet(beta={(3, 1): F(-8, 3 * 5040)})
    f = build_f(ps, 6)
    assert f.coeff(3, 1) == F(1, 1260)
    assert f.coeff(2, 2) == F(23, 15120)
    assert f.coeff(4, 0) == F(1, 945)


def test_odd_edge_bridge():
    # alpha[2n+1, 0] comes from the tilde spine through the sinh factor
    ps = ParamSet(beta_tilde={(0, 0): F(2), (1, 0): F(-3), (2, 0): F(5, 7)})
    f = build_f(ps, 8)
    fact3 = 6
    fact5 = 120
    assert f.coeff(1, 0) == F(2)
    assert f.coeff(3, 0) == F(-3) + F(2, fact3)
    assert f.coeff(5, 0) == F(5, 7) + F(-3, fact3) + F(2, fact5)


@pytest.mark.parametrize("case, digest", [
    ("theta", "312962af5f9e70d31f7f9d4ede71c239e8d01d815f6add7b4fc5f3f6388cdf2d"),
    ("rational", "ac5660276e3583fdf7a507d2ef2b35a40441716498d8bac0cdaa0d9cbe8223ab"),
    ("family_I", "285f10cc0bf39e7e05abe5faafbae0456c7dc8e0190321f5c3c2d8d97725b900"),
])
def test_build_f_digest(case, digest):
    # degree-16 rebuilds from odd-zeta, seeded rational and zero parameters
    if case == "theta":
        from cassoc.zeta import solve_betas_in_theta

        f = build_f(solve_betas_in_theta(16), 16)
    elif case == "rational":
        f = build_f(random_paramset(16, nmax=9), 16)
    else:
        f = family_I(16)
    assert hashlib.sha256(json.dumps(f.to_records()).encode()).hexdigest() == digest


def test_census():
    expected = {0: 0, 1: 1, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2, 8: 1, 9: 2, 10: 2, 11: 2, 12: 2}
    assert {d: free_parameter_census(d) for d in range(13)} == expected


def test_solver_report():
    report = solve_degreewise(10)
    for entry in report["degrees"]:
        assert entry["dimension"] == entry["census"], entry
    tab = report["alpha"]
    for kl, v in EXAMPLE_37_ALPHA.items():
        assert tab.get(kl, F(0)) == v
    assert not any(tab.get(kl) for kl in ((1, 0), (0, 1), (3, 0), (2, 1)))
    deg4 = report["degrees"][4]
    v = deg4["kernel"][0]
    assert v[0] == 0 and v[2] == 2 * v[1] and v[1] != 0
    f = BiSeries(QQ, tab, 10)
    assert residual_15b(f).is_zero()


@pytest.mark.parametrize("N, digest", [
    (9, "2d4c194ddefb64d3357dd45e95cb892c6907504bf5c671263be02a0cb857b29a"),
    (12, "f4858bfe89beb0136f91d70ef9ddb67ffbcf079389aa5b60eb5ab8a80ed3df55"),
    (16, "d1b1ddd1d1545ee4a1d718c1253c6be34184b462d5e65a7cf03641bf70a42355"),
    (20, "14b3698bfd098ba187749fd4c4c23c00bb2a417209808943c39dc40b4f368f08"),
    (24, "1a4f1f2dfda06010b678280a0a1aa43b64760b5a3527cda0f785514e9d9e6800"),
])
def test_solver_report_digest(N, digest):
    report = solve_degreewise(N)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == digest
    assert residual_15b(BiSeries(QQ, report["alpha"], N)).is_zero()


def test_operator_slices_match_residual_differences():
    # the solver's closed-form columns are the degree-d slices of
    # residual_15b(E_kl) - residual_15b(0), E_kl = alpha[k,l] = alpha[l,k] = 1
    for d in range(9):
        zero = residual_15b(BiSeries(QQ, {}, d))
        for e in range(d + 1):
            for k in range(e // 2 + 1):
                l = e - k
                res = residual_15b(BiSeries(QQ, {(k, l): F(1), (l, k): F(1)}, d)) - zero
                # _operator_slice is scaled by d! so that it holds ints
                slice_d = [F(x, factorial(d)) for x in _operator_slice(k, l, d)]
                assert slice_d == [res.coeffs.get((i, d - i), F(0)) for i in range(d + 1)]


@pytest.mark.parametrize("key, degree", [((0, 0), 1), ((2, 1), 3), ((3, 3), 6), ((0, 6), 6)])
def test_solver_rejects_inconsistent_right_side(monkeypatch, key, degree):
    # a unit bump of one right-side coefficient makes some degree's system inconsistent
    rhs_15b = hexagon._rhs_15b
    monkeypatch.setattr(hexagon, "_rhs_15b", lambda n: rhs_15b(n) + BiSeries.monomial(QQ, *key, F(1), n))
    with pytest.raises(ArithmeticError, match=f"^inconsistent system at degree {degree}$"):
        solve_degreewise(4)


@pytest.mark.parametrize("N", [8, 9])
def test_single_coefficient_mutation_sweep(N):
    # every residual path must see a unit change of any one alpha entry
    f = family_I(N)

    def caught(bad, symmetric):
        assert not residual_15b(bad).is_zero()
        assert not residual_39(bad).is_zero()
        assert not model_hexagon_check(AlphaTable.from_series(bad), N + 2)
        if symmetric:
            e, o = split_residuals(bad)
            assert not (e.is_zero() and o.is_zero())

    for k in range(N + 1):
        for l in range(N + 1 - k):
            if k <= l:
                caught(f + BiSeries(QQ, {(k, l): F(1), (l, k): F(1)}, N), True)
            if k != l:
                caught(f + BiSeries(QQ, {(k, l): F(1)}, N), False)


def test_model_hexagon_check():
    assert model_hexagon_check(AlphaTable.from_series(family_I(10)), 10)
    assert model_hexagon_check(AlphaTable.from_series(F_B3), 5)
    bad = AlphaTable({(0, 0): F(1, 6), (1, 0): F(1)}, 3)
    assert not model_hexagon_check(bad, 5)


def test_extract_h_properties():
    f = family_I(12)
    h = extract_h(f)
    assert hexagon_symmetry_suite(h)
    assert h.set_mu_zero() == standard_series("two_x_over_sinh2x", h.order)
    ht = extract_h_tilde(build_f(random_paramset(4), 10))
    assert hexagon_symmetry_suite(ht)


def test_hexagon_symmetry_suite_needs_each_symmetry():
    # an odd associator polynomial fails h(-lam, -mu) = h(lam, mu) only; lam^2 + mu^2 fails h(lam, -lam-mu) only
    cube = BiSeries(QQ, {(2, 1): F(1), (1, 2): F(1)}, 4)
    assert is_associator_polynomial(cube) and not hexagon_symmetry_suite(cube)
    even = BiSeries(QQ, {(2, 0): F(1), (0, 2): F(1)}, 4)
    assert even == even.swap() and not hexagon_symmetry_suite(even)
    assert hexagon_symmetry_suite(cube * cube) and not hexagon_symmetry_suite(cube * cube + BiSeries.monomial(QQ, 4, 0, F(1), 4))


def test_alpha_table_serialization():
    f = family_I(6)
    tab = AlphaTable.from_series(f)
    assert AlphaTable.from_json(tab.to_json()) == f
    csv = tab.to_csv()
    assert csv.splitlines()[0] == "k,l,alpha"
    assert tab.is_symmetric()


def test_an_alpha_table_is_a_series():
    f = family_I(6)
    table = AlphaTable.from_series(f)
    assert isinstance(table, BiSeries) and table == f and table.is_symmetric()
    assert table._nums is f._nums  # shared, not copied
    assert AlphaTable({(1, 0): F(1, 2), (0, 1): F(1, 2)}, 3) == BiSeries(QQ, {(1, 0): F(1, 2), (0, 1): F(1, 2)}, 3)
    # the series' constructors build a series, not a table
    assert type(AlphaTable.constant(QQ, F(1), 3)) is BiSeries
    assert type(AlphaTable.monomial(QQ, 1, 0, F(1), 3)) is BiSeries
    assert type(AlphaTable.from_records(QQ, f.to_records(), 6)) is BiSeries
    assert type(AlphaTable.from_json(table.to_json())) is AlphaTable
    with pytest.raises(IndexError):
        table.coeff(7, 0)  # beyond the order, as on any series
    assert table.coeff(6, 0) == f.coeff(6, 0) and table.coeff(5, 0) == 0


def test_repeated_records_are_rejected():
    # two records of one coefficient are an error, not a sum or the last one kept
    from cassoc.zeta import ThetaRing

    for ring in (QQ, ThetaRing(5)):
        for coeffs in (["1/3", "1/3"], ["0", "0"], ["1", "-1"]):
            records = [{"k": 0, "l": 0, "coeff": c} for c in coeffs]
            with pytest.raises(ValueError, match=r"\(0, 0\) appear twice"):
                AlphaTable.from_json(json.dumps({"truncation_order": 2, "alpha": records}), ring)
        for name in ("beta", "beta_tilde"):
            with pytest.raises(ValueError, match=f"{name} lists an"):
                ParamSet.from_json(json.dumps({name: [[3, 1, "1/3"], [3, 1, "2/3"]]}), ring)
    table = AlphaTable.from_json(json.dumps({"truncation_order": 2, "alpha": [
        {"k": 0, "l": 0, "coeff": "1/3"}, {"k": 1, "l": 0, "coeff": "0"}, {"k": 0, "l": 1, "coeff": "1/3"}]}))
    assert table.coeffs == {(0, 0): F(1, 3), (0, 1): F(1, 3)}


def test_paramset_validation():
    with pytest.raises(ValueError):
        ParamSet(beta={(3, 0): F(1)})  # the spine is not a free parameter
    with pytest.raises(ValueError):
        ParamSet(beta={(2, 1): F(1)})
    with pytest.raises(ValueError):
        ParamSet(beta_tilde={(2, 1): F(1)})
    # a value outside the parameter ring is named by its index
    from cassoc.zeta import ThetaRing

    for ring, beta_tilde in (
        (ThetaRing(3), {(0, 0): F(1, 2)}),
        (ThetaRing(3), {(0, 0): ThetaRing(5).generator(3)}),
        (QQ, {(1, 0): ThetaRing(3).generator(3)}),
        (QQ, {(1, 0): 0.5}),
    ):
        with pytest.raises(TypeError, match=r"beta_tilde\[\(\d, 0\)\]"):
            ParamSet(beta_tilde=beta_tilde, ring=ring)
    with pytest.raises(TypeError, match=r"beta\[\(3, 1\)\]"):
        ParamSet(beta={(3, 1): F(1, 2)}, ring=ThetaRing(3))
    ps = ParamSet(beta={(3, 1): F(1, 2)}, beta_tilde={(0, 0): F(-1)})
    round_trip = ParamSet.from_json(ps.to_json())
    assert round_trip.beta == ps.beta and round_trip.beta_tilde == ps.beta_tilde
