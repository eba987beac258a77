"""Property tests; skipped when ``hypothesis`` is not installed."""

from fractions import Fraction as F
from math import comb, factorial
from operator import le

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from test_linalg import assert_matches_rref, assert_rref_is_the_oracle  # noqa: E402

from cassoc.exact import clear_denominators  # noqa: E402
from cassoc.pentagon import L4_MODEL, l4_reducer  # noqa: E402
from cassoc.series import QQ, BiSeries  # noqa: E402
from cassoc.zeta import ThetaPoly, ThetaRing  # noqa: E402

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# sums of scaled right-nested commutators of the six letters, degree <= 6
terms = st.lists(st.tuples(rationals, st.lists(st.integers(0, 5), min_size=2, max_size=6)), min_size=1, max_size=4)
# integer 2x2 substitution matrices
small_ints = st.integers(-3, 3)
matrices = st.tuples(st.tuples(small_ints, small_ints), st.tuples(small_ints, small_ints))
# ThetaPoly over theta_3..theta_9, given as {exponent tuple: Fraction}
THETA = ThetaRing(9)
MAX_EXPONENT = 2**15 - 1  # the largest exponent a packed key holds
theta_terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(THETA.gens)), rationals, max_size=4)


def _poly(terms):
    """The ThetaPoly with these {exponent tuple: coefficient} terms, read through ``parse``."""
    return THETA.parse({"poly": [[list(e), str(c)] for e, c in terms.items()]})


def _terms(p):
    """{exponent tuple: Fraction} of p's nonzero terms, read off ``to_json_obj``."""
    obj = p.to_json_obj()
    if isinstance(obj, str):
        return {(0,) * len(THETA.gens): F(obj)} if F(obj) else {}
    return {tuple(e): F(c) for e, c in obj["poly"]}


theta_polys = theta_terms.map(_poly)
# rational 2x2 matrices with non-integer entries and zero rows
entries = st.one_of(st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=4))
rows = st.one_of(st.just((0, 0)), st.tuples(entries, entries))
rational_matrices = st.tuples(rows, rows)


@st.composite
def int_matrices(draw):
    """Int matrices up to 6 x 7 with zero columns, zero rows and dependent
    rows mixed in, shuffled so that pivots often need a row swap."""
    n_cols = draw(st.integers(1, 7))
    row = st.lists(st.integers(-4, 4), min_size=n_cols, max_size=n_cols)
    matrix = draw(st.lists(row, max_size=5))
    for c in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for r in matrix:
            r[c] = 0
    if matrix and draw(st.booleans()):
        a, b = draw(st.sampled_from(matrix)), draw(st.sampled_from(matrix))
        p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        matrix.append([p * x + q * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        matrix.append([0] * n_cols)
    return draw(st.permutations(matrix))


@st.composite
def zero_padded_fraction_matrices(draw):
    """``int_matrices`` with each entry over a denominator of its own, and one
    zero column and one zero row put in where drawn."""
    matrix = [[F(x, draw(st.integers(1, 6))) for x in row] for row in draw(int_matrices())]
    n_cols = len(matrix[0]) if matrix else draw(st.integers(0, 6))
    c = draw(st.integers(0, n_cols))
    matrix = [row[:c] + [F(0)] + row[c:] for row in matrix]
    matrix.insert(draw(st.integers(0, len(matrix))), [F(0)] * (n_cols + 1))
    return matrix


@st.composite
def series(draw, constant=True, ring=QQ, max_order=6):
    """A BiSeries over QQ (int and Fraction coefficients) or THETA of order <= max_order,
    with or without a constant term."""
    n = draw(st.integers(0, max_order))
    keys = [(k, d - k) for d in range(0 if constant else 1, n + 1) for k in range(d + 1)]
    values = st.one_of(st.integers(-5, 5), rationals) if ring is QQ else theta_polys
    return BiSeries(ring, draw(st.dictionaries(st.sampled_from(keys), values, max_size=8)) if keys else {}, n)


def _product(A, B):
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(2)) for j in range(2)) for i in range(2))


def _element(spec):
    m = L4_MODEL
    el = m.zero()
    for q, word in spec:
        el = m.add(el, m.scale(m.long_commutator(word), q))
    return el


def _combine(r1, r2, q):
    """r1 + q r2 for two ``reduce`` outputs."""
    out = {}
    for d in set(r1) | set(r2):
        coords = dict(r1.get(d, {}))
        for key, c in r2.get(d, {}).items():
            v = coords.get(key, 0) + q * c
            if v:
                coords[key] = v
            else:
                coords.pop(key, None)
        if coords:
            out[d] = coords
    return out


@settings(max_examples=30, deadline=None)
@given(terms, terms, rationals)
def test_reduce_is_linear_idempotent_and_avoids_pivots(x_spec, y_spec, q):
    red = l4_reducer()
    m = L4_MODEL
    x, y = _element(x_spec), _element(y_spec)
    rx, ry = red.reduce(x), red.reduce(y)
    assert red.reduce(m.add(x, m.scale(y, q))) == _combine(rx, ry, q)
    lifted = ({}, {key: c for coords in rx.values() for key, c in coords.items()})
    assert red.reduce(lifted) == rx
    # every coordinate sits on a standard monomial: no lead of the basis divides it
    leads = [max(g) for g in red.relation_module()[0]]
    for coords in rx.values():
        for i, j, mono in coords:
            p = red._pos[i, j]
            assert not any(lp == p and all(map(le, lmono, mono)) for lmono, lp in leads)


# scalars whose denominators are far beyond any the pivot rows or terms carry
big_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12).filter(bool)


@settings(max_examples=30, deadline=None)
@given(terms, big_rationals)
def test_reduce_commutes_with_scaling_and_returns_exact_coordinates(x_spec, q):
    # reduce clears the denominators of each part, reduces over ints and divides once
    red = l4_reducer()
    x = _element(x_spec)
    rx, rqx = red.reduce(x), red.reduce(L4_MODEL.scale(x, q))
    assert rqx == {d: {key: q * c for key, c in coords.items()} for d, coords in rx.items()}
    for reduced in (rx, rqx):
        assert all(type(c) is F for coords in reduced.values() for c in coords.values())


@settings(max_examples=30, deadline=None)
@given(terms)
def test_reduce_of_an_int_element_keeps_fraction_coordinates(x_spec):
    # the checks pass all-int elements, which skip clearing denominators
    red = l4_reducer()
    _, ints = clear_denominators(_element(x_spec)[1])
    got = red.reduce(({}, ints))
    assert got == red.reduce(({}, {key: F(v) for key, v in ints.items()}))
    assert all(type(c) is F for coords in got.values() for c in coords.values())


@settings(max_examples=30, deadline=None)
@given(series(), series(), series())
def test_biseries_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(max_examples=30, deadline=None)
@given(series(), matrices, matrices)
def test_linear_substitutions_compose(f, A, B):
    # f(A x) then x -> B x gives f(A B x)
    assert f.substitute_linear(A).substitute_linear(B) == f.substitute_linear(_product(A, B))


@settings(max_examples=30, deadline=None)
@given(series(), st.integers(0, 3), st.integers(0, 3))
def test_divide_monomial_undoes_multiplication(f, k, l):
    n = f.order - k - l
    assume(n >= 0)
    got = (f * BiSeries.monomial(QQ, k, l, F(1), f.order)).divide_monomial(k, l)
    assert got.order == n and got == f.truncate(n)


@settings(max_examples=30, deadline=None)
@given(series(constant=False))
def test_log_inverts_exp(u):
    assert u.exp().log() == u


@settings(max_examples=30, deadline=None)
@given(theta_polys, theta_polys, theta_polys, rationals)
def test_theta_poly_ring_laws(p, q, r, c):
    zero, one = THETA.zero, THETA.one
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p - p).is_zero()
    assert p * c == p * THETA.from_rational(c) == c * p


def _naive_product(a, b):
    """The product of two {exponent tuple: coefficient} dicts, exponents added slot by slot."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@settings(max_examples=30, deadline=None)
@given(theta_terms, theta_terms)
def test_theta_product_matches_naive_reference(a, b):
    assert _terms(_poly(a) * _poly(b)) == _naive_product(a, b)


@settings(max_examples=30, deadline=None)
@given(theta_polys)
def test_theta_json_round_trip(p):
    assert THETA.parse(p.to_json_obj()) == p


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(THETA.gens) - 1), st.integers(1, MAX_EXPONENT), st.integers(-2, 2))
def test_theta_product_overflow_raises_and_never_carries(slot, a, over):
    # exponents that sum to MAX_EXPONENT + over: the cases over > 0 overflow
    b = MAX_EXPONENT + over - a
    assume(1 <= b <= MAX_EXPONENT)
    n = len(THETA.gens)
    e1 = tuple(a if i == slot else 1 for i in range(n))
    e2 = tuple(b if i == slot else 1 for i in range(n))
    p, q = _poly({e1: F(1)}), _poly({e2: F(1)})
    if a + b > MAX_EXPONENT:
        with pytest.raises(OverflowError):
            p * q
    else:
        assert _terms(p * q) == {tuple(x + y for x, y in zip(e1, e2)): F(1)}


@settings(max_examples=30, deadline=None)
@given(series(ring=THETA, max_order=5), series(ring=THETA, max_order=5), series(ring=THETA, max_order=5))
def test_biseries_ring_laws_over_theta(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("ring", [QQ, THETA], ids=["QQ", "theta"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_divisions_undo_multiplication(ring, data):
    f = data.draw(series(ring=ring, max_order=5))
    n = f.order
    lam_plus_mu = BiSeries(ring, {(1, 0): ring.one, (0, 1): ring.one}, n + 1)
    # f is a polynomial of degree <= n, so its product with lam + mu is known to n + 1
    got = (f.pad(n + 1) * lam_plus_mu).divide_lam_plus_mu()
    assert got.order == n and got == f
    u = data.draw(series(constant=False, ring=ring, max_order=5))
    c = data.draw(rationals.filter(bool))
    d = BiSeries.constant(ring, ring.from_rational(c), u.order) + u
    got = f * d * d.inverse()
    assert got.order == min(n, d.order) and got == f


def _lift(q):
    """A series over QQ as a series over THETA, lifted coefficient by coefficient."""
    return BiSeries(THETA, {kl: THETA.from_rational(c) for kl, c in q.coeffs.items()}, q.order)


def _over_theta(f):
    return f.ring is THETA and all(isinstance(c, ThetaPoly) for c in f.coeffs.values())


@settings(max_examples=30, deadline=None)
@given(series(), series(ring=THETA, max_order=5))
def test_rational_operand_lifts_into_theta(q, t):
    lq = _lift(q)
    pairs = [(q + t, lq + t), (t + q, t + lq), (q - t, lq - t), (t - q, t - lq), (q * t, lq * t), (t * q, t * lq)]
    for got, want in pairs:
        assert got.order == want.order and got == want
        assert _over_theta(got)


@settings(max_examples=30, deadline=None)
@given(series(ring=THETA, max_order=5), series(ring=THETA, max_order=5))
def test_theta_rings_with_equal_gens_add(f, g):
    g_other = BiSeries(ThetaRing(9), g.coeffs, g.order)
    assert f + g_other == f + g and g_other + f == g + f


@settings(max_examples=30, deadline=None)
@given(series())
def test_rational_series_times_theta_scalar_raises(q):
    with pytest.raises(TypeError):
        q * THETA.generator(3)


@settings(max_examples=30, deadline=None)
@given(rationals.filter(bool), st.integers(0, 6))
def test_inverse_of_constant_theta_series_stays_over_theta(c, n):
    inv = BiSeries.constant(THETA, THETA.from_rational(c), n).inverse()
    assert _over_theta(inv) and inv == BiSeries.constant(THETA, THETA.from_rational(1 / c), n)


def _naive_series_product(a, b, n):
    """{(k, l): Fraction} of the product of two {(k, l): rational} dicts to order n, term by term."""
    out = {}
    for (k1, l1), c1 in a.items():
        for (k2, l2), c2 in b.items():
            if k1 + l1 + k2 + l2 <= n:
                key = (k1 + k2, l1 + l2)
                out[key] = out.get(key, F(0)) + F(c1) * F(c2)
    return {key: c for key, c in out.items() if c}


def _naive_substitution(coeffs, matrix):
    """{(k, l): Fraction} of f(a lam + b mu, c lam + d mu), f given by its
    {(k, l): rational} coefficients, by the binomial theorem."""
    (a, b), (c, d) = ((F(x), F(y)) for x, y in matrix)
    out = {}
    for (k, l), coef in coeffs.items():
        for i1 in range(k + 1):
            for i2 in range(l + 1):
                s = comb(k, i1) * a**i1 * b ** (k - i1) * comb(l, i2) * c**i2 * d ** (l - i2)
                key = (i1 + i2, k + l - i1 - i2)
                out[key] = out.get(key, F(0)) + coef * s
    return {key: c for key, c in out.items() if c}


def _check_kernel_output(got, order, want):
    assert got.ring is QQ and got.order == order and got.coeffs == want
    assert all(k >= 0 and l >= 0 and k + l <= order for k, l in got.coeffs)
    assert all(type(c) is F and c != 0 for c in got.coeffs.values())


@settings(max_examples=60, deadline=None)
@given(series(max_order=16), series(max_order=16), rationals.filter(bool), st.data())
def test_rational_product_matches_naive_reference(f, g, q, data):
    _check_kernel_output(f * g, min(f.order, g.order), _naive_series_product(f.coeffs, g.coeffs, min(f.order, g.order)))
    # (f + m)(f - m) = f^2 - m^2: the cross terms cancel inside one product
    k = data.draw(st.integers(0, f.order))
    m = BiSeries.monomial(QQ, k, data.draw(st.integers(0, f.order - k)), q, f.order)
    got = (f + m) * (f - m)
    _check_kernel_output(got, f.order, _naive_series_product((f + m).coeffs, (f - m).coeffs, f.order))
    assert got == f * f - m * m


@settings(max_examples=60, deadline=None)
@given(series(max_order=16), rational_matrices)
def test_rational_substitution_matches_naive_reference(f, matrix):
    got = f.substitute_linear(matrix)
    _check_kernel_output(got, f.order, _naive_substitution(f.coeffs, matrix))
    # over THETA the same loop computes the same coefficients, lifted
    assert _lift(f).substitute_linear(matrix) == _lift(got)


def _split(f):
    """{exponent tuple: {(k, l): Fraction}}: f, over QQ or THETA, as a sum of
    rational series times theta monomials."""
    out = {}
    for kl, c in f.coeffs.items():
        terms = _terms(c) if isinstance(c, ThetaPoly) else {(0,) * len(THETA.gens): F(c)}
        for e, q in terms.items():
            out.setdefault(e, {})[kl] = q
    return out


def _join(parts):
    """{(k, l): {exponent tuple: Fraction}} of the nonzero terms of a sum of
    (exponent tuple, {(k, l): Fraction}) parts."""
    out = {}
    for e, coeffs in parts:
        for kl, q in coeffs.items():
            terms = out.setdefault(kl, {})
            terms[e] = terms.get(e, 0) + q
    out = {kl: {e: q for e, q in terms.items() if q} for kl, terms in out.items()}
    return {kl: terms for kl, terms in out.items() if terms}


def _naive_theta_product(f, g):
    """f * g term by term, theta monomial by theta monomial."""
    n = min(f.order, g.order)
    return _join(
        (tuple(x + y for x, y in zip(e1, e2)), _naive_series_product(a, b, n))
        for e1, a in _split(f).items()
        for e2, b in _split(g).items()
    )


def _check_theta_output(got, order, want):
    assert got.ring is THETA and got.order == order
    assert all(k >= 0 and l >= 0 and k + l <= order for k, l in got.coeffs)
    assert all(THETA.contains(c) and not c.is_zero() for c in got.coeffs.values())
    assert {kl: _terms(c) for kl, c in got.coeffs.items()} == want


@settings(max_examples=40, deadline=None)
@given(series(ring=THETA, max_order=8), series(ring=THETA, max_order=8), series(max_order=8), st.data())
def test_theta_products_match_naive_reference(t, u, q, data):
    cut = data.draw(st.integers(0, 8))
    # independent orders, and a cut that makes the orders differ most of the time
    for f, g in ((t, u), (t, u.truncate(cut)), (q, t), (t, q), (q.truncate(cut), t), (t, q.truncate(cut))):
        _check_theta_output(f * g, min(f.order, g.order), _naive_theta_product(f, g))
    # (t + m)(t - m) = t^2 - m^2: the cross terms cancel inside one product
    k = data.draw(st.integers(0, t.order))
    m = BiSeries.monomial(THETA, k, data.draw(st.integers(0, t.order - k)), data.draw(theta_polys), t.order)
    _check_theta_output((t + m) * (t - m), t.order, _naive_theta_product(t + m, t - m))


# 2x2 matrices whose entries are mostly not integers
halves_to_quarters = st.builds(F, small_ints, st.integers(2, 4))
fraction_matrices = st.tuples(*[st.tuples(halves_to_quarters, halves_to_quarters)] * 2)


@settings(max_examples=60, deadline=None)
@given(series(ring=THETA, max_order=8), matrices, rational_matrices, fraction_matrices)
def test_theta_substitution_matches_naive_reference(t, int_matrix, rational_matrix, fraction_matrix):
    for matrix in (int_matrix, rational_matrix, fraction_matrix):
        want = _join((e, _naive_substitution(a, matrix)) for e, a in _split(t).items())
        _check_theta_output(t.substitute_linear(matrix), t.order, want)


def _ring_product(f, g):
    """{(k, l): ThetaPoly} of f * g, one ThetaPoly product and sum per pair of
    terms, a rational coefficient lifted into THETA first."""
    n = min(f.order, g.order)
    left, right = (_lift(x) if x.ring is QQ else x for x in (f, g))
    out = {}
    for (k1, l1), c1 in left.coeffs.items():
        for (k2, l2), c2 in right.coeffs.items():
            if k1 + l1 + k2 + l2 <= n:
                key = (k1 + k2, l1 + l2)
                out[key] = out.get(key, THETA.zero) + c1 * c2
    return {key: c for key, c in out.items() if not c.is_zero()}


def _ring_substitution(f, matrix):
    """{(k, l): ThetaPoly} of f(a lam + b mu, c lam + d mu) by the binomial
    theorem, one ThetaPoly scalar product and sum per term."""
    (a, b), (c, d) = ((F(x), F(y)) for x, y in matrix)
    out = {}
    for (k, l), coef in f.coeffs.items():
        for i1 in range(k + 1):
            for i2 in range(l + 1):
                s = comb(k, i1) * a**i1 * b ** (k - i1) * comb(l, i2) * c**i2 * d ** (l - i2)
                key = (i1 + i2, k + l - i1 - i2)
                out[key] = out.get(key, THETA.zero) + coef * s
    return {key: c for key, c in out.items() if not c.is_zero()}


def _check_ring_output(got, order, want):
    assert got.ring is THETA and got.order == order
    assert all(THETA.contains(c) and not c.is_zero() for c in got.coeffs.values())
    assert got.coeffs == want


# scales whose denominators are far from those of ``rationals``
wide_scales = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9).filter(bool)


@settings(max_examples=25, deadline=None)
@given(series(ring=THETA, max_order=6), series(ring=THETA, max_order=6), series(max_order=6), wide_scales, st.data())
def test_theta_kernels_match_ring_arithmetic(t, u, q, scale, data):
    cut = data.draw(st.integers(0, 6))
    wide = u * scale
    pairs = ((t, u), (t, wide), (wide, t.truncate(cut)), (q, t), (t, q), (q * scale, wide), (wide, q.truncate(cut)))
    for f, g in pairs:
        _check_ring_output(f * g, min(f.order, g.order), _ring_product(f, g))
    for matrix in (data.draw(matrices), data.draw(rational_matrices), data.draw(fraction_matrices)):
        for f in (t, wide):
            _check_ring_output(f.substitute_linear(matrix), f.order, _ring_substitution(f, matrix))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, len(THETA.gens) - 1),
    st.integers(1, MAX_EXPONENT),
    st.integers(-2, 2),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_theta_series_product_overflow_raises_and_never_carries(slot, a, over, k, l):
    # exponents that sum to MAX_EXPONENT + 1 + over: half the cases overflow
    b = MAX_EXPONENT + 1 + over - a
    assume(1 <= b <= MAX_EXPONENT)
    n = len(THETA.gens)
    e1 = tuple(a if i == slot else 1 for i in range(n))
    e2 = tuple(b if i == slot else 1 for i in range(n))
    # beside the product of the two monomials, terms whose exponents stay small
    f = BiSeries(THETA, {(k, l): _poly({e1: F(1, 3)}), (4, 0): THETA.one}, 12)
    g = BiSeries(THETA, {(l, k): _poly({e2: F(-2, 5)}), (0, 4): THETA.generator(3)}, 12)
    if a + b > MAX_EXPONENT:
        with pytest.raises(OverflowError):
            f * g
        with pytest.raises(OverflowError):
            g * f
    else:
        want = _ring_product(f, g)
        assert _terms(want[(k + l, k + l)])[tuple(x + y for x, y in zip(e1, e2))] == F(-2, 15)
        _check_ring_output(f * g, 12, want)
        _check_ring_output(g * f, 12, want)


def _nonzero(coeffs):
    return {kl: c for kl, c in coeffs.items() if c != 0}


def _naive_sum(f, g, sign):
    """{(k, l): coefficient} of f + sign g to the lower order, one
    coefficient sum per term, over f's ring."""
    n = min(f.order, g.order)
    out = {}
    for x, s in ((f, 1), (g, sign)):
        for kl, c in x.coeffs.items():
            if sum(kl) <= n:
                out[kl] = out[kl] + c * s if kl in out else c * s
    return _nonzero(out)


def _naive_dict_product(a, b, n):
    """{(k, l): coefficient} of the product of two coefficient dicts to order
    n, one coefficient product and sum per pair of terms."""
    out = {}
    for (k1, l1), c1 in a.items():
        for (k2, l2), c2 in b.items():
            if k1 + l1 + k2 + l2 <= n:
                key = (k1 + k2, l1 + l2)
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return _nonzero(out)


def _naive_compose(f, cs):
    """{(k, l): coefficient} of sum_j cs[j] f^j, the powers one after another."""
    out = {(0, 0): f.ring.one * cs[0]}
    power = {(0, 0): f.ring.one}
    for c in cs[1:]:
        power = _naive_dict_product(power, f.coeffs, f.order)
        for kl, x in power.items():
            out[kl] = out[kl] + x * c if kl in out else x * c
    return _nonzero(out)


def _check_output(got, order, want):
    (_check_kernel_output if got.ring is QQ else _check_ring_output)(got, order, want)


@pytest.mark.parametrize("ring", [QQ, THETA], ids=["QQ", "theta"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sums_scalars_and_parts_match_term_by_term_arithmetic(ring, data):
    f, g = data.draw(series(ring=ring, max_order=8)), data.draw(series(ring=ring, max_order=8))
    q = data.draw(st.one_of(st.integers(-5, 5), rationals, wide_scales))
    cut = data.draw(st.integers(0, 8))
    wide = g * data.draw(wide_scales)
    for x, y in ((f, g), (f, g.truncate(cut)), (wide, f), (f, f)):
        _check_output(x + y, min(x.order, y.order), _naive_sum(x, y, 1))
        _check_output(x - y, min(x.order, y.order), _naive_sum(x, y, -1))
    if ring is THETA:
        # a series over QQ joins by a shift of its keys
        r = data.draw(series(max_order=8))
        _check_output(r + f, min(r.order, f.order), _naive_sum(_lift(r), f, 1))
        _check_output(f - r, min(r.order, f.order), _naive_sum(f, _lift(r), -1))
    for x in (f, wide):
        _check_output(x * q, x.order, _nonzero({kl: c * q for kl, c in x.coeffs.items()}))
        _check_output(q * x, x.order, _nonzero({kl: c * q for kl, c in x.coeffs.items()}))
        _check_output(-x, x.order, {kl: -c for kl, c in x.coeffs.items()})
        low = {kl: c for kl, c in x.coeffs.items() if sum(kl) <= cut}
        _check_output(x.truncate(cut), min(cut, x.order), low)
        _check_output(x.truncate(cut).pad(cut + 3), cut + 3, low)
        _check_output(x.even_part(), x.order, {kl: c for kl, c in x.coeffs.items() if sum(kl) % 2 == 0})
        _check_output(x.odd_part(), x.order, {kl: c for kl, c in x.coeffs.items() if sum(kl) % 2 == 1})


@pytest.mark.parametrize("ring", [QQ, THETA], ids=["QQ", "theta"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compose_matches_term_by_term_powers(ring, data):
    u = data.draw(series(constant=False, ring=ring, max_order=6))
    c = data.draw(rationals.filter(bool))
    n = u.order
    _check_output(u.exp(), n, _naive_compose(u, [F(1, factorial(j)) for j in range(n + 1)]))
    half = [F(1)]  # C(1/2, j)
    for j in range(1, n + 1):
        half.append(half[-1] * F(3 - 2 * j, 2 * j))
    _check_output((BiSeries.constant(ring, ring.one, n) + u).sqrt(), n, _naive_compose(u, half))
    # 1 / (c + u) = sum_j (-1)^j u^j / c^(j + 1)
    unit = BiSeries.constant(ring, ring.from_rational(c), n) + u
    _check_output(unit.inverse(), n, _naive_compose(u, [(-1) ** j / c ** (j + 1) for j in range(n + 1)]))
    cs = data.draw(st.lists(st.one_of(st.integers(-5, 5), rationals), min_size=1, max_size=n + 2))
    _check_output(u.compose(cs), n, _naive_compose(u, cs))


@pytest.mark.parametrize("ring", [QQ, THETA], ids=["QQ", "theta"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_write_through_coeffs_raises_and_leaves_the_series_as_it_was(ring, data):
    values = st.one_of(st.integers(-5, 5), rationals) if ring is QQ else theta_polys
    t, u = data.draw(series(ring=ring, max_order=6)), data.draw(series(ring=ring, max_order=6))
    got = t * u  # a kernel result
    before = dict(got.coeffs)
    k = data.draw(st.integers(0, got.order))
    key = (k, data.draw(st.integers(0, got.order - k)))
    with pytest.raises(TypeError):
        got.coeffs[key] = data.draw(values)
    for kl in before:
        with pytest.raises(TypeError):
            del got.coeffs[kl]
    assert got.coeffs == before and got == BiSeries(ring, before, got.order)
    assert got * u == BiSeries(ring, before, got.order) * u


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, len(THETA.gens) - 1),
    st.integers(MAX_EXPONENT // 2 - 2, MAX_EXPONENT // 2 + 2),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_theta_compose_overflow_raises_and_never_carries(slot, a, k, l):
    # f^2 has exponent 2a in the slot, so a > MAX_EXPONENT // 2 overflows;
    # f^3 lies beyond the order, so only the square can
    d = k + l
    assume(d > 0)
    e = tuple(a if i == slot else 1 for i in range(len(THETA.gens)))
    big = BiSeries(THETA, {(k, l): _poly({e: F(1, 3)})}, 2 * d)
    f = big + BiSeries(THETA, {(0, d): THETA.generator(3)}, 2 * d)
    # big^4 alone would carry past the slot's guard bit into the next slot,
    # so the check falls on each power, before it is multiplied again
    with pytest.raises(OverflowError):
        big.pad(4 * d).compose([0, 0, 0, 0, 1])
    if 2 * a > MAX_EXPONENT:
        with pytest.raises(OverflowError):
            f.exp()
        with pytest.raises(OverflowError):
            f.compose([0, 0, 1])
    else:
        want = _naive_compose(f, [F(1, factorial(j)) for j in range(2 * d + 1)])
        assert _terms(want[(2 * k, 2 * l)])[tuple(2 * x for x in e)] == F(1, 18)
        _check_ring_output(f.exp(), 2 * d, want)


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_rref_int_matches_rref_oracle(matrix):
    assert_matches_rref(matrix)


@settings(max_examples=200, deadline=None)
@given(zero_padded_fraction_matrices())
def test_rref_of_fraction_matrices_with_zero_rows_and_columns_is_the_oracle(matrix):
    assert_rref_is_the_oracle(matrix)
