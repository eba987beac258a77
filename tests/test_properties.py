"""Property tests; skipped when ``hypothesis`` is not installed."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cassoc.pentagon import L4_MODEL, l4_reducer  # noqa: E402
from cassoc.series import QQ, BiSeries  # noqa: E402

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# sums of scaled right-nested commutators of the six letters, degree <= 6
terms = st.lists(st.tuples(rationals, st.lists(st.integers(0, 5), min_size=2, max_size=6)), min_size=1, max_size=4)
# BiSeries over QQ: order <= 6, integer 2x2 substitution matrices
orders = st.integers(0, 6)
small_ints = st.integers(-3, 3)
matrices = st.tuples(st.tuples(small_ints, small_ints), st.tuples(small_ints, small_ints))


@st.composite
def series(draw, constant=True):
    """A BiSeries over QQ of order <= 6, with or without a constant term."""
    n = draw(orders)
    keys = [(k, d - k) for d in range(0 if constant else 1, n + 1) for k in range(d + 1)]
    return BiSeries(QQ, draw(st.dictionaries(st.sampled_from(keys), rationals, max_size=8)) if keys else {}, n)


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
    for d, coords in rx.items():
        pivots = red._rows[d]
        assert not any(red._cols[d][key] in pivots for key in coords)


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
