"""Property tests; skipped when ``hypothesis`` is not installed."""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cassoc.pentagon import L4_MODEL, l4_reducer  # noqa: E402

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# sums of scaled right-nested commutators of the six letters, degree <= 6
terms = st.lists(st.tuples(rationals, st.lists(st.integers(0, 5), min_size=2, max_size=6)), min_size=1, max_size=4)


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
