"""Every entry point into exact arithmetic passes the one gate, ``exact.rational``.

An int or a Fraction enters; a float, a bool, a string, a complex number or
None is a TypeError at the entry point, before any arithmetic is done.
"""

from fractions import Fraction as F

import pytest

from cassoc import exact, linalg
from cassoc.cbh import ModelElement
from cassoc.hexagon import AlphaTable, ParamSet
from cassoc.pentagon import L3_MODEL
from cassoc.series import QQ, BiSeries, UniSeries, exp_linear
from cassoc.zeta import ThetaPoly, ThetaRing

RING = ThetaRing(5)
T3 = RING.generator(3)
LAM = BiSeries(QQ, {(1, 0): F(1)}, 3)
AB = L3_MODEL.bracket(L3_MODEL.letter("a"), L3_MODEL.letter("b"))

# entry point -> a call that feeds it the value and returns something comparable
ENTRIES = {
    "rational": lambda v: exact.rational(v),
    "QQ.from_rational": lambda v: QQ.from_rational(v),
    "clear_denominators": lambda v: exact.clear_denominators({0: F(1, 2), 1: v}),
    "BiSeries": lambda v: BiSeries(QQ, {(0, 0): F(1, 3), (1, 0): v}, 2),
    "UniSeries": lambda v: UniSeries(QQ, [F(1), v], 2).coeffs,
    "AlphaTable": lambda v: AlphaTable({(1, 0): v, (0, 1): v}, 2),
    "BiSeries.constant": lambda v: BiSeries.constant(QQ, v, 2),
    "QQ scalar *": lambda v: LAM * v,
    "compose": lambda v: LAM.compose([F(1), v, F(1, 2)]),
    "exp_linear": lambda v: exp_linear(v, 0, 2),
    "ThetaPoly.const": lambda v: ThetaPoly.const(RING.gens, v),
    "ThetaPoly *": lambda v: T3 * v,
    "ThetaPoly /": lambda v: T3 / v,
    "ThetaRing.from_rational": lambda v: RING.from_rational(v),
    "ModelElement": lambda v: ModelElement(0, v, F(1, 2), BiSeries(QQ, {}, 2)),
    "MetabelianModel.combo": lambda v: L3_MODEL.combo({"a": v, "b": 1}),
    "MetabelianModel.scale": lambda v: L3_MODEL.scale(AB, v),
    "ParamSet": lambda v: ParamSet(beta={(3, 1): v}, beta_tilde={(0, 0): F(1, 5)}).beta,
    "linalg.rref": lambda v: linalg.rref([[v, 1, 0], [1, 1, 1]]),
}


@pytest.mark.parametrize("bad", [0.1, True, "1/3", 1j, None], ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
def test_non_rational_is_a_type_error(entry, bad):
    with pytest.raises(TypeError):
        ENTRIES[entry](bad)


@pytest.mark.parametrize("entry", ENTRIES)
def test_exact_rationals_pass(entry):
    call = ENTRIES[entry]
    assert call(2) == call(F(2))
    assert call(F(-1, 3)) == call(F(-2, 6))
    assert call(F(-1, 3)) != call(2)


def test_gate_values():
    assert exact.rational(-3) == F(-3) and type(exact.rational(-3)) is F
    q = F(2, 7)
    assert exact.rational(q) is q
    assert exact.is_rational(5) and exact.is_rational(q)
    assert not any(exact.is_rational(v) for v in (0.5, False, "1", 1j, None))
    with pytest.raises(TypeError, match="0.25"):
        exact.rational(0.25)
    # a float compares unequal with a theta polynomial instead of raising
    assert ThetaPoly.const(RING.gens, F(1, 2)) != 0.5
    assert ThetaPoly.const(RING.gens, F(1, 2)) == F(1, 2)


@pytest.mark.parametrize("col", range(3))
def test_rref_refuses_ring_elements_in_every_column(col):
    matrix = [[2, 0, 1], [0, 1, 3]]
    matrix[1][col] = T3
    with pytest.raises(TypeError):
        linalg.rref(matrix)
