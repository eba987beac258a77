"""The fraction-free elimination ``rref_int`` against the Fraction ``rref``."""

from fractions import Fraction as F
from math import gcd

import pytest

from cassoc import hexagon, linalg

RREF_INT = linalg.rref_int  # the routine itself, also while a test patches linalg


def assert_matches_rref(matrix):
    """rref_int(matrix) has rref's pivots, and each of its pivot rows is
    primitive with a positive pivot and equals rref's row once divided by
    that pivot; both agree that the remaining rows are zero.  Returns
    rref_int(matrix)."""
    rows, pivots = RREF_INT(matrix)
    oracle_rows, oracle_pivots = linalg.rref(matrix)
    assert pivots == oracle_pivots
    assert len(rows) == len(oracle_rows)
    assert all(type(x) is int for row in rows for x in row)
    for r, c in enumerate(pivots):
        assert rows[r][c] > 0 and gcd(*rows[r]) == 1
        assert [F(x, rows[r][c]) for x in rows[r]] == oracle_rows[r]
    for row, oracle_row in zip(rows[len(pivots):], oracle_rows[len(pivots):]):
        assert not any(row) and not any(oracle_row)
    return rows, pivots


@pytest.mark.parametrize("matrix", [
    [],
    [[0, 0, 0]],
    [[0, 1], [1, 0]],  # a row swap at the first pivot
    [[0, 2, 4], [3, 6, 9], [1, 2, 3]],  # a swap, then a dependent row
    [[6, -4, 2], [-9, 6, -3]],  # rank 1 with a negative leading entry
    [[0, 0, 5], [0, 0, -7]],  # two zero columns
    [[2, 1, 0, 1], [4, 2, 1, 0], [0, 0, 3, 6]],  # a column with no pivot
    [[12, 18], [8, 0], [0, 30]],  # rows with content
])
def test_rref_int_matches_rref(matrix):
    assert_matches_rref(matrix)


@pytest.mark.parametrize("bad", [F(1, 2), F(3), 0.5, True, None], ids=repr)
def test_rref_int_takes_ints_only(bad):
    with pytest.raises(TypeError):
        linalg.rref_int([[1, 2], [bad, 1]])


def test_rref_int_matches_rref_on_the_solver_systems(monkeypatch):
    # every per-degree system solve_degreewise(20) eliminates, checked against rref
    seen = []

    def checked(matrix):
        seen.append(len(matrix))
        return assert_matches_rref(matrix)

    monkeypatch.setattr(linalg, "rref_int", checked)
    hexagon.solve_degreewise(20)
    assert seen == list(range(1, 25))
