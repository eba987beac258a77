"""The fraction-free elimination ``rref_int`` and its rational front door
``rref``, each against a Fraction Gauss-Jordan kept here as their oracle."""

from fractions import Fraction as F
from math import gcd
from types import SimpleNamespace

import pytest

from cassoc import hexagon, linalg


def gauss_jordan(matrix):
    """Reduced row echelon form over Fractions, on a copy; returns (rows,
    pivot_cols).  Each pivot divides its row, then clears its column."""
    rows = [[F(x) for x in r] for r in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def assert_matches_rref(matrix):
    """rref_int(matrix) has the oracle's pivots, and each of its pivot rows is
    primitive with a positive pivot and equals the oracle's row once divided
    by that pivot; both agree that the remaining rows are zero.  rref(matrix)
    is the oracle's result, every entry a Fraction.  Returns rref_int(matrix)."""
    oracle_rows, oracle_pivots = gauss_jordan(matrix)
    rows, pivots = linalg.rref_int(matrix)
    assert pivots == oracle_pivots
    assert len(rows) == len(oracle_rows)
    assert all(type(x) is int for row in rows for x in row)
    for r, c in enumerate(pivots):
        assert rows[r][c] > 0 and gcd(*rows[r]) == 1
        assert [F(x, rows[r][c]) for x in rows[r]] == oracle_rows[r]
    for row, oracle_row in zip(rows[len(pivots):], oracle_rows[len(pivots):]):
        assert not any(row) and not any(oracle_row)
    assert_rref_is_the_oracle(matrix)
    return rows, pivots


def assert_rref_is_the_oracle(matrix):
    front_rows, front_pivots = linalg.rref(matrix)
    assert (front_rows, front_pivots) == gauss_jordan(matrix)
    assert all(type(x) is F for row in front_rows for x in row)


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


@pytest.mark.parametrize("matrix", [
    [[F(1, 2), F(-1, 3)], [F(3, 4), F(-1, 2)]],  # rank 1 over rows with mixed denominators
    [[F(0), F(2, 3), 1], [F(5, 6), 0, F(-7, 4)], [0, 0, 0]],  # ints, Fractions and a zero row
    [[F(-3, 5)]],
])
def test_rref_of_fraction_matrices_is_the_oracle(matrix):
    assert_rref_is_the_oracle(matrix)


@pytest.mark.parametrize("bad", [F(1, 2), F(3), 0.5, True, None], ids=repr)
def test_rref_int_takes_ints_only(bad):
    with pytest.raises(TypeError):
        linalg.rref_int([[1, 2], [bad, 1]])


def test_rref_int_matches_rref_on_the_solver_systems(monkeypatch):
    # every per-degree system solve_degreewise(20) eliminates, checked against the oracle
    seen = []

    def checked(matrix):
        seen.append(len(matrix))
        return assert_matches_rref(matrix)

    monkeypatch.setattr(hexagon, "linalg", SimpleNamespace(rref_int=checked))
    hexagon.solve_degreewise(20)
    assert seen == list(range(1, 25))
