"""Dense exact Gaussian elimination for small systems.

``rref_int`` is fraction-free: it eliminates an int matrix with int row
operations only and is what the degreewise hexagon solver runs.  ``rref``
works over Fractions and takes rationals only; it backs the pentagon rank
checks (``verify`` and the claim 5.3 spans) and the tests, where it is the
oracle for ``rref_int``.  Matrices here have at most a few dozen rows.
"""

from __future__ import annotations

from math import gcd

from .exact import rational, rationals

__all__ = ["rref", "rref_int"]


def rref(matrix: list) -> tuple:
    """Reduced row echelon form (in place on a copy); returns (rows, pivot_cols).

    Every entry must be an exact rational (a float or a ring element is a
    TypeError).  The pivot becomes a Fraction before it divides its row, so an
    int matrix gives Fractions.
    """
    rows = [list(r) for r in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    for row in rows:
        rationals(row)
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rational(rows[r][c])
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


def rref_int(matrix: list) -> tuple:
    """Fraction-free reduced row echelon form of an int matrix; returns
    (rows, pivot_cols) with the same pivots as ``rref``.

    Gauss-Jordan with int row operations only: each row is kept primitive
    (divided by the gcd of its entries) after every step, and each pivot row
    ends with a positive pivot.  So ``rref(matrix)``'s row r is row r divided
    by its pivot, and the rows past the pivots are zero.  An entry that is not
    an int (a bool or a Fraction included) is a TypeError.
    """
    if any(type(x) is not int for row in matrix for x in row):
        raise TypeError("rref_int takes an int matrix")
    rows = [_primitive(list(r)) for r in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        if prow[c] < 0:
            prow = rows[r] = [-x for x in prow]
        pv = prow[c]
        for i in range(n_rows):
            f = rows[i][c]
            if i != r and f:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _primitive(row: list) -> list:
    """An int row divided by the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]

