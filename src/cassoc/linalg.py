"""Dense exact Gaussian elimination for small systems.

``rref_int`` is the package's one elimination loop.  It is fraction-free: it
eliminates an int matrix with int row operations only, and the degreewise
hexagon solver runs it.  ``rref`` is its rational front door for the pentagon
rank checks (``verify`` and the claim 5.3 spans): it gates every entry,
scales each row to ints, calls ``rref_int`` and divides each pivot row by its
pivot.  Matrices here have at most a few dozen rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exact import clear_denominators

__all__ = ["rref", "rref_int"]


def rref(matrix: list) -> tuple:
    """Reduced row echelon form over the rationals; returns (rows, pivot_cols).

    Every entry must be an exact rational (a float, a bool or a ring element
    is a TypeError), and every entry returned is a Fraction.
    """
    rows, pivots = rref_int([list(clear_denominators(dict(enumerate(row)))[1].values()) for row in matrix])
    # the rows past the pivots are zero
    scale = [row[c] for row, c in zip(rows, pivots)] + [1] * (len(rows) - len(pivots))
    return [[Fraction(x, s) for x in row] for row, s in zip(rows, scale)], pivots


def rref_int(matrix: list) -> tuple:
    """Fraction-free reduced row echelon form of an int matrix; returns
    (rows, pivot_cols), the pivots of the reduced row echelon form.

    Gauss-Jordan with int row operations only: each row is kept primitive
    (divided by the gcd of its entries) after every step, and each pivot row
    ends with a positive pivot.  So the reduced row echelon form's row r is
    row r divided by its pivot, and the rows past the pivots are zero.  An
    entry that is not an int (a bool or a Fraction included) is a TypeError.
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
