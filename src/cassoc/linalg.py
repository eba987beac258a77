"""Dense exact Gaussian elimination for small systems.

``rref_int`` is fraction-free: it eliminates an int matrix with int row
operations only and is what the degreewise hexagon solver runs.  ``rref``
works over Fractions and may carry ring elements in its later columns; it
backs ``solve_exact`` (the associator-polynomial decompositions, theta-ring
right sides included), the pentagon rank check in ``verify``, and the tests,
where it is the oracle for ``rref_int``.  Matrices here have at most a few
dozen rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exact import rational, rationals

__all__ = ["solve_exact", "rref", "rref_int"]


def rref(matrix: list, pivot_bound: int | None = None) -> tuple:
    """Reduced row echelon form (in place on a copy); returns (rows, pivot_cols).

    Only the first ``pivot_bound`` columns (all by default) are searched for
    pivots and must hold exact rationals (a float is a TypeError); later
    columns are carried through the row operations, so they may hold any ring
    element that can be scaled and combined by Fractions.  The pivot becomes a
    Fraction before it divides its row, so an int matrix gives Fractions.
    """
    rows = [list(r) for r in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    bound = n_cols if pivot_bound is None else pivot_bound
    for row in rows:
        rationals(row[:bound])
    pivots = []
    r = 0
    for c in range(bound):
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


def solve_exact(matrix: list, rhs: list) -> tuple:
    """Solve A x = b exactly for a rational A; b may hold any ring elements.

    Returns (particular, kernel_basis) where ``particular`` sets every free
    variable to zero, or (None, kernel_basis) when the system is inconsistent.
    """
    n_cols = len(matrix[0]) if matrix else 0
    rows, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)], n_cols)
    kernel = _kernel_from_rref(rows, pivots, n_cols)
    # rows past the pivots are zero on A, so they must be zero on b too
    if any(row[n_cols] != 0 for row in rows[len(pivots):]):
        return None, kernel
    zero = rhs[0] * 0 if rhs else Fraction(0)  # the zero of b's ring
    particular = [zero] * n_cols
    for r, c in enumerate(pivots):
        particular[c] = rows[r][n_cols]
    return particular, kernel


def _kernel_from_rref(rows: list, pivots: list, n_cols: int) -> list:
    free_cols = [c for c in range(n_cols) if c not in set(pivots)]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis
