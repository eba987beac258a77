"""The per-degree row echelon of the relation subspace: the tests' oracle for
``QuotientReducer``.

``QuotientReducer.reduce`` gives coordinates on the standard monomials of a
Groebner basis of the relation module, whose Jacobi vectors straighten the
model's terms.  This module is an independent path to the same quotient and
shares no normal-form code with ``cassoc``.  ``straighten`` writes a
commutator part on the straightened keys (``MetabelianModel.basis_keys``)
by the Jacobi step, applied once per term.  The defining relations
generate, as monomial multiples, a linear subspace per degree;
``EchelonReducer`` row-reduces that subspace once and then reduces
arbitrary elements, straightened first, to canonical coordinates on the
complement, the non-pivot columns.  Each relation row is straightened and
reduced fully by the rows stored before it, by the same loop that reduces
any element, before it is stored.  The elimination runs over Python ints:
the L4bar and L3bar relations have coefficients +-1 and all their pivots are
units (checked through degree 11), so pivot rows stay integral; a non-unit
pivot falls back to exact Fractions.

The tests check the two against each other: equal dimensions, and a fixed
change of basis per degree from the reducer's coordinates to the echelon's
(``test_pentagon.test_reduce_agrees_with_the_echelon_through_a_change_of_basis``).
The echelon's coordinates are the ones the coordinate digests pin.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cache

from cassoc.exact import clear_denominators
from cassoc.pentagon import L3_MODEL, L4_MODEL, QuotientReducer, _l3_relations, _l4_relations, _monomials


def straighten(comm: dict) -> dict:
    """A commutator part {(i, j, mono): c} on the straightened keys, those
    whose monomial uses no letter below j.  A term whose smallest letter k
    is below j takes one Jacobi step,

        x_k [x_i, x_j] = -x_i [x_j, x_k] + x_j [x_i, x_k]      (k < j < i),

    after which every letter of the monomial is >= k, the new core's
    smaller letter; coefficients that cancel are dropped."""
    out: dict = {}

    def accumulate(key, c):
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)

    def times(mono, s):
        return mono[:s] + (mono[s] + 1,) + mono[s + 1:]

    for (i, j, mono), c in comm.items():
        k = next((t for t, e in enumerate(mono) if e), j)
        if k >= j:
            accumulate((i, j, mono), c)
            continue
        rest = mono[:k] + (mono[k] - 1,) + mono[k + 1:]
        accumulate((j, k, times(rest, i)), -c)
        accumulate((i, k, times(rest, j)), c)
    return out


class EchelonReducer(QuotientReducer):
    """Per-degree row echelon form of the relation module, built on demand.

    The relation subspace at degree n is spanned by monomial * r over the
    quadratic relations r (bracketing a relation into another commutator dies
    in the metabelian quotient, so monomial multiples generate everything).
    The letters act on the commutator part as commuting variables, so the row
    of monomial * r is the sum of c * monomial * [x_i, x_j] over the terms of
    r, straightened (``straighten``).  Each row is reduced fully by the pivot
    rows stored before it (``_reduce_vector``, the loop ``reduce`` uses) and
    what is left is stored, made monic, at its smallest column.  A unit pivot (+-1) is its own inverse, so integral
    relations give integral pivot rows; any other pivot is inverted as a
    Fraction, which keeps the elimination exact for any relation set.  The
    pivot columns are the leading columns of the relation space, and a
    reduced element has no entry in any of them, so its canonical
    coordinates do not depend on the order in which rows were stored.

    ``reduce`` runs without Fractions against integral pivot rows: each
    degree part is multiplied by the lcm of its denominators, reduced over
    ints, and every surviving coordinate is divided by that lcm once, so
    coordinates come back as Fractions.  Against non-unit pivot rows the
    same loop meets Fractions and stays exact.  ``echelon_dimension`` counts
    the non-pivot columns of a degree; ``dimension`` stays the Groebner count
    it is checked against.
    """

    def __init__(self, model, relations: list):
        super().__init__(model, relations)
        self._cols: dict = {}  # degree -> {key: column index}
        self._keys: dict = {}  # degree -> [key]
        self._rows: dict = {}  # degree -> {pivot column: sparse row dict}

    def _relation_rows(self, degree: int):
        """Yield mono * r straightened, {key: coeff}, for every monomial of
        degree - 2 and, within it, every relation r in order."""
        for mono in _monomials(self.model.n, degree - 2):
            for core in self._cores:
                yield straighten({(i, j, mono): c for i, j, c in core})

    def _build(self, degree: int) -> None:
        if degree in self._rows or degree < 2:
            return
        keys = self.model.basis_keys(degree)
        col_of = {k: idx for idx, k in enumerate(keys)}
        pivot_rows: dict = {}
        for elem in self._relation_rows(degree):
            self._insert({col_of[k]: c for k, c in elem.items()}, pivot_rows)
        self._cols[degree] = col_of
        self._keys[degree] = keys
        self._rows[degree] = pivot_rows

    @staticmethod
    def _insert(row: dict, pivot_rows: dict) -> None:
        """Reduce a relation row and store what is left, made monic, at its
        smallest column; a unit is its own inverse."""
        row = EchelonReducer._reduce_vector(row, pivot_rows)
        if row:
            c = min(row)
            inv = row[c] if abs(row[c]) == 1 else Fraction(1, row[c])
            pivot_rows[c] = {cc: v * inv for cc, v in row.items()}

    @staticmethod
    def _reduce_vector(row: dict, pivot_rows: dict) -> dict:
        """The representative of row modulo the pivot rows with no entry in a
        pivot column.  Columns are visited in ascending order, and a pivot
        row only reaches columns after its pivot."""
        heap = list(row)
        heapq.heapify(heap)
        seen = set()
        out = dict(row)
        while heap:
            c = heapq.heappop(heap)
            if c in seen:
                continue
            seen.add(c)
            val = out.get(c)
            if not val:
                continue
            piv = pivot_rows.get(c)
            if piv is None:
                continue
            for cc, vv in piv.items():
                nv = out.get(cc, 0) - val * vv
                if nv:
                    out[cc] = nv
                    if cc not in seen:
                        heapq.heappush(heap, cc)
                elif cc in out:
                    del out[cc]
        return out

    def reduce_part(self, part: dict, degree: int) -> dict:
        """Canonical coordinates {key: Fraction} of a degree-homogeneous part,
        reduced over ints after its denominators are cleared."""
        self._build(degree)
        col_of = self._cols[degree]
        keys = self._keys[degree]
        den, ints = clear_denominators(part)
        red = self._reduce_vector({col_of[k]: v for k, v in ints.items()}, self._rows[degree])
        return {keys[c]: Fraction(v, den) for c, v in red.items()}

    def reduce(self, elem) -> dict:
        """Reduce every degree part of an element, straightened first;
        returns {degree: coords}.  Only commutators have coordinates here, so
        a nonzero linear part is a ValueError."""
        if elem[0]:
            raise ValueError("reduce takes a commutator element; this one has a linear part")
        parts: dict = {}  # the straightened commutator part by letter degree
        for (i, j, mono), c in straighten(elem[1]).items():
            parts.setdefault(sum(mono) + 2, {})[i, j, mono] = c
        out = {}
        for d, part in parts.items():
            coords = self.reduce_part(part, d)
            if coords:
                out[d] = coords
        return out

    def echelon_dimension(self, degree: int) -> int:
        """The number of non-pivot columns at ``degree`` (2 or more)."""
        self._build(degree)
        return len(self._keys[degree]) - len(self._rows[degree])


@cache
def l4_oracle() -> EchelonReducer:
    return EchelonReducer(L4_MODEL, _l4_relations())


@cache
def l3_oracle() -> EchelonReducer:
    return EchelonReducer(L3_MODEL, _l3_relations())
