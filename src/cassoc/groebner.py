"""Groebner bases of submodules of a free module over Q[x_0..x_{n-1}].

A vector is {(mono, pos): coeff}: mono an exponent tuple over the n
variables, pos the index of a basis vector of the free module, coeff an exact
rational (an int or a Fraction).  Terms are ordered as the tuples (mono, pos)
compare, exponents lexicographically, and the larger term leads; multiplying
by a monomial keeps that order, so it is a module order.  ``groebner_basis``
runs Buchberger's algorithm (Cox, Little and O'Shea, *Using Algebraic
Geometry*, ch. 5), reducing by ``NormalForm``, and the same ``NormalForm``
over the finished basis gives canonical coordinates on the standard
monomials.  ``hilbert_numerator`` with ``standard_count`` counts the
standard monomials of each degree, so a quotient module's dimensions need
no linear algebra per degree.  Meant for small systems: a few dozen
generators of low degree.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb
from operator import add, le, sub

__all__ = ["groebner_basis", "NormalForm", "s_vector", "hilbert_numerator", "standard_count"]


def _add_into(out: dict, vec: dict, q) -> None:
    """out += q * vec in place; terms that cancel are dropped."""
    for t, c in vec.items():
        v = out.get(t, 0) + q * c
        if v:
            out[t] = v
        else:
            out.pop(t, None)


def _shifted(vec: dict, shift: tuple) -> dict:
    """x^shift * vec."""
    return {(tuple(map(add, mono, shift)), p): c for (mono, p), c in vec.items()}


class NormalForm:
    """Normal forms modulo the monic vectors filed so far (``file``).

    The normal form of a vector is the sum of its terms' normal forms, each
    memoised.  A term that no filed lead divides is standard and its own
    normal form; any other term (mono, pos) is rewritten by the first filed
    vector whose lead divides it, as -sum c * NF(x^shift * t) over that
    vector's tail terms c * t, all smaller in the term order, so rewriting ends.
    Each memo entry is built in locals and stored whole, so threads sharing
    a finished index read complete entries; filing a vector empties the
    memo.  Rewriting recurses once per step of a chain of rewrites; on the
    pentagon quotient that stays under 50 frames through letter degree 20.
    """

    def __init__(self, vectors=()):
        self._index: dict = {}  # pos -> [(lead mono, tail)], in filing order
        self._memo: dict = {}  # term -> its normal form, {standard term: coeff}
        for g in vectors:
            self.file(g)

    def file(self, g: dict) -> None:
        """File the monic vector g under its leading component as (lead mono, tail)."""
        mono, p = max(g)
        tail = dict(g)
        del tail[mono, p]
        self._index.setdefault(p, []).append((mono, tail))
        self._memo = {}

    def _term(self, term) -> dict:
        """The normal form of one term; read it, never mutate it."""
        out = self._memo.get(term)
        if out is None:
            mono, p = term
            for lmono, tail in self._index.get(p, ()):
                if all(map(le, lmono, mono)):
                    shift = tuple(map(sub, mono, lmono))
                    out = {}
                    for (m, q), c in tail.items():
                        _add_into(out, self._term((tuple(map(add, m, shift)), q)), -c)
                    break
            else:
                out = {term: 1}
            self._memo[term] = out
        return out

    def __call__(self, vec: dict) -> dict:
        """The normal form of vec: no term of it is a multiple of a filed lead."""
        out: dict = {}
        for t, c in vec.items():
            _add_into(out, self._term(t), c)
        return out


def s_vector(f: dict, g: dict) -> dict:
    """The S-vector of two monic vectors whose leads share a component:
    each is shifted to the lcm of the leads, and their difference taken."""
    (fm, _), (gm, _) = max(f), max(g)
    top = tuple(map(max, fm, gm))
    out = _shifted(f, tuple(map(sub, top, fm)))
    _add_into(out, _shifted(g, tuple(map(sub, top, gm))), -1)
    return out


def groebner_basis(vectors) -> tuple:
    """A Groebner basis of the submodule the vectors generate, by Buchberger's
    algorithm over exact rationals: every S-vector of two leads in one
    component is reduced, and what is left is added, made monic, until none
    is left.  Pairs are taken by ascending lcm, so degree by degree.  A unit
    lead is its own inverse, so integral vectors with unit leads stay
    integral.  Every reduction is by ``NormalForm``, whose memo each new
    vector empties."""
    basis: list = []
    heads: list = []
    normal_form = NormalForm()
    pending: list = []

    def keep(vec):
        lc = vec[max(vec)]
        inv = lc if abs(lc) == 1 else Fraction(1, lc)
        g = {t: c * inv for t, c in vec.items()}
        gm, gp = head = max(g)
        for idx, (hm, hp) in enumerate(heads):
            if hp == gp:
                top = tuple(map(max, hm, gm))
                heapq.heappush(pending, (sum(top), top, idx, len(basis)))
        basis.append(g)
        heads.append(head)
        normal_form.file(g)

    for vec in vectors:
        rest = normal_form(vec)
        if rest:
            keep(rest)
    while pending:
        _, _, i, j = heapq.heappop(pending)
        rest = normal_form(s_vector(basis[i], basis[j]))
        if rest:
            keep(rest)
    return tuple(basis)


def hilbert_numerator(n: int, rank: int, basis) -> dict:
    """{k: c}: the number of standard monomials of degree D, summed over the
    ``rank`` components, is sum c * C(D - k + n - 1, n - 1) over k <= D.  Per
    component this is inclusion-exclusion over its minimal leading monomials,
    those no other leading monomial there divides, with the lcms of their
    subsets merged as they arise."""
    leads: dict = {}
    for g in basis:
        mono, p = max(g)
        leads.setdefault(p, set()).add(mono)
    numerator: dict = {}
    for p in range(rank):
        monos = leads.get(p, set())
        terms = {(0,) * n: 1}
        for lead in sorted(m for m in monos if not any(o != m and all(map(le, o, m)) for o in monos)):
            for mono, c in list(terms.items()):
                top = tuple(map(max, mono, lead))
                terms[top] = terms.get(top, 0) - c
        for mono, c in terms.items():
            numerator[sum(mono)] = numerator.get(sum(mono), 0) + c
    return {k: c for k, c in sorted(numerator.items()) if c}


def standard_count(n: int, numerator: dict, degree: int) -> int:
    """The number of standard monomials of polynomial degree ``degree``."""
    return sum(c * comb(degree - k + n - 1, n - 1) for k, c in numerator.items() if k <= degree)
