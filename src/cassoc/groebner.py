"""Groebner bases of submodules of a free module over Q[x_0..x_{n-1}].

A vector is {(mono, pos): coeff}: mono an exponent tuple over the n
variables, pos the index of a basis vector of the free module, coeff an exact
rational (an int or a Fraction).  Terms are ordered as the tuples (mono, pos)
compare, exponents lexicographically, and the larger term leads; multiplying
by a monomial keeps that order, so it is a module order.  ``groebner_basis``
runs Buchberger's algorithm (Cox, Little and O'Shea, *Using Algebraic
Geometry*, ch. 5), and ``hilbert_numerator`` with ``standard_count`` counts
the standard monomials of each degree, so a quotient module's dimensions
need no linear algebra per degree.  Meant for small systems: a few dozen
generators of low degree.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb
from operator import add, le, sub

__all__ = ["groebner_basis", "module_reduce", "index_into", "s_vector", "hilbert_numerator", "standard_count"]


def _shift_into(out: dict, vec: dict, shift: tuple, q) -> None:
    """out -= q * x^shift * vec in place; terms that cancel are dropped."""
    for (mono, p), c in vec.items():
        t = (tuple(map(add, mono, shift)), p)
        v = out.get(t, 0) - q * c
        if v:
            out[t] = v
        else:
            out.pop(t, None)


def index_into(index: dict, g: dict) -> None:
    """File the monic vector g under its leading component as (lead mono, tail)."""
    mono, p = max(g)
    tail = dict(g)
    del tail[mono, p]
    index.setdefault(p, []).append((mono, tail))


def module_reduce(vec: dict, index: dict) -> dict:
    """The normal form of vec modulo the monic vectors filed in index by
    ``index_into``: no term of the result is a multiple of a leading term."""
    vec = dict(vec)
    out = {}
    while vec:
        term = max(vec)
        c = vec.pop(term)
        mono, p = term
        for lmono, tail in index.get(p, ()):
            if all(map(le, lmono, mono)):
                _shift_into(vec, tail, tuple(map(sub, mono, lmono)), c)
                break
        else:
            out[term] = c
    return out


def s_vector(f: dict, g: dict) -> dict:
    """The S-vector of two monic vectors whose leads share a component:
    each is shifted to the lcm of the leads, and their difference taken."""
    (fm, _), (gm, _) = max(f), max(g)
    top = tuple(map(max, fm, gm))
    out: dict = {}
    _shift_into(out, f, tuple(map(sub, top, fm)), -1)
    _shift_into(out, g, tuple(map(sub, top, gm)), 1)
    return out


def groebner_basis(vectors) -> tuple:
    """A Groebner basis of the submodule the vectors generate, by Buchberger's
    algorithm over exact rationals: every S-vector of two leads in one
    component is reduced, and what is left is added, made monic, until none
    is left.  Pairs are taken by ascending lcm, so degree by degree.  A unit
    lead is its own inverse, so integral vectors with unit leads stay
    integral."""
    basis: list = []
    heads: list = []
    index: dict = {}
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
        index_into(index, g)

    for vec in vectors:
        rest = module_reduce(vec, index)
        if rest:
            keep(rest)
    while pending:
        _, _, i, j = heapq.heappop(pending)
        rest = module_reduce(s_vector(basis[i], basis[j]), index)
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
