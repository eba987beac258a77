"""The four-strand quotient where the compressed pentagon lives.

Elements are modeled in the free metabelian Lie algebra on the six letters
a, b, c, d, e, v (letters 0..5): a linear part plus a commutator part that is
a module over commuting letter variables (Lemma 5.4a).  A commutator term is
a monomial m times a core bracket [x_i, x_j] with i > j, for any m, and
``MetabelianModel.bracket`` leaves it as it stands.  The one rule among
these terms is the Jacobi step

    x_k [x_i, x_j] = -x_i [x_j, x_k] + x_j [x_i, x_k]      (k < j < i),

and it lives only in the Groebner basis (``_jacobi_vectors``): the canonical
form of an element, in the free algebra as in a quotient, is a reducer's.

The defining relations of the quotient ([a,e] = [b,v] = [c,d] = 0 and the
x, y, z, u identifications) generate, as monomial multiples, a linear
subspace per degree.  Commutators commute in the quotient, so the commutator
part is a module over the commuting letter variables, and ``QuotientReducer``
computes one Groebner basis of the relation module (the Jacobi step and the
relations' core vectors, by Buchberger's algorithm in ``cassoc.groebner``).
That one basis gives both the dimension of every degree, as a count of
standard monomials, and the canonical coordinates of any element, as its
normal form on them.  An independent path, the per-degree row echelon of
the relation rows, lives in ``tests/echelon_oracle.py`` as the tests' oracle
for both.  The hand-derived rewrite identities of the source theory are
*checked* against this generic reduction, never assumed.

The substituted pentagon is written once, as ``_PENTAGON``: five signed
substitutions (sign, u, w) of phi.  The letters act on commutators as
commuting variables, so each term sum alpha[k, l] [u^k w^l u w] is
alpha(u, w) [u, w], the polynomial alpha in the two linear forms times the
core.  ``pentagon_check`` and ``pentagon_columns`` expand alpha(u, w) from
power tables of u and w, over ints, and reduce the result.
``pentagon_residual``, the signed sum of ``phi_bar_eval``, brackets every
[u^k w^l u w] afresh; it is the tests' reference.
``MetabelianModel.ad`` is the one repeated-bracket primitive behind the
section-5 identity suite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add

from .exact import clear_denominators, rational
from .groebner import NormalForm, groebner_basis, hilbert_numerator, standard_count
from .linalg import rref
from .series import _numerators

__all__ = [
    "LETTERS",
    "MetabelianModel",
    "L4_MODEL",
    "L3_MODEL",
    "QuotientReducer",
    "l4_reducer",
    "l3_reducer",
    "phi_bar_eval",
    "pentagon_residual",
    "pentagon_check",
    "pentagon_columns",
    "dimension_report",
    "identity_suite",
    "claim_53_span_checks",
]

LETTERS = "abcdev"  # a=t12 b=t23 c=t13 d=t24 e=t34 v=t14


class MetabelianModel:
    """Free metabelian Lie algebra on ``n_letters`` with exact coefficients.

    An element is (lin, comm): lin maps letter -> coefficient, comm maps keys
    (i, j, mono) -> coefficient, i > j and mono any exponent tuple, the term
    mono * [x_i, x_j].  Terms are never straightened, so two elements may be
    equal in the algebra and differ here; ``QuotientReducer(model, [])``
    gives the canonical form.  Coefficients are ints where they are integral
    (letters, brackets of letters, the relations) and Fractions otherwise;
    both are exact.
    """

    def __init__(self, n_letters: int):
        self.n = n_letters

    # -- element constructors ----------------------------------------------------

    def zero(self):
        return ({}, {})

    def letter(self, s):
        return self.combo({s: 1})

    def combo(self, coeffs: dict):
        """The linear combination of letters, given by int index or by name in
        ``LETTERS``; a letter outside the model (a bool included) is a
        ValueError, a coefficient that is not an int or a Fraction a TypeError."""
        lin = {}
        for s, c in coeffs.items():
            idx = LETTERS.find(s) if isinstance(s, str) and len(s) == 1 else s
            if not (type(idx) is int and 0 <= idx < self.n):
                raise ValueError(f"letter {s!r} is not one of the model's {self.n} letters")
            c = rational(c)
            if c:
                lin[idx] = lin.get(idx, 0) + (c.numerator if c.denominator == 1 else c)
        return (lin, {})

    def add(self, x, y):
        out = (dict(x[0]), dict(x[1]))
        self.add_into(out, y, 1)
        return out

    @staticmethod
    def add_into(out, y, q) -> None:
        """out += q * y in place; coefficients that cancel are dropped."""
        unit = q == 1
        for part, other in zip(out, y):
            for k, c in other.items():
                v = part.get(k, 0) + (c if unit else q * c)
                if v:
                    part[k] = v
                else:
                    part.pop(k, None)

    def scale(self, x, q):
        q = rational(q)
        if not q:
            return ({}, {})
        return ({i: c * q for i, c in x[0].items()}, {k: c * q for k, c in x[1].items()})

    def sub(self, x, y):
        out = (dict(x[0]), dict(x[1]))
        self.add_into(out, y, -1)
        return out

    # -- brackets ----------------------------------------------------------------

    def bracket(self, x, y):
        """[x, y]; the result is purely a commutator part.  A bracket of two
        letters is a core term at the zero monomial, and bracketing a letter
        into a term adds 1 to that letter's exponent in its monomial."""
        out: dict = {}

        def accumulate(key, c):
            v = out.get(key, 0) + c
            if v:
                out[key] = v
            else:
                out.pop(key, None)

        zero_mono = (0,) * self.n
        for i, ci in x[0].items():
            for j, cj in y[0].items():
                if i > j:
                    accumulate((i, j, zero_mono), ci * cj)
                elif i < j:
                    accumulate((j, i, zero_mono), -ci * cj)
        for lin, comm, sign in ((x[0], y[1], 1), (y[0], x[1], -1)):
            for (i, j, mono), c in comm.items():
                for s, cs in lin.items():
                    accumulate((i, j, mono[:s] + (mono[s] + 1,) + mono[s + 1:]), sign * c * cs)
        return ({}, out)

    def long_commutator(self, word: list):
        """Right-nested [w_1, [w_2, [..., w_k]]] of elements or letters."""
        elems = [self.letter(w) if isinstance(w, (str, int)) else w for w in word]
        if len(elems) < 2:
            raise ValueError("word length must be >= 2")
        acc = elems[-1]
        for e in reversed(elems[:-1]):
            acc = self.bracket(e, acc)
        return acc

    def ad(self, x, k: int, elem):
        """(ad x)^k elem = [x, [x, ..., [x, elem]]] with k brackets."""
        for _ in range(k):
            elem = self.bracket(x, elem)
        return elem

    def mono_mult(self, elem, letter_powers: dict):
        """Apply prod_s (ad x_s)^{e_s} to a commutator-only element."""
        for s, e in letter_powers.items():
            elem = self.ad(self.letter(s), e, elem)
        return elem

    def basis_keys(self, degree: int) -> list:
        """The straightened keys of the given total degree, (i, j, mono) with
        every letter of mono >= j, in (core pair, monomial) lexicographic
        order: the standard monomials of the Jacobi vectors alone."""
        if degree < 2:
            return []
        keys = []
        for i in range(self.n):
            for j in range(i):
                # monomials of degree - 2 over letters >= j
                for mono in _monomials(self.n, degree - 2, minimum=j):
                    keys.append((i, j, mono))
        keys.sort()
        return keys


def _monomials(n: int, degree: int, minimum: int = 0):
    """Exponent tuples over n letters, total = degree, support >= minimum."""
    if degree == 0:
        yield (0,) * n
        return
    letters = range(minimum, n)
    for combo in combinations_with_replacement(letters, degree):
        mono = [0] * n
        for t in combo:
            mono[t] += 1
        yield tuple(mono)


L4_MODEL = MetabelianModel(6)
L3_MODEL = MetabelianModel(3)


def _l4_relations() -> list:
    m = L4_MODEL
    a, b, c, d, e, v = (m.letter(i) for i in range(6))
    br = m.bracket
    rels = [
        br(a, e),
        br(b, v),
        br(c, d),
        m.sub(br(a, b), br(b, c)),
        m.sub(br(b, c), br(c, a)),
        m.sub(br(a, d), br(d, v)),
        m.sub(br(d, v), br(v, a)),
        m.sub(br(b, e), br(e, d)),
        m.sub(br(e, d), br(d, b)),
        m.sub(br(c, e), br(e, v)),
        m.sub(br(e, v), br(v, c)),
    ]
    return rels


def _l3_relations() -> list:
    m = L3_MODEL
    a, b, c = (m.letter(i) for i in range(3))
    br = m.bracket
    return [m.sub(br(a, b), br(b, c)), m.sub(br(b, c), br(c, a))]


# -- the relation module ------------------------------------------------------------
#
# The commutator part is a module over the commuting letter variables
# Q[x_0..x_{n-1}] (Lemma 5.4a), a quotient of the free module with one basis
# vector e_ij per core pair i > j, at position pos (``_pair_positions``), in
# the vectors of ``cassoc.groebner``.  The key (i, j, mono) is the term
# (mono, pos[i, j]).


def _pair_positions(n: int) -> dict:
    """{(i, j): pos} over the core pairs i > j, in ascending order."""
    return {p: t for t, p in enumerate((i, j) for i in range(n) for j in range(i))}


def _jacobi_vectors(n: int) -> list:
    """x_k e_ij + x_i e_jk - x_j e_ik for k < j < i, the Jacobi step; each
    leads with x_k e_ij, so the standard monomials of these vectors alone
    are the keys of ``MetabelianModel.basis_keys``."""
    pos = _pair_positions(n)

    def x(s):
        return tuple(int(t == s) for t in range(n))

    return [
        {(x(k), pos[i, j]): 1, (x(i), pos[j, k]): 1, (x(j), pos[i, k]): -1}
        for i in range(n) for j in range(i) for k in range(j)
    ]


class QuotientReducer:
    """The quotient by a Groebner basis of its relation module.

    The relation subspace at degree n is spanned by monomial * r over the
    quadratic relations r (bracketing a relation into another commutator dies
    in the metabelian quotient, so monomial multiples generate everything).
    The letters act on the commutator part as commuting variables, so these
    are the submodule that the relations' core vectors and the Jacobi step
    generate (``relation_module``), and one Groebner basis of it, built once
    per reducer by Buchberger's algorithm, serves every degree.

    ``reduce`` reads each key (i, j, mono) as the term (mono, pos[i, j]) and
    takes its normal form (``groebner.NormalForm``, memoised per term), so
    its canonical coordinates sit on the standard monomials.  It clears the
    denominators of the element first and reduces over ints; every surviving
    coordinate is divided by that lcm once, so coordinates come back as
    Fractions.  ``dimension`` counts the same standard monomials.  A relation
    must be a combination of brackets of two letters (its core vector);
    anything else is a ValueError.
    """

    def __init__(self, model: MetabelianModel, relations: list):
        self.model = model
        self.relations = relations
        # each relation as its core vector, (i, j, c) over its keys (i, j, 0...);
        # integral coefficients become ints so the basis stays integral
        self._cores = []
        for rel in relations:
            if any(rel[0].values()) or any(any(mono) for _, _, mono in rel[1]):
                raise ValueError("a relation must be a combination of brackets of two letters")
            self._cores.append(
                [(i, j, c.numerator if c.denominator == 1 else c) for (i, j, _), c in rel[1].items()]
            )
        self._pos = _pair_positions(model.n)
        self._pairs = list(self._pos)  # pos -> (i, j)
        self._module = None  # (Groebner basis, Hilbert numerator, NormalForm), once built

    def reduce(self, elem) -> dict:
        """Reduce every degree part of an element; returns {degree: coords}.
        A commutator key (i, j, mono), i > j, is read as the term mono * e_ij.
        Only commutators have coordinates here, so a nonzero linear part is a
        ValueError."""
        if elem[0]:
            raise ValueError("reduce takes a commutator element; this one has a linear part")
        normal_form = self._built()[2]
        pos, pairs = self._pos, self._pairs
        coords = elem[1]
        # the checks pass all-int elements, which need no clearing and no division
        den, ints = (1, coords) if all(type(v) is int for v in coords.values()) else clear_denominators(coords)
        out: dict = {}
        for (mono, p), v in normal_form({(mono, pos[i, j]): v for (i, j, mono), v in ints.items()}).items():
            out.setdefault(sum(mono) + 2, {})[(*pairs[p], mono)] = Fraction(v, den) if den > 1 else Fraction(v)
        return out

    def is_zero(self, elem) -> bool:
        if elem[0]:
            return False
        return not self.reduce(elem)

    def relation_module(self) -> tuple:
        """(basis, numerator): a Groebner basis of the relation module, the
        Jacobi vectors and the relations' core vectors, and the Hilbert
        numerator of its standard monomials (``groebner.hilbert_numerator``).
        Read it, never mutate it."""
        return self._built()[:2]

    def _built(self) -> tuple:
        """(basis, numerator, normal form), built once, in locals, and
        published by one rebinding."""
        module = self._module
        if module is None:
            n = self.model.n
            basis = groebner_basis(_jacobi_vectors(n) + self._core_vectors())
            module = (basis, hilbert_numerator(n, len(self._pos), basis), NormalForm(basis))
            self._module = module
        return module

    def _core_vectors(self) -> list:
        """Each nonzero relation as a module vector, its terms at the zero
        monomial."""
        zero = (0,) * self.model.n
        return [{(zero, self._pos[i, j]): c for i, j, c in core} for core in self._cores if core]

    def dimension(self, degree: int) -> int:
        """The dimension of the quotient at letter degree ``degree``: the
        standard monomials of the relation module's Groebner basis of
        polynomial degree ``degree - 2``."""
        if degree == 1:
            return self.model.n
        if degree < 2:
            return 0
        return standard_count(self.model.n, self._built()[1], degree - 2)


_L4_REDUCER: QuotientReducer | None = None
_L3_REDUCER: QuotientReducer | None = None


def l4_reducer() -> QuotientReducer:
    global _L4_REDUCER
    if _L4_REDUCER is None:
        _L4_REDUCER = QuotientReducer(L4_MODEL, _l4_relations())
    return _L4_REDUCER


def l3_reducer() -> QuotientReducer:
    global _L3_REDUCER
    if _L3_REDUCER is None:
        _L3_REDUCER = QuotientReducer(L3_MODEL, _l3_relations())
    return _L3_REDUCER


# -- pentagon ----------------------------------------------------------------------


# The substituted pentagon, one (sign, u, w) per term phi(u, w):
#   phi(b,e) + phi(a+c, d+e) + phi(a,b) - phi(a, b+d) - phi(b+c, e).
_PENTAGON = (
    (1, {"b": 1}, {"e": 1}),
    (1, {"a": 1, "c": 1}, {"d": 1, "e": 1}),
    (1, {"a": 1}, {"b": 1}),
    (-1, {"a": 1}, {"b": 1, "d": 1}),
    (-1, {"b": 1, "c": 1}, {"e": 1}),
)


def _ladder(u: dict, w: dict, N: int) -> dict:
    """{(k, l): [u^k w^l u w]} for k + l <= N - 2, each bracket one step from
    a neighbour: (k, 0) = [u, (k-1, 0)] and (k, l) = [w, (k, l-1)]."""
    m = L4_MODEL
    eu, ew = m.combo(u), m.combo(w)
    ladder: dict = {}
    for k in range(N - 1):
        ladder[k, 0] = m.bracket(eu, ladder[k - 1, 0] if k else ew)
        for l in range(1, N - 1 - k):
            ladder[k, l] = m.bracket(ew, ladder[k, l - 1])
    return ladder


def _combination(terms):
    """sum q * elem over the (q, elem) pairs, in L4_MODEL, accumulated into one
    new element (the elems are only read)."""
    total = L4_MODEL.zero()
    for q, elem in terms:
        if q:
            L4_MODEL.add_into(total, elem, q)
    return total


def phi_bar_eval(alpha, u: dict, w: dict, N: int):
    """sum_{k+l <= N-2} alpha[k,l] [u^k w^l u w] for letter combinations u, w,
    over a ladder built afresh.  Each bracket is mono * [u, w] expanded,
    unstraightened, so this is alpha(u, w) [u, w] term by term."""
    return _combination((alpha.coeff(k, l), br) for (k, l), br in _ladder(u, w, N).items())


def pentagon_residual(alpha, N: int):
    """LHS - RHS of the substituted pentagon: the signed sum of
    ``phi_bar_eval`` over the five terms of ``_PENTAGON``, unstraightened.
    The reference that the tests hold ``pentagon_check``'s element to."""
    return _combination((sign, phi_bar_eval(alpha, u, w, N)) for sign, u, w in _PENTAGON)


def _powers(form: dict, top: int) -> list:
    """[form^0, ..., form^top] of a linear form {letter: coeff}, as
    polynomials {mono: coeff} in the commuting letters."""
    table = [{(0,) * L4_MODEL.n: 1}]
    for _ in range(top):
        power: dict = {}
        for mono, c in table[-1].items():
            for s, cs in form.items():
                key = mono[:s] + (mono[s] + 1,) + mono[s + 1:]
                power[key] = power.get(key, 0) + c * cs
        table.append(power)
    return table


def _pentagon_elements(tables: list) -> list:
    """Per q in ``tables``, the residual sum sign * alpha(u, w) [u, w] over
    ``_PENTAGON``, alpha(u, w) = sum q[k, l] u^k w^l, over one set of power
    tables of u and w.  A key (i, j, mono) is the term mono * e_ij, so
    ``reduce`` gives the coordinates of ``pentagon_residual``.  Int q, int
    element."""
    m = L4_MODEL
    k_top = max((k for q in tables for k, _ in q), default=0)
    l_top = max((l for q in tables for _, l in q), default=0)
    outs: list = [{} for _ in tables]
    for sign, u, w in _PENTAGON:
        eu, ew = m.combo(u), m.combo(w)
        u_pows, w_pows = _powers(eu[0], k_top), _powers(ew[0], l_top)
        core = [(i, j, sign * r) for (i, j, _), r in m.bracket(eu, ew)[1].items()]
        for q, out in zip(tables, outs):
            alpha: dict = {}
            for (k, l), c in q.items():
                for mu, cu in u_pows[k].items():
                    for mw, cw in w_pows[l].items():
                        mono = tuple(map(add, mu, mw))
                        alpha[mono] = alpha.get(mono, 0) + c * cu * cw
            for i, j, r in core:
                for mono, p in alpha.items():
                    out[i, j, mono] = out.get((i, j, mono), 0) + r * p
    return [({}, {key: v for key, v in out.items() if v}) for out in outs]


def pentagon_check(alpha, N: int) -> dict:
    """Reduce the pentagon residual; returns per-degree counts of nonzero
    canonical coordinates (all zeros means the pentagon holds to degree N).
    The residual lives at letter degree >= 2, so N must be at least 2, and
    the table, any series over QQ, must reach order N - 2, the last one the
    residual reads.  The element is built over the int numerators of
    alpha's integer form through order N - 2."""
    if N < 2:
        raise ValueError(f"pentagon letter degree {N} is below 2, where the residual starts")
    if alpha.order < N - 2:
        raise ValueError(f"alpha table order {alpha.order} too small for letter degree {N}")
    reduced = l4_reducer().reduce(_pentagon_elements([_numerators(alpha.truncate(N - 2))])[0])
    return {d: len(reduced.get(d, {})) for d in range(2, N + 1)}


def pentagon_columns(N: int) -> dict:
    """The pentagon maps of every letter degree d = 2..N, as {d: [c_k]}:
    c_k, k = 0..d-2, holds the canonical coordinates of
    sum sign * [u^k w^(d-2-k) u w] over the five terms (sign, u, w) of
    ``_PENTAGON``, the reduced element of the unit table at (k, d-2-k).
    The residual is linear in alpha, and alpha[k, l] shows at letter degree
    k + l + 2 only, so any table's degree-d coordinates are
    sum_k alpha[k, d-2-k] c_k."""
    red = l4_reducer()
    elements = iter(_pentagon_elements([{(k, d - 2 - k): 1} for d in range(2, N + 1) for k in range(d - 1)]))
    return {d: [red.reduce(next(elements)).get(d, {}) for _ in range(d - 1)] for d in range(2, N + 1)}


def dimension_report(N: int, variant: str) -> dict:
    """Quotient dimensions per degree for the three- or four-strand quotient."""
    if variant == "L3bar":
        red = l3_reducer()
        model_dims = {1: 3}
        for d in range(2, N + 1):
            model_dims[d] = d - 1
    elif variant == "L4bar":
        red = l4_reducer()
        # exact dimensions, 6, 4, then 5(d-1): the relation module's Groebner
        # basis gives them for every degree
        model_dims = {1: 6, 2: 4}
        for d in range(3, N + 1):
            model_dims[d] = 5 * (d - 1)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    out = {}
    for d in range(1, N + 1):
        out[d] = {"dimension": red.dimension(d), "reference": model_dims[d]}
    return out


# -- the section-5 identity suite -----------------------------------------------------


def _xyzu():
    m = L4_MODEL
    return (
        m.bracket(m.letter("a"), m.letter("b")),  # x
        m.bracket(m.letter("a"), m.letter("d")),  # y
        m.bracket(m.letter("b"), m.letter("e")),  # z
        m.bracket(m.letter("c"), m.letter("e")),  # u
    )


def identity_suite(kmax: int = 4, lmax: int = 4) -> list:
    """Every displayed rewrite identity, as (name, element-that-must-reduce-to-zero)."""
    m = L4_MODEL
    x, y, z, u = _xyzu()
    a, b, c, d, e, v = (m.letter(i) for i in range(6))
    neg_de = m.combo({"d": -1, "e": -1})
    items: list = []

    def emit(name, elem):
        items.append((name, elem))

    # Claim 5.2a: [a+b+c, x] = 0 and friends
    emit("5.2a [a+b+c,x]", m.bracket(m.combo({"a": 1, "b": 1, "c": 1}), x))
    emit("5.2a [a+d+v,y]", m.bracket(m.combo({"a": 1, "d": 1, "v": 1}), y))
    emit("5.2a [b+e+d,z]", m.bracket(m.combo({"b": 1, "e": 1, "d": 1}), z))
    emit("5.2a [c+e+v,u]", m.bracket(m.combo({"c": 1, "e": 1, "v": 1}), u))
    # Claim 5.2b
    for tgt, nm in ((a, "a"), (b, "b"), (x, "x")):
        emit(
            f"5.2b [d{nm}]+[e{nm}]+[v{nm}]",
            m.add(m.add(m.bracket(d, tgt), m.bracket(e, tgt)), m.bracket(v, tgt)),
        )
    # Claim 5.2c: three chains of four
    dx, ex, vx = m.bracket(d, x), m.bracket(e, x), m.bracket(v, x)
    emit("5.2c [dx]+[cy]", m.add(dx, m.bracket(c, y)))
    emit("5.2c [dx]+[cz]", m.add(dx, m.bracket(c, z)))
    emit("5.2c [dx]-[du]", m.sub(dx, m.bracket(d, u)))
    emit("5.2c [ex]+[ey]", m.add(ex, m.bracket(e, y)))
    emit("5.2c [ex]+[az]", m.add(ex, m.bracket(a, z)))
    emit("5.2c [ex]-[au]", m.sub(ex, m.bracket(a, u)))
    emit("5.2c [vx]+[by]", m.add(vx, m.bracket(b, y)))
    emit("5.2c [vx]+[vz]", m.add(vx, m.bracket(v, z)))
    emit("5.2c [vx]-[bu]", m.sub(vx, m.bracket(b, u)))
    # Lemma 5.4a: prefix letters commute over any longer word
    for s1 in range(6):
        for s2 in range(s1 + 1, 6):
            core = m.bracket(m.letter(2), m.bracket(m.letter(4), m.bracket(m.letter(0), m.letter(1))))
            lhs = m.bracket(m.letter(s1), m.bracket(m.letter(s2), core))
            rhs = m.bracket(m.letter(s2), m.bracket(m.letter(s1), core))
            emit(f"5.4a [{LETTERS[s1]}{LETTERS[s2]}w]-[{LETTERS[s2]}{LETTERS[s1]}w]", m.sub(lhs, rhs))
    # Lemma 5.4b: words w = d^i e^j with at least one letter
    for i in range(0, kmax + 1):
        for j in range(0, lmax + 1):
            if i + j < 1:
                continue
            powers = {"d": i, "e": j}
            wx = m.mono_mult(x, powers)
            emit(f"5.4b [a d^{i}e^{j} x]-[e d^{i}e^{j} x]",
                 m.sub(m.bracket(a, wx), m.bracket(e, wx)))
            emit(f"5.4b [b d^{i}e^{j} x]-[(-d-e) d^{i}e^{j} x]",
                 m.sub(m.bracket(b, wx), m.bracket(neg_de, wx)))
            emit(f"5.4b [c d^{i}e^{j} x]-[d d^{i}e^{j} x]",
                 m.sub(m.bracket(c, wx), m.bracket(d, wx)))
    # Claims 5.6a-d (k >= 0, l >= 1)
    for k in range(0, kmax + 1):
        for l in range(1, lmax + 1):
            emit(f"5.6a [b^{k}d^{l}x]=[(-d-e)^{k}d^{l}x]",
                 m.sub(m.ad(b, k, m.ad(d, l, x)), m.ad(neg_de, k, m.ad(d, l, x))))
            emit(f"5.6a [d^{k}b^{l}y]=-[d^{k}(-d-e)^{l}x]",
                 m.add(m.ad(d, k, m.ad(b, l, y)), m.ad(d, k, m.ad(neg_de, l, x))))
            emit(f"5.6b [b^{k}c^{l}z]=-[(-d-e)^{k}d^{l}x]",
                 m.add(m.ad(b, k, m.ad(c, l, z)), m.ad(neg_de, k, m.ad(d, l, x))))
            emit(f"5.6b [c^{k}b^{l}u]=[d^{k}(-d-e)^{l}x]",
                 m.sub(m.ad(c, k, m.ad(b, l, u)), m.ad(d, k, m.ad(neg_de, l, x))))
            emit(f"5.6c [d^{k}e^{l}y]=-[d^{k}e^{l}x]",
                 m.add(m.ad(d, k, m.ad(e, l, y)), m.ad(d, k, m.ad(e, l, x))))
            emit(f"5.6c [e^{k}d^{l}u]=[e^{k}d^{l}x]",
                 m.sub(m.ad(e, k, m.ad(d, l, u)), m.ad(e, k, m.ad(d, l, x))))
            emit(f"5.6d [a^{k}c^{l}y]=-[e^{k}d^{l}x]",
                 m.add(m.ad(a, k, m.ad(c, l, y)), m.ad(e, k, m.ad(d, l, x))))
            emit(f"5.6d [c^{k}a^{l}u]=[d^{k}e^{l}x]",
                 m.sub(m.ad(c, k, m.ad(a, l, u)), m.ad(d, k, m.ad(e, l, x))))
    # Claims 5.7a-d (k >= 0)
    b_plus_d = m.combo({"b": 1, "d": 1})
    b_plus_c = m.combo({"b": 1, "c": 1})
    d_plus_e = m.combo({"d": 1, "e": 1})
    a_plus_c = m.combo({"a": 1, "c": 1})
    neg_e = m.combo({"e": -1})
    for k in range(0, kmax + 1):
        emit(f"5.7a [(b+d)^{k}x]",
             m.sub(m.ad(b_plus_d, k, x),
                   m.add(m.sub(m.ad(b, k, x), m.ad(neg_de, k, x)), m.ad(neg_e, k, x))))
        emit(f"5.7a [(b+d)^{k}y]",
             m.sub(m.ad(b_plus_d, k, y),
                   m.sub(m.add(m.ad(d, k, y), m.ad(d, k, x)), m.ad(neg_e, k, x))))
        emit(f"5.7b [(b+c)^{k}z]",
             m.sub(m.ad(b_plus_c, k, z),
                   m.sub(m.add(m.ad(b, k, z), m.ad(neg_de, k, x)), m.ad(neg_e, k, x))))
        emit(f"5.7b [(b+c)^{k}u]",
             m.sub(m.ad(b_plus_c, k, u),
                   m.add(m.sub(m.ad(c, k, u), m.ad(d, k, x)), m.ad(neg_e, k, x))))
        emit(f"5.7c [(d+e)^{k}y]",
             m.sub(m.ad(d_plus_e, k, y),
                   m.sub(m.add(m.ad(d, k, y), m.ad(d, k, x)), m.ad(d_plus_e, k, x))))
        emit(f"5.7c [(d+e)^{k}u]",
             m.sub(m.ad(d_plus_e, k, u),
                   m.add(m.sub(m.ad(e, k, u), m.ad(e, k, x)), m.ad(d_plus_e, k, x))))
        emit(f"5.7d [(a+c)^{k}y]",
             m.sub(m.ad(a_plus_c, k, y),
                   m.sub(m.add(m.ad(a, k, y), m.ad(e, k, x)), m.ad(d_plus_e, k, x))))
        emit(f"5.7d [(a+c)^{k}u]",
             m.sub(m.ad(a_plus_c, k, u),
                   m.add(m.sub(m.ad(c, k, u), m.ad(d, k, x)), m.ad(d_plus_e, k, x))))
    # Lemma 5.8a/b (k, l >= 0)
    for k in range(0, kmax + 1):
        for l in range(0, lmax + 1):
            lhs = m.long_commutator([a] * k + [b_plus_d] * l + [a, b_plus_d])
            rhs = m.add(
                m.add(m.ad(a, k, m.ad(b, l, x)), m.ad(a, k, m.ad(d, l, y))),
                m.sub(m.ad(e, k, m.ad(d, l, x)), m.ad(e, k, m.ad(neg_de, l, x))),
            )
            emit(f"5.8a [a^{k}(b+d)^{l}a(b+d)] (k={k},l={l})", m.sub(lhs, rhs))
            lhs2 = m.long_commutator([b_plus_c] * k + [e] * l + [b_plus_c, e])
            rhs2 = m.add(
                m.add(m.ad(b, k, m.ad(e, l, z)), m.ad(c, k, m.ad(e, l, u))),
                m.sub(m.ad(neg_de, k, m.ad(e, l, x)), m.ad(d, k, m.ad(e, l, x))),
            )
            emit(f"5.8b-first [(b+c)^{k}e^{l}(b+c)e] (k={k},l={l})", m.sub(lhs2, rhs2))
            lhs3 = m.long_commutator([a_plus_c] * k + [d_plus_e] * l + [a_plus_c, d_plus_e])
            rhs3 = m.add(
                m.add(m.ad(a, k, m.ad(d, l, y)), m.ad(c, k, m.ad(e, l, u))),
                m.sub(m.ad(e, k, m.ad(d, l, x)), m.ad(d, k, m.ad(e, l, x))),
            )
            emit(f"5.8b [(a+c)^{k}(d+e)^{l}(a+c)(d+e)] (k={k},l={l})", m.sub(lhs3, rhs3))
    return items


def claim_53_span_checks() -> bool:
    """Degree-3 generation: every simple commutator lies in the span of the 8
    listed simple ones, every non-simple one in the span of [dx], [ex]."""
    m = L4_MODEL
    red = l4_reducer()
    x, y, z, u = _xyzu()
    a, b, c, d, e, v = (m.letter(i) for i in range(6))
    simple_gens = [
        m.bracket(a, x), m.bracket(b, x), m.bracket(a, y), m.bracket(d, y),
        m.bracket(b, z), m.bracket(e, z), m.bracket(c, u), m.bracket(e, u),
    ]
    nonsimple_gens = [m.bracket(d, x), m.bracket(e, x)]
    simple_all = [
        m.bracket(t, w)
        for w, ws in ((x, "x"), (y, "y"), (z, "z"), (u, "u"))
        for t in {
            "x": (a, b, c), "y": (a, d, v), "z": (b, e, d), "u": (c, e, v),
        }[ws]
    ]
    nonsimple_all = [
        m.bracket(t, w)
        for w, others in ((x, (d, e, v)), (y, (b, c, e)), (z, (a, c, v)), (u, (a, b, d)))
        for t in others
    ]

    return all(_in_span(red, t, simple_gens) for t in simple_all) and all(
        _in_span(red, t, nonsimple_gens) for t in nonsimple_all
    )


def _in_span(reducer, target, gens: list) -> bool:
    """Whether target reduces, in degree 3, into the span of the gens: one
    ``rref``, so one ``rref_int`` elimination, over the columns gens +
    [target], whose last column is a pivot exactly when the target lies
    outside the span."""
    cols = [reducer.reduce(g).get(3, {}) for g in gens + [target]]
    keys = sorted({k for col in cols for k in col})
    _, pivots = rref([[col.get(k, 0) for col in cols] for k in keys])
    return len(gens) not in pivots
