"""Hausdorff series log(exp P * exp Q) in the quotient where commutators commute.

Elements of the two-generator quotient are a linear part x_P P + x_Q Q plus a
commutator part: a BiSeries in (p, q) whose (i, j) coefficient multiplies the
basis bracket [Q^j P^i Q P] (so the (i, j) term has word degree i + j + 2).

Three independent computations of the same series live here:

* ``compressed_cbh``         -- the closed form with coefficients C[m,n]/(m! n!)
* ``classical_cbh_in_model`` -- the derivation recursion H_m = (1/m) D(H_{m-1})
* ``associative_log_oracle`` -- log of truncated exponentials in the free
  associative algebra, pushed back to brackets by the Dynkin projection

plus the analogous Hausdorff product for the three-letter model used by the
hexagon checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exact import bernoulli, ext_bernoulli_recursive
from .series import QQ, BiSeries

__all__ = [
    "PQElement",
    "compressed_cbh",
    "classical_cbh_in_model",
    "associative_log_oracle",
    "word_to_canonical",
    "L3Element",
    "l3_letter",
    "hausdorff_in_l3",
]


class PQElement:
    """Model element: linear part in P, Q plus commuting-commutator part."""

    __slots__ = ("lin_p", "lin_q", "comm", "order")

    def __init__(self, lin_p: Fraction, lin_q: Fraction, comm: BiSeries, order: int):
        self.lin_p = Fraction(lin_p)
        self.lin_q = Fraction(lin_q)
        self.comm = comm  # coefficient of [Q^j P^i Q P] at key (i, j)
        self.order = order  # word-degree truncation; comm is valid to order - 2

    @classmethod
    def zero(cls, order: int) -> "PQElement":
        return cls(0, 0, BiSeries(QQ, {}, order - 2), order)

    @classmethod
    def letter(cls, name: str, order: int) -> "PQElement":
        if name == "P":
            return cls(1, 0, BiSeries(QQ, {}, order - 2), order)
        if name == "Q":
            return cls(0, 1, BiSeries(QQ, {}, order - 2), order)
        raise ValueError(name)

    def __add__(self, other: "PQElement") -> "PQElement":
        return PQElement(
            self.lin_p + other.lin_p,
            self.lin_q + other.lin_q,
            self.comm + other.comm,
            min(self.order, other.order),
        )

    def __sub__(self, other: "PQElement") -> "PQElement":
        return self + other.scale(Fraction(-1))

    def scale(self, q: Fraction) -> "PQElement":
        return PQElement(self.lin_p * q, self.lin_q * q, self.comm.scale_rational(q), self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PQElement):
            return NotImplemented
        return self.lin_p == other.lin_p and self.lin_q == other.lin_q and self.comm == other.comm

    def is_zero(self) -> bool:
        return self.lin_p == 0 and self.lin_q == 0 and self.comm.is_zero()

    def bracket(self, other: "PQElement") -> "PQElement":
        """[self, other] in the quotient: lands entirely in the commutator part."""
        order = min(self.order, other.order)
        comm = BiSeries(QQ, {}, order - 2)
        # [x_lin, y_lin]: [P,Q] = -[QP] sits at key (0, 0)
        scal = self.lin_q * other.lin_p - self.lin_p * other.lin_q
        if scal:
            comm._acc((0, 0), Fraction(scal))
        # [x_lin, y_comm]: prefixing by P multiplies by p, by Q multiplies by q
        comm = comm + _times_linear(other.comm, self.lin_p, self.lin_q)
        comm = comm - _times_linear(self.comm, other.lin_p, other.lin_q)
        comm._clean()
        return PQElement(0, 0, comm, order)

    def records(self) -> list:
        """Canonical-basis dump: (n, m, coefficient) for [Q^{n-1} P^{m-1} Q P]."""
        out = []
        for (i, j), c in sorted(self.comm.coeffs.items(), key=lambda t: (t[0][0] + t[0][1], t[0])):
            out.append((j + 1, i + 1, c))
        return out


def _times_linear(comm: BiSeries, c1: Fraction, c2: Fraction) -> BiSeries:
    """comm * (c1 lam + c2 mu) at comm's order: bracketing a commutator part
    with the linear part c1 * (first letter) + c2 * (second letter)."""
    ring = comm.ring
    lin = BiSeries(ring, {(1, 0): ring.from_rational(c1), (0, 1): ring.from_rational(c2)}, comm.order)
    return comm * lin


def compressed_cbh(N: int) -> PQElement:
    """P + Q + sum C[m,n]/(m! n!) [Q^{n-1} P^{m-1} Q P], truncated at word degree N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    comm = BiSeries(QQ, {}, N - 2)
    for m in range(1, N):
        for n in range(1, N - m + 1):
            c = ext_bernoulli_recursive(m, n)
            if c:
                comm.coeffs[(m - 1, n - 1)] = Fraction(c, factorial(m) * factorial(n))
    return PQElement(1, 1, comm, N)


def _h1(N: int) -> PQElement:
    """H_1 = P + sum_{k>=1} B_k/k! [Q^k P]."""
    comm = BiSeries(QQ, {}, N - 2)
    for k in range(1, N):
        b = bernoulli(k)
        if b:
            comm.coeffs[(0, k - 1)] = Fraction(b, factorial(k))
    return PQElement(1, 0, comm, N)


def _derive(elem: PQElement, h1: PQElement) -> PQElement:
    """The derivation D = H_1 d/dQ: Q -> H_1, P -> 0, with the basis rule

    D [Q^{n-1} P^{m-1} Q P] = (n-1) [Q^{n-2} P^m Q P] - sum_k B_k/k! [Q^{k+n-2} P^m Q P].
    """
    N = elem.order
    out = h1.scale(elem.lin_q)
    comm = BiSeries(QQ, {}, N - 2)
    for (i, j), c in elem.comm.coeffs.items():
        # key (i, j) is [Q^j P^i Q P]; n - 1 = j, m - 1 = i
        if j >= 1 and (i + 1) + (j - 1) <= comm.order:
            comm._acc((i + 1, j - 1), c * j)
        for k in range(1, comm.order - i - j + 2):
            b = bernoulli(k)
            if b and (i + 1) + (j + k - 1) <= comm.order:
                comm._acc((i + 1, j + k - 1), c * Fraction(-b, factorial(k)))
    comm._clean()
    return out + PQElement(0, 0, comm, N)


def classical_cbh_in_model(N: int) -> PQElement:
    """Sum of the recursion H_0 = Q, H_1, H_m = (1/m) D(H_{m-1}), inside the model."""
    if N < 1:
        raise ValueError("N must be >= 1")
    total = PQElement.letter("Q", N)
    h1 = _h1(N)
    h = h1
    total = total + h
    for m in range(2, N + 1):
        h = _derive(h, h1).scale(Fraction(1, m))
        if h.is_zero():
            break
        total = total + h
    return total


# -- free associative oracle ----------------------------------------------------------

P_LETTER, Q_LETTER = 0, 1


def _nc_mul(f: dict, g: dict, N: int) -> dict:
    out: dict = {}
    for w1, c1 in f.items():
        for w2, c2 in g.items():
            if len(w1) + len(w2) <= N:
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
    return {w: c for w, c in out.items() if c}


def _nc_exp_letter(letter: int, N: int) -> dict:
    out = {}
    for i in range(N + 1):
        out[(letter,) * i] = Fraction(1, factorial(i))
    return out


def _nc_log(f: dict, N: int) -> dict:
    u = dict(f)
    u[()] = u.get((), Fraction(0)) - 1
    u = {w: c for w, c in u.items() if c}
    out: dict = {}
    power = {(): Fraction(1)}
    for j in range(1, N + 1):
        power = _nc_mul(power, u, N)
        if not power:
            break
        sign = Fraction((-1) ** (j + 1), j)
        for w, c in power.items():
            out[w] = out.get(w, Fraction(0)) + sign * c
    return {w: c for w, c in out.items() if c}


def _eval_long_commutator(word: tuple, N: int) -> PQElement:
    """Right-nested [s_1, [s_2, [... s_k]]] evaluated in the model."""
    elems = [PQElement.letter("PQ"[s], N) for s in word]
    acc = elems[-1]
    for e in reversed(elems[:-1]):
        acc = e.bracket(acc)
        if acc.is_zero():
            return acc
    return acc


def associative_log_oracle(N: int) -> PQElement:
    """log(exp P * exp Q) in the truncated free algebra, converted degree by
    degree to the model through the Dynkin projection (left-bracketing / n)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    h = _nc_log(_nc_mul(_nc_exp_letter(P_LETTER, N), _nc_exp_letter(Q_LETTER, N), N), N)
    total = PQElement.zero(N)
    for w, c in h.items():
        n = len(w)
        if n == 0:
            if c:
                raise ArithmeticError("log has a constant term")
            continue
        if n == 1:
            lin = PQElement.letter("PQ"[w[0]], N).scale(c)
            total = total + lin
            continue
        total = total + _eval_long_commutator(w, N).scale(Fraction(c, n))
    return total


def word_to_canonical(word: str) -> tuple | None:
    """Map a printed long commutator like "PQQPQ" to (key, sign) in the
    [Q^j P^i Q P] basis, or None when the word evaluates to zero.

    The prefix letters commute in the quotient, so only the letter counts of
    word[:-2] and the orientation of the innermost pair matter.
    """
    if len(word) < 2 or any(s not in "PQ" for s in word):
        raise ValueError(f"bad word {word!r}")
    last, second = word[-1], word[-2]
    if last == second:
        return None
    prefix = word[:-2]
    i = prefix.count("P")
    j = prefix.count("Q")
    sign = 1 if (second, last) == ("Q", "P") else -1
    return (i, j), sign


# -- three-letter model -----------------------------------------------------------------


class L3Element:
    """Element of the three-letter quotient model.

    Value = ca * a + cb * b + cs * (a + b + c) + comm(lam, mu) * [a, b], where
    a + b + c is central and bracketing with a (resp. b) multiplies the
    commutator part by lam (resp. mu).
    """

    __slots__ = ("ca", "cb", "cs", "comm", "order")

    def __init__(self, ca, cb, cs, comm: BiSeries, order: int):
        self.ca = Fraction(ca)
        self.cb = Fraction(cb)
        self.cs = Fraction(cs)
        self.comm = comm
        self.order = order

    @classmethod
    def zero(cls, order: int, ring=QQ) -> "L3Element":
        return cls(0, 0, 0, BiSeries(ring, {}, order - 2), order)

    def __add__(self, other: "L3Element") -> "L3Element":
        return L3Element(
            self.ca + other.ca,
            self.cb + other.cb,
            self.cs + other.cs,
            self.comm + other.comm,
            min(self.order, other.order),
        )

    def __sub__(self, other: "L3Element") -> "L3Element":
        return L3Element(
            self.ca - other.ca,
            self.cb - other.cb,
            self.cs - other.cs,
            self.comm - other.comm,
            min(self.order, other.order),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, L3Element):
            return NotImplemented
        return (
            self.ca == other.ca
            and self.cb == other.cb
            and self.cs == other.cs
            and self.comm == other.comm
        )

    def is_zero(self) -> bool:
        return self.ca == 0 and self.cb == 0 and self.cs == 0 and self.comm.is_zero()

    def bracket(self, other: "L3Element") -> "L3Element":
        ring = self.comm.ring
        order = min(self.order, other.order)
        comm = BiSeries(ring, {}, order - 2)
        scal = self.ca * other.cb - self.cb * other.ca
        if scal:
            comm._acc((0, 0), ring.from_rational(scal))
        comm = comm + _times_linear(other.comm, self.ca, self.cb)
        comm = comm - _times_linear(self.comm, other.ca, other.cb)
        comm._clean()
        return L3Element(0, 0, 0, comm, order)


def l3_letter(name: str, order: int, ring=QQ) -> L3Element:
    comm = BiSeries(ring, {}, order - 2)
    if name == "a":
        return L3Element(1, 0, 0, comm, order)
    if name == "b":
        return L3Element(0, 1, 0, comm, order)
    if name == "c":
        return L3Element(-1, -1, 1, comm, order)
    raise ValueError(name)


def hausdorff_in_l3(x: L3Element, y: L3Element, N: int) -> L3Element:
    """log(exp(x) * exp(y)) in the three-letter model.

    With P = x and Q = y every basis bracket becomes
    [Q^{n-1} P^{m-1} Q P] = u_y^{n-1} u_x^{m-1} [y, x] where u_z = z_a lam + z_b mu,
    so the commutator correction is the C-generating series evaluated at
    (u_y, u_x) times [y, x].
    """
    ring = x.comm.ring
    order = min(x.order, y.order, N)
    base = y.bracket(x).comm.truncate(order - 2)
    if base.is_zero():
        return L3Element(x.ca + y.ca, x.cb + y.cb, x.cs + y.cs, base, order)
    # C[m,n]/(m! n!) sits at key (m-1, n-1) of the closed form; here at (n-1, m-1)
    cbh_comm = compressed_cbh(order).comm.swap()
    c_series = BiSeries(ring, {kl: ring.from_rational(c) for kl, c in cbh_comm.coeffs.items()}, order - 2)
    mult = c_series.substitute_linear(((y.ca, y.cb), (x.ca, x.cb)))
    comm = x.comm.truncate(order - 2) + y.comm.truncate(order - 2) + mult * base
    return L3Element(x.ca + y.ca, x.cb + y.cb, x.cs + y.cs, comm, order)
