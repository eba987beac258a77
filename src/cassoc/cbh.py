"""Hausdorff series log(exp P * exp Q) in the quotient where commutators commute.

One element class, ``ModelElement``, serves both models here.  It holds

    x X + y Y + s S + comm(lam, mu) [X, Y],

where S is central and bracketing with X (resp. Y) multiplies a commutator
part by lam (resp. mu), so the (k, l) coefficient of ``comm`` multiplies
X^k Y^l [X, Y] (word degree k + l + 2).  The coefficient ring is comm's ring.

* In the Hausdorff model X = Q, Y = P and s = 0: the (n-1, m-1) coefficient
  multiplies the basis bracket [Q^{n-1} P^{m-1} Q P].
* In the three-letter model of the hexagon checks X = a, Y = b and
  S = a + b + c.

Three independent computations of the Hausdorff series live here:

* ``compressed_cbh``         -- the closed form with coefficients C[m,n]/(m! n!)
* ``classical_cbh_in_model`` -- the derivation recursion H_m = (1/m) D(H_{m-1})
* ``associative_log_oracle`` -- log of truncated exponentials in the free
  associative algebra, pushed back to brackets by the Dynkin projection

plus the Hausdorff product ``hausdorff_in_l3`` of any two model elements,
used by the hexagon checks.

The oracle's word algebra is its own and uses no series arithmetic: words in
P and Q are strings, and an element truncated at length N is a list by word
length of {word: int}.  It holds U = N! (exp P exp Q - 1), whose
coefficients N!/(i! j!) are ints, multiplies only the length pairs a + b <= N,
and sums log(1 + U/N!) over the one denominator lcm(1..N) N!^N.  Fractions
appear only at the end, one per bracket coefficient of the projection.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .exact import bernoulli, ext_bernoulli_recursive, rational
from .series import QQ, BiSeries

__all__ = [
    "ModelElement",
    "compressed_cbh",
    "classical_cbh_in_model",
    "associative_log_oracle",
    "word_to_canonical",
    "hausdorff_in_l3",
]


class ModelElement:
    """x X + y Y + s S + comm(lam, mu) [X, Y] with S central, truncated at word
    degree comm.order + 2."""

    __slots__ = ("x", "y", "s", "comm")

    def __init__(self, x, y, s, comm: BiSeries):
        self.x = rational(x)
        self.y = rational(y)
        self.s = rational(s)
        self.comm = comm  # coefficient of X^k Y^l [X, Y] at key (k, l)

    def __add__(self, other: "ModelElement") -> "ModelElement":
        return ModelElement(self.x + other.x, self.y + other.y, self.s + other.s, self.comm + other.comm)

    def scale(self, q: Fraction) -> "ModelElement":
        return ModelElement(self.x * q, self.y * q, self.s * q, self.comm * q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelElement):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.s == other.s and self.comm == other.comm

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.s == 0 and self.comm.is_zero()

    def _acting(self, order: int) -> BiSeries:
        """x lam + y mu: how bracketing with self acts on a commutator part."""
        return BiSeries(QQ, {(1, 0): self.x, (0, 1): self.y}, order)

    def bracket(self, other: "ModelElement") -> "ModelElement":
        """[self, other] in the quotient: lands entirely in the commutator part."""
        n = min(self.comm.order, other.comm.order)
        comm = BiSeries.constant(QQ, self.x * other.y - self.y * other.x, n)
        comm = comm + other.comm * self._acting(n) - self.comm * other._acting(n)
        return ModelElement(0, 0, 0, comm)

    def records(self) -> list:
        """Hausdorff-model dump: (n, m, coefficient) for [Q^{n-1} P^{m-1} Q P],
        by word degree, then m."""
        keys = sorted(self.comm.coeffs, key=lambda kl: (kl[0] + kl[1], kl[1], kl[0]))
        return [(k + 1, l + 1, self.comm.coeffs[(k, l)]) for k, l in keys]


def _q_letter(N: int) -> ModelElement:
    """Q = X of the Hausdorff model, truncated at word degree N."""
    return ModelElement(1, 0, 0, BiSeries(QQ, {}, N - 2))


def compressed_cbh(N: int) -> ModelElement:
    """P + Q + sum C[m,n]/(m! n!) [Q^{n-1} P^{m-1} Q P], truncated at word degree N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    comm = {}
    for m in range(1, N):
        for n in range(1, N - m + 1):
            c = ext_bernoulli_recursive(m, n)
            if c:
                comm[n - 1, m - 1] = Fraction(c, factorial(m) * factorial(n))
    return ModelElement(1, 1, 0, BiSeries(QQ, comm, N - 2))


def _h1(N: int) -> ModelElement:
    """H_1 = P + sum_{k>=1} B_k/k! [Q^k P]."""
    comm = {}
    for k in range(1, N):
        b = bernoulli(k)
        if b:
            comm[k - 1, 0] = Fraction(b, factorial(k))
    return ModelElement(0, 1, 0, BiSeries(QQ, comm, N - 2))


def _derive(elem: ModelElement, h1: ModelElement) -> ModelElement:
    """The derivation D = H_1 d/dQ: Q -> H_1, P -> 0, with the basis rule

    D [Q^{n-1} P^{m-1} Q P] = (n-1) [Q^{n-2} P^m Q P] - sum_k B_k/k! [Q^{k+n-2} P^m Q P].
    """
    out = h1.scale(elem.x)
    order = elem.comm.order
    comm: dict = {}
    for (i, j), c in elem.comm.coeffs.items():
        # key (i, j) is [Q^i P^j Q P]; n - 1 = i, m - 1 = j
        if i >= 1:
            comm[i - 1, j + 1] = comm.get((i - 1, j + 1), 0) + c * i
        for k in range(1, order - i - j + 1):
            b = bernoulli(k)
            if b:
                key = (i + k - 1, j + 1)
                comm[key] = comm.get(key, 0) + c * Fraction(-b, factorial(k))
    return out + ModelElement(0, 0, 0, BiSeries(QQ, comm, order))


def classical_cbh_in_model(N: int) -> ModelElement:
    """Sum of the recursion H_0 = Q, H_1, H_m = (1/m) D(H_{m-1}), inside the model."""
    if N < 1:
        raise ValueError("N must be >= 1")
    total = _q_letter(N)
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


def _scaled_exp_product(N: int) -> list:
    """U = N! (exp P exp Q - 1) truncated at length N, by word length: U[a]
    maps the word P^i Q^(a-i) to N!/(i! (a-i)!), an int since a <= N, and
    U[0] is empty."""
    fact = [factorial(j) for j in range(N + 1)]
    return [{}] + [
        {"P" * i + "Q" * (a - i): fact[N] // (fact[i] * fact[a - i]) for i in range(a + 1)}
        for a in range(1, N + 1)
    ]


def _graded_product(f: list, g: list, N: int) -> list:
    """f g truncated at length N, each a list by word length of {word: int}:
    only the length pairs a + b <= N meet."""
    out = [{} for _ in range(N + 1)]
    for a, fa in enumerate(f):
        for b in range(N - a + 1):
            gb = g[b]
            if not (fa and gb):
                continue
            acc = out[a + b]
            get = acc.get
            for w1, c1 in fa.items():
                for w2, c2 in gb.items():
                    w = w1 + w2
                    acc[w] = get(w, 0) + c1 * c2
    return out


def _scaled_log(u: list, N: int) -> tuple:
    """(L, {word: int}) with log(1 + u / N!) = {word: v / L} to length N, for
    u without constant term: the sum over j of (-1)^(j+1)/j u^j / N!^j, held
    over the one denominator L = lcm(1..N) N!^N."""
    M = lcm(*range(1, N + 1))
    fN = factorial(N)
    acc: dict = {}
    get = acc.get
    power = [{"": 1}] + [{} for _ in range(N)]
    for j in range(1, N + 1):
        power = _graded_product(power, u, N)
        c = (-1) ** (j + 1) * (M // j) * fN ** (N - j)
        for part in power:
            for w, v in part.items():
                acc[w] = get(w, 0) + c * v
    return M * fN**N, acc


def associative_log_oracle(N: int) -> ModelElement:
    """log(exp P * exp Q) in the truncated free algebra, converted to the model
    through the Dynkin projection: a word w of length n >= 2 goes to its
    right-nested commutator over n, which ``word_to_canonical`` reads off the
    letter counts.  The words carry int numerators over L (see
    ``_scaled_log``), and a commutator's sum over lcm(1..N) L, so the only
    division is the last one, per coefficient."""
    if N < 1:
        raise ValueError("N must be >= 1")
    L, h = _scaled_log(_scaled_exp_product(N), N)
    M = lcm(*range(1, N + 1))
    lin = {"P": 0, "Q": 0}
    comm: dict = {}
    for w, v in h.items():
        n = len(w)
        if n == 1:
            lin[w] += v
            continue
        mapped = word_to_canonical(w)
        if mapped is not None:
            key, sign = mapped
            comm[key] = comm.get(key, 0) + sign * v * (M // n)
    den = L * M
    comm = {key: Fraction(v, den) for key, v in comm.items()}
    return ModelElement(Fraction(lin["Q"], L), Fraction(lin["P"], L), 0, BiSeries(QQ, comm, N - 2))


def word_to_canonical(word: str) -> tuple | None:
    """Map a printed long commutator like "PQQPQ" to (key, sign) in the
    [Q^i P^j Q P] basis, or None when the word evaluates to zero.

    The prefix letters commute in the quotient, so only the letter counts of
    word[:-2] and the orientation of the innermost pair matter.
    """
    if len(word) < 2 or any(s not in "PQ" for s in word):
        raise ValueError(f"bad word {word!r}")
    last, second = word[-1], word[-2]
    if last == second:
        return None
    prefix = word[:-2]
    sign = 1 if (second, last) == ("Q", "P") else -1
    return (prefix.count("Q"), prefix.count("P")), sign


@lru_cache(maxsize=8)
def _cbh_comm(N: int) -> BiSeries:
    """The commutator part of ``compressed_cbh(N)``, one immutable series per
    order shared by every product at that order."""
    return compressed_cbh(N).comm


def hausdorff_in_l3(x: ModelElement, y: ModelElement, N: int) -> ModelElement:
    """log(exp(x) * exp(y)) for any two model elements.

    With P = x and Q = y every basis bracket becomes
    [Q^{n-1} P^{m-1} Q P] = u_y^{n-1} u_x^{m-1} [y, x], where u_z = z.x lam + z.y mu
    is how bracketing with z acts on a commutator part, so the commutator
    correction is the closed form's commutator part evaluated at (u_y, u_x),
    times [y, x].
    """
    n = min(x.comm.order, y.comm.order, N - 2)
    base = y.bracket(x).comm.truncate(n)
    mult = _cbh_comm(n + 2).substitute_linear(((y.x, y.y), (x.x, x.y)))
    comm = x.comm.truncate(n) + y.comm.truncate(n) + mult * base
    return ModelElement(x.x + y.x, x.y + y.y, x.s + y.s, comm)
