"""Truncated exact power series in one or two variables over a pluggable ring.

A series only guarantees its coefficients up to ``order`` (total degree);
binary operations propagate the minimum of the operands' orders, and
divisions by non-unit factors (lam, mu, lam+mu) shrink the order by the
factor's degree.  Nothing beyond the recorded order is ever trusted.

Coefficients live in a commutative ring with exact equality, described by a
small adapter object (see ``QQ`` here and the theta-symbol ring in
``cassoc.zeta``).  Over ``QQ`` the coefficients are plain ints and Fractions:
the constructors, ``QQ.from_rational``, the scalar product, ``compose`` and
``exp_linear`` pass what enters through the gate ``exact.rational``, so a
float or a bool is a TypeError where it enters.

QQ embeds in every coefficient ring, and that rule lives in
``BiSeries.__add__`` and ``BiSeries.__mul__`` alone: when exactly one operand
is over ``QQ``, the result takes the other operand's ring, and a sum lifts
each rational coefficient with ``ring.from_rational`` as it meets it.  So
every purely rational series (the classical series, e^{a lam + b mu}, the
CBH table) is built over ``QQ`` with plain Fractions and combines with series
over any ring.  The one case the rule cannot lift is a scalar: a ``QQ`` series
times a non-rational scalar raises TypeError, because the scalar does not
name its ring; multiply by a constant series over that ring instead, which
``BiSeries.constant`` refuses to build over ``QQ``.

Any other ring is a polynomial ring over QQ whose elements keep ``terms``
{monomial key: Fraction}, keys adding under multiplication; a series holds
only what ``ring.contains``, and two such rings combine only if they agree.

``BiSeries.__mul__`` of two series and ``substitute_linear`` (which
``UniSeries.as_biseries`` calls) are one integer loop each for every ring:
each operand's terms become ints over the lcm of its denominators, at keys
(k (n + 1) + l) << ring.key_bits | monomial key, and the loop sums int
products at sums of keys.  Each surviving term is one ``Fraction(v, den)``,
exactly the value of term-by-term arithmetic; off QQ, ``ring.from_terms``
assembles each (k, l) coefficient and rejects an exponent overflow.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterable

from .exact import bernoulli, clear_denominators, format_rational, gamma_coefficients, is_rational, parse_rational
from .exact import rational, rationals

__all__ = [
    "MAX_DEGREE",
    "QQ",
    "UniSeries",
    "BiSeries",
    "standard_series",
]

MAX_DEGREE = 16  # largest truncation order the command line computes or reads


class RationalRing:
    """Coefficient-ring adapter for plain Fractions; ``from_rational`` is the
    gate ``exact.rational``, and ``parse`` reads what ``to_json_obj`` writes."""

    zero = Fraction(0)
    one = Fraction(1)
    key_bits = 0  # a rational is the one monomial, key 0
    from_rational = staticmethod(rational)
    contains = staticmethod(is_rational)
    format = to_json_obj = staticmethod(format_rational)
    parse = staticmethod(parse_rational)

    @staticmethod
    def is_zero(c) -> bool:
        return c == 0

    @staticmethod
    def inverse_of(c) -> Fraction:
        if c == 0:
            raise ZeroDivisionError("non-unit constant term")
        return Fraction(1) / c


QQ = RationalRing()


class UniSeries:
    """Series sum_n c_n x^n known through degree ``order``."""

    __slots__ = ("ring", "coeffs", "order")

    def __init__(self, ring, coeffs: Iterable, order: int):
        cs = _members(ring, list(coeffs)[: order + 1])
        cs += [ring.zero] * (order + 1 - len(cs))
        self.ring = ring
        self.coeffs = cs
        self.order = order

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __repr__(self) -> str:
        return f"UniSeries({self.coeffs[: self.order + 1]!r}, order={self.order})"

    def coeff(self, n: int):
        if n > self.order:
            raise IndexError(f"degree {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

    def as_biseries(self, direction: tuple, order: int | None = None) -> "BiSeries":
        """Substitute the linear form a*lam + b*mu for x."""
        n = min(order if order is not None else self.order, self.order)
        in_lam = BiSeries(self.ring, {(d, 0): c for d, c in enumerate(self.coeffs[: n + 1])}, n)
        return in_lam.substitute_linear((direction, (0, 0)))


class BiSeries:
    """Series sum_{k+l <= order} c_{kl} lam^k mu^l over an exact ring."""

    __slots__ = ("ring", "coeffs", "order")

    def __init__(self, ring, coeffs: dict | None = None, order: int = 0):
        self.ring = ring
        self.coeffs = {}
        self.order = order
        if coeffs:
            _members(ring, coeffs.values())
            for (k, l), c in coeffs.items():
                if k + l <= order and not ring.is_zero(c):
                    self.coeffs[(k, l)] = c

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, ring, value, order: int) -> "BiSeries":
        return cls(ring, {(0, 0): value}, order)

    @classmethod
    def monomial(cls, ring, k: int, l: int, value, order: int) -> "BiSeries":
        return cls(ring, {(k, l): value}, order)

    def _acc(self, key, val) -> None:
        cur = self.coeffs.get(key)
        self.coeffs[key] = val if cur is None else cur + val

    def _clean(self) -> None:
        dead = [k for k, v in self.coeffs.items() if self.ring.is_zero(v)]
        for k in dead:
            del self.coeffs[k]

    # -- basic queries ---------------------------------------------------------

    def coeff(self, k: int, l: int):
        if k + l > self.order:
            raise IndexError(f"degree {k + l} beyond truncation order {self.order}")
        return self.coeffs.get((k, l), self.ring.zero)

    def homogeneous_part(self, d: int) -> dict:
        return {kl: c for kl, c in self.coeffs.items() if kl[0] + kl[1] == d}

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_symmetric(self) -> bool:
        return all(self.coeffs.get((l, k), self.ring.zero) == c for (k, l), c in self.coeffs.items())

    def truncate(self, order: int) -> "BiSeries":
        if order >= self.order:
            return self
        return BiSeries(self.ring, self.coeffs, order)

    def pad(self, order: int) -> "BiSeries":
        """Raise the claimed order: only valid when the series is an exact
        polynomial (every higher coefficient genuinely zero)."""
        if order <= self.order:
            return self
        return BiSeries(self.ring, self.coeffs, order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        n = min(self.order, other.order)
        keys = set(self.coeffs) | set(other.coeffs)
        z = self.ring.zero
        for kl in keys:
            if kl[0] + kl[1] <= n and self.coeffs.get(kl, z) != other.coeffs.get(kl, z):
                return False
        return True

    def __repr__(self) -> str:
        terms = ", ".join(f"({k},{l}): {c}" for (k, l), c in sorted(self.coeffs.items(), key=_term_sort_key))
        return f"BiSeries({{{terms}}}, order={self.order})"

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "BiSeries") -> "BiSeries":
        if _common_ring(self, other) is not self.ring:
            return other + self
        n = min(self.order, other.order)
        out = BiSeries(self.ring, self.coeffs, n)
        lift = self.ring.from_rational if other.ring is QQ and self.ring is not QQ else None
        for kl, c in other.coeffs.items():
            if kl[0] + kl[1] <= n:
                out._acc(kl, lift(c) if lift else c)
        out._clean()
        return out

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __neg__(self) -> "BiSeries":
        return BiSeries(self.ring, {kl: -c for kl, c in self.coeffs.items()}, self.order)

    def __mul__(self, other):
        if isinstance(other, BiSeries):
            n = min(self.order, other.order)
            ring = _common_ring(self, other)
            bits = ring.key_bits
            den, (left, right) = _numerators(n, bits, self, other)
            # within the order a sum of packed keys is the key of the product
            right = sorted((sum(divmod(key >> bits, n + 1)), key, w) for key, w in right.items())
            acc: dict = {}
            get = acc.get
            for key1, v in left.items():
                room = n - sum(divmod(key1 >> bits, n + 1))
                for deg, key2, w in right:
                    if deg > room:
                        break
                    key = key1 + key2
                    acc[key] = get(key, 0) + v * w
            del left, right  # freed before the output is built: a lower peak
            return _from_numerators(ring, acc, den, n)
        if not (is_rational(other) or self.ring.contains(other)):
            # a scalar cannot name its ring, so over QQ it is rational
            raise TypeError(f"{other!r} is not a scalar of the series' ring")
        return BiSeries(self.ring, {kl: c * other for kl, c in self.coeffs.items()}, self.order)

    __rmul__ = __mul__

    # -- substitutions and parts --------------------------------------------------

    def substitute_linear(self, matrix) -> "BiSeries":
        """Return t with t(lam, mu) = self(a*lam + b*mu, c*lam + d*mu).

        ``matrix`` is ((a, b), (c, d)) with rational entries.
        """
        (a, b), (c, d) = matrix
        n = self.order
        bits = self.ring.key_bits
        d1, pow1 = _linear_power_table(a, b, n, bits)
        d2, pow2 = _linear_power_table(c, d, n, bits)
        # the (k, l) term over the common denominator den d1^n d2^n
        den, (nums,) = _numerators(n, bits, self)
        acc: dict = {}
        get = acc.get
        for key, v in nums.items():
            kl, mono = divmod(key, 1 << bits)
            k, l = divmod(kl, n + 1)
            v *= d1 ** (n - k) * d2 ** (n - l)
            for key1, s1 in pow1[k]:
                key1 += mono
                s1 *= v
                for key2, s2 in pow2[l]:
                    key = key1 + key2
                    acc[key] = get(key, 0) + s1 * s2
        del nums
        return _from_numerators(self.ring, acc, den * d1 ** n * d2 ** n, n)

    def swap(self) -> "BiSeries":
        return BiSeries(self.ring, {(l, k): c for (k, l), c in self.coeffs.items()}, self.order)

    def even_part(self) -> "BiSeries":
        # (s(lam,mu) + s(-lam,-mu))/2 keeps exactly the even-total-degree terms
        out = BiSeries(self.ring, {}, self.order)
        for (k, l), c in self.coeffs.items():
            if (k + l) % 2 == 0:
                out.coeffs[(k, l)] = c
        return out

    def odd_part(self) -> "BiSeries":
        out = BiSeries(self.ring, {}, self.order)
        for (k, l), c in self.coeffs.items():
            if (k + l) % 2 == 1:
                out.coeffs[(k, l)] = c
        return out

    def set_mu_zero(self) -> UniSeries:
        """Restrict to mu = 0, producing a series in lam."""
        cs = [self.ring.zero] * (self.order + 1)
        for (k, l), c in self.coeffs.items():
            if l == 0:
                cs[k] = c
        return UniSeries(self.ring, cs, self.order)

    def diagonal(self) -> UniSeries:
        """Restrict to mu = -lam, producing a series in lam."""
        cs = [self.ring.zero] * (self.order + 1)
        for (k, l), c in self.coeffs.items():
            cs[k + l] += -c if l % 2 else c
        return UniSeries(self.ring, cs, self.order)

    # -- analytic constructors ------------------------------------------------------

    def compose(self, coeffs) -> "BiSeries":
        """sum_j coeffs[j] * self^j for rational coeffs; self must have no
        constant term.  Stops at the first power of self that vanishes."""
        ring = self.ring
        if not ring.is_zero(self.coeffs.get((0, 0), ring.zero)):
            raise ValueError("compose needs a series without constant term")
        n = self.order
        coeffs = [rational(c) for c in coeffs]
        out = BiSeries.constant(ring, ring.from_rational(coeffs[0]), n)
        power = BiSeries.constant(ring, ring.one, n)
        for c in coeffs[1:]:
            power = power * self
            if power.is_zero():
                break
            if c:
                out = out + power * c
        return out

    def _minus_one(self) -> "BiSeries":
        if self.coeffs.get((0, 0), self.ring.zero) != self.ring.one:
            raise ValueError("non-unit constant term")
        return self - BiSeries.constant(self.ring, self.ring.one, self.order)

    def exp(self) -> "BiSeries":
        if not self.ring.is_zero(self.coeffs.get((0, 0), self.ring.zero)):
            raise ValueError("non-unit constant term")
        return self.compose([Fraction(1, factorial(j)) for j in range(self.order + 1)])

    def log(self) -> "BiSeries":
        coeffs = [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, self.order + 1)]
        return self._minus_one().compose(coeffs)

    def sqrt(self) -> "BiSeries":
        # binomial coefficients C(1/2, j) by their ratio recurrence
        coeffs = [Fraction(1)]
        for j in range(1, self.order + 1):
            coeffs.append(coeffs[-1] * Fraction(3 - 2 * j, 2 * j))
        return self._minus_one().compose(coeffs)

    def inverse(self) -> "BiSeries":
        inv0 = self.ring.inverse_of(self.coeffs.get((0, 0), self.ring.zero))
        u = BiSeries.constant(self.ring, self.ring.one, self.order) - self * inv0
        return u.compose([Fraction(1)] * (self.order + 1)) * inv0

    # -- exact division ---------------------------------------------------------------

    def divide_unit(self, d: "BiSeries") -> "BiSeries":
        return self * d.inverse()

    def divide_monomial(self, k: int, l: int) -> "BiSeries":
        """Exact division by lam^k mu^l; raises if any required coefficient survives."""
        out = BiSeries(self.ring, {}, self.order - k - l)
        for (i, j), c in self.coeffs.items():
            if i < k or j < l:
                raise ArithmeticError("not divisible")
            if (i - k) + (j - l) <= out.order:
                out.coeffs[(i - k, j - l)] = c
        return out

    def divide_lam_plus_mu(self) -> "BiSeries":
        """Exact division by (lam + mu), degree by degree."""
        out = BiSeries(self.ring, {}, self.order - 1)
        for d in range(1, self.order + 1):
            # divide the homogeneous degree-d slice by lam + mu
            prev = self.ring.zero
            for i in range(d - 1, -1, -1):
                # coefficient of lam^{i+1} mu^{d-1-i} in slice = e_i + e_{i+1}...
                c = self.coeffs.get((i + 1, d - 1 - i), self.ring.zero)
                e = c - prev
                if not self.ring.is_zero(e) and d - 1 <= out.order:
                    out._acc((i, d - 1 - i), e)
                prev = e
            rem = self.coeffs.get((0, d), self.ring.zero) - prev
            if not self.ring.is_zero(rem):
                raise ArithmeticError("not divisible")
        const = self.coeffs.get((0, 0), self.ring.zero)
        if not self.ring.is_zero(const):
            raise ArithmeticError("not divisible")
        out._clean()
        return out

    # -- serialization -------------------------------------------------------------------

    def to_records(self) -> list:
        """Deterministic list of (k, l, coefficient) records; each coefficient
        is written by ``ring.to_json_obj``, so ``ring.parse`` reads it back."""
        return [
            {"k": k, "l": l, "coeff": self.ring.to_json_obj(c)}
            for (k, l), c in sorted(self.coeffs.items(), key=_term_sort_key)
        ]

    @classmethod
    def from_records(cls, ring, records, order: int) -> "BiSeries":
        """Inverse of ``to_records``; malformed input, a repeated (k, l)
        included, raises ValueError."""
        if not _is_index(order) or order > MAX_DEGREE:
            raise ValueError(f"truncation order must be an int in 0..{MAX_DEGREE}, got {order!r}")
        if not isinstance(records, list):
            raise ValueError("records must be a list")
        out = cls(ring, {}, order)
        for rec in records:
            if not isinstance(rec, dict) or not {"k", "l", "coeff"} <= rec.keys():
                raise ValueError(f"record needs k, l and coeff: {rec!r}")
            k, l = rec["k"], rec["l"]
            if not (_is_index(k) and _is_index(l) and k + l <= order):
                raise ValueError(f"exponents ({k!r}, {l!r}) must be ints >= 0 with k + l <= {order}")
            if (k, l) in out.coeffs:
                raise ValueError(f"exponents ({k}, {l}) appear twice")
            out.coeffs[k, l] = ring.parse(rec["coeff"])
        out._clean()
        return out


def _is_index(x) -> bool:
    return type(x) is int and x >= 0


def _term_sort_key(item):
    (k, l), _ = item
    return (k + l, k, l)


def _members(ring, values):
    """``values`` as they are, once each lies in ``ring``; TypeError otherwise."""
    if ring is QQ:
        return rationals(values)
    for c in values:
        if not ring.contains(c):
            raise TypeError(f"{c!r} is not in the coefficient ring")
    return values


def _common_ring(x: BiSeries, y: BiSeries):
    """The ring of x + y and x * y: QQ embeds in every ring; two others must agree."""
    if x.ring is not QQ and y.ring is not QQ and not x.ring.contains(y.ring.one):
        raise TypeError("series over different coefficient rings do not combine")
    return y.ring if x.ring is QQ else x.ring


def _numerators(n: int, bits: int, *xs: BiSeries) -> tuple:
    """(den, [numerators of each x]): x's terms of degree <= n as {packed key:
    int} over the lcm of x's denominators, den the product of the lcms; the
    term q m lam^k mu^l, m a monomial of key e, has key (k (n + 1) + l) << bits | e."""
    cleared = [clear_denominators(_flatten(x, n, bits)) for x in xs]
    return prod(d for d, _ in cleared), [v for _, v in cleared]


def _flatten(x: BiSeries, n: int, bits: int) -> dict:
    """{packed key: Fraction} of x's terms of degree <= n; a rational is the monomial 0."""
    if x.ring is QQ:
        return {(k * (n + 1) + l) << bits: c for (k, l), c in x.coeffs.items() if k + l <= n}
    return {(k * (n + 1) + l) << bits | e: q for (k, l), c in x.coeffs.items() if k + l <= n for e, q in c.terms.items()}


def _from_numerators(ring, acc: dict, den: int, n: int) -> BiSeries:
    """The series over ring of order n with the term v / den at each packed key
    of ``acc`` (see ``_numerators``), zeros dropped; off QQ, ``ring.from_terms``
    builds each (k, l) coefficient as ``acc`` empties, equal monomials sharing one int."""
    out = BiSeries(ring, {}, n)
    if ring is QQ:
        out.coeffs = {divmod(key, n + 1): Fraction(v, den) for key, v in acc.items() if v}
        return out
    size = 1 << ring.key_bits
    groups: dict = {}
    monos: dict = {}
    while acc:
        key, v = acc.popitem()
        if v:
            kl, m = divmod(key, size)
            groups.setdefault(kl, {})[monos.setdefault(m, m)] = Fraction(v, den)
    out.coeffs = {divmod(kl, n + 1): ring.from_terms(terms) for kl, terms in groups.items()}
    return out


def _linear_power_table(a, b, n: int, bits: int) -> tuple:
    """(D, table) for the rational form a lam + b mu, D the least common
    denominator of a and b: table[k], k = 0..n, lists the nonzero terms of
    (D a lam + D b mu)^k as ((i (n + 1) + k - i) << bits, comb(k, i) (Da)^i (Db)^(k-i)).
    An entry that is not an int or a Fraction raises TypeError."""
    D, nums = clear_denominators({0: a, 1: b})
    A, B = nums.values()
    table = []
    for k in range(n + 1):
        terms = [((i * (n + 1) + k - i) << bits, comb(k, i) * A ** i * B ** (k - i)) for i in range(k + 1)]
        table.append([(key, s) for key, s in terms if s])
    return D, table


def standard_series(name: str, N: int):
    """The named classical series to order N with exact rational coefficients.

    Univariate names return a UniSeries in x; bivariate ones a BiSeries; both
    are over QQ.
    """
    if name == "x_over_expm1":
        fact = 1
        cs = []
        for n in range(N + 1):
            if n:
                fact *= n
            cs.append(Fraction(bernoulli(n), fact))
        return UniSeries(QQ, cs, N)
    if name == "expm1_over_x":
        fact = 1
        cs = []
        for n in range(N + 1):
            fact *= n + 1
            cs.append(Fraction(1, fact))
        return UniSeries(QQ, cs, N)
    if name == "two_x_over_sinh2x":
        cs = [Fraction(0)] * (N + 1)
        for k, g in enumerate(gamma_coefficients(N)):
            if 2 * k <= N:
                cs[2 * k] = g
        return UniSeries(QQ, cs, N)
    if name == "sinhc":
        # sinh(x)/x = sum_j x^{2j} / (2j+1)!
        cs = [Fraction(0)] * (N + 1)
        for j in range(0, N + 1, 2):
            cs[j] = Fraction(1, factorial(j + 1))
        return UniSeries(QQ, cs, N)
    if name == "sinh_factor_bivariate":
        # (e^{lam+mu} - e^{-lam-mu}) / (2 (lam+mu)) = sinhc(lam + mu)
        return standard_series("sinhc", N).as_biseries((1, 1), N)
    if name == "c_generating_closed":
        return _c_generating_closed(N)
    raise ValueError(f"unknown standard series {name!r}")


def exp_linear(a, b, order: int) -> BiSeries:
    """e^{a lam + b mu} as a BiSeries over QQ."""
    return BiSeries(QQ, {(1, 0): rational(a), (0, 1): rational(b)}, order).exp()


def _c_generating_closed(N: int) -> BiSeries:
    # C(lam, mu) = (e^mu - 1)/(lam mu) * ((lam+mu)/(e^{lam+mu}-1) - mu/(e^mu-1)),
    # built one order higher so the division by lam is exact at order N.
    M = N + 1
    x_over = standard_series("x_over_expm1", M)
    a = x_over.as_biseries((1, 1), M)  # (lam+mu)/(e^{lam+mu}-1)
    b = x_over.as_biseries((0, 1), M)  # mu/(e^mu-1)
    d = standard_series("expm1_over_x", M).as_biseries((0, 1), M)  # (e^mu-1)/mu
    num = d * (a - b)
    return num.divide_monomial(1, 0).truncate(N)
