"""Truncated exact power series in lam and mu over a pluggable ring.

A series in one variable is a series in lam alone: ``UniSeries`` builds one
from its list of coefficients, ``as_biseries`` substitutes a linear form for
lam, and the restrictions ``set_mu_zero`` and ``diagonal`` are the linear
substitutions mu -> 0 and mu -> -lam.

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
is over ``QQ``, the result takes the other operand's ring.  So every purely
rational series (the classical series, e^{a lam + b mu}, the CBH table) is
built over ``QQ`` and combines with series over any ring.  The one case the
rule cannot lift is a scalar: a ``QQ`` series times a non-rational scalar
raises TypeError, because the scalar does not name its ring; multiply by a
constant series over that ring instead, which ``BiSeries.constant`` refuses
to build over ``QQ``.

Any other ring is a polynomial ring over QQ whose elements keep ``terms``
{monomial key: Fraction}, keys adding under multiplication; a series holds
only what ``ring.contains``, and two such rings combine only if they agree.

A ``BiSeries`` is its integer form ``(den, {packed key: int})``: every term
q m lam^k mu^l, m a monomial of the ring with key e (0 over QQ), is an int
numerator over one positive denominator shared by the whole series, at key
((k << 8 | l) << ring.key_bits) | e.  The layout does not depend on the
order (an order is at most 255, so l fits its 8 bits), and within the order
a sum of keys is the key of the product.  Every arithmetic operation reads
and writes that form: a sum brings two numerators over the lcm of the
denominators, a QQ operand joins another ring by a shift of its keys, a
product or a substitution is one integer loop, and each result is reduced
once by the gcd of its denominator and numerators: exactly the value of
term-by-term arithmetic.

A series is an immutable value.  The constructor gates every value once and
clears the denominators, and keeps no reference to the dict it was given.
``coeffs`` is a read-only view, {(k, l): coefficient}, a Fraction over QQ
and ``ring.from_terms`` of the monomial terms elsewhere, built on the first
read and kept with the series.

A ring whose monomial keys pack exponents into slots names their top bits in
``ring.guard``; every integer result, and every power inside ``compose``,
checks its keys against it and raises OverflowError on a set guard bit, so a
chain of products never carries one exponent into the next slot.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from types import MappingProxyType
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

# a packed key holds (k << _L_BITS | l) above the monomial key
_L_BITS = 8
_L_MASK = (1 << _L_BITS) - 1
_MAX_ORDER = _L_MASK  # k + l <= order keeps l below 2**_L_BITS


class RationalRing:
    """Coefficient-ring adapter for plain Fractions; ``from_rational`` is the
    gate ``exact.rational``, and ``parse`` reads what ``to_json_obj`` writes."""

    zero = Fraction(0)
    one = Fraction(1)
    key_bits = 0  # a rational is the one monomial, key 0
    guard = 0  # and it has no exponent slots
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


class BiSeries:
    """Series sum_{k+l <= order} c_{kl} lam^k mu^l over an exact ring: an
    immutable value held in its integer form (``_den``, ``_nums``), with
    ``coeffs`` a read-only view of it; see the module docstring."""

    __slots__ = ("ring", "order", "_den", "_nums", "_view")

    def __init__(self, ring, coeffs: dict | None = None, order: int = 0):
        _check_order(order)
        coeffs = coeffs or {}
        _members(ring, coeffs.values())
        if ring is QQ:
            flat = {k << _L_BITS | l: c for (k, l), c in coeffs.items() if c and k + l <= order}
        else:  # a ThetaPoly keeps no zero terms
            bits = ring.key_bits
            flat = {
                (k << _L_BITS | l) << bits | e: q
                for (k, l), c in coeffs.items()
                if k + l <= order
                for e, q in c.terms.items()
            }
        self.ring, self.order, self._view = ring, order, None
        self._den, self._nums = clear_denominators(flat)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(ring, value, order: int) -> "BiSeries":
        return BiSeries(ring, {(0, 0): value}, order)

    @staticmethod
    def monomial(ring, k: int, l: int, value, order: int) -> "BiSeries":
        return BiSeries(ring, {(k, l): value}, order)

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {(k, l): coefficient} of the nonzero terms, built from the
        integer form on the first read and kept."""
        if self._view is None:
            self._view = MappingProxyType(_coefficients(self.ring, self._den, self._nums))
        return self._view

    def _terms(self, ring, n: int) -> tuple:
        """(den, nums) of the terms of degree <= n, keyed for ``ring``: a
        series over QQ joins another ring by a shift of its keys."""
        den, nums = self._den, self._nums
        bits = self.ring.key_bits
        shift = ring.key_bits - bits
        if n < self.order:
            nums = {key << shift: v for key, v in nums.items() if _degree(key >> bits) <= n}
        elif shift:
            nums = {key << shift: v for key, v in nums.items()}
        return den, nums

    # -- basic queries ---------------------------------------------------------

    def coeff(self, k: int, l: int):
        """The (k, l) coefficient, read off the integer form."""
        if k + l > self.order:
            raise IndexError(f"degree {k + l} beyond truncation order {self.order}")
        den, nums = self._den, self._nums
        ring = self.ring
        if ring is QQ:
            return Fraction(nums.get(k << _L_BITS | l, 0), den)
        low = (k << _L_BITS | l) << ring.key_bits
        high = low + (1 << ring.key_bits)
        terms = {key: v for key, v in nums.items() if low <= key < high}
        return _coefficients(ring, den, terms).get((k, l), ring.zero)

    def homogeneous_part(self, d: int) -> dict:
        return {kl: c for kl, c in self.coeffs.items() if kl[0] + kl[1] == d}

    def is_zero(self) -> bool:
        return not self._nums

    def is_symmetric(self) -> bool:
        nums = self._nums
        bits = self.ring.key_bits
        return all(nums.get(_swapped(key, bits)) == v for key, v in nums.items())

    def truncate(self, order: int) -> "BiSeries":
        if order >= self.order:
            return self
        return _series(self.ring, order, *self._terms(self.ring, order))

    def pad(self, order: int) -> "BiSeries":
        """Raise the claimed order: only valid when the series is an exact
        polynomial (every higher coefficient genuinely zero)."""
        if order <= self.order:
            return self
        _check_order(order)
        return _wrap(self.ring, order, self._den, self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        n = min(self.order, other.order)
        if self.ring is not QQ and other.ring is not QQ and not self.ring.contains(other.ring.one):
            # coefficients of two different rings are equal only when both are zero
            return self.truncate(n).is_zero() and other.truncate(n).is_zero()
        ring = _common_ring(self, other)
        (d1, a), (d2, b) = self._terms(ring, n), other._terms(ring, n)
        return a.keys() == b.keys() and all(v * d2 == b[key] * d1 for key, v in a.items())

    def __repr__(self) -> str:
        terms = ", ".join(f"({k},{l}): {c}" for (k, l), c in sorted(self.coeffs.items(), key=_term_sort_key))
        return f"BiSeries({{{terms}}}, order={self.order})"

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "BiSeries") -> "BiSeries":
        ring = _common_ring(self, other)
        n = min(self.order, other.order)
        (d1, a), (d2, b) = self._terms(ring, n), other._terms(ring, n)
        den = lcm(d1, d2)
        m1, m2 = den // d1, den // d2
        out = {key: v * m1 for key, v in a.items()}
        get = out.get
        for key, v in b.items():
            out[key] = get(key, 0) + v * m2
        return _series(ring, n, den, out)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __neg__(self) -> "BiSeries":
        den, nums = self._den, self._nums
        return _wrap(self.ring, self.order, den, {key: -v for key, v in nums.items()})

    def __mul__(self, other):
        if isinstance(other, BiSeries):
            ring = _common_ring(self, other)
            n = min(self.order, other.order)
            (d1, left), (d2, right) = self._terms(ring, n), other._terms(ring, n)
            return _series(ring, n, d1 * d2, _product(left, _by_degree(right, ring.key_bits), n, ring.key_bits))
        if is_rational(other):
            q = rational(other)
            den, nums = self._den, self._nums
            p = q.numerator
            return _series(self.ring, self.order, den * q.denominator, {key: v * p for key, v in nums.items()})
        if self.ring.contains(other):
            return self * BiSeries.constant(self.ring, other, self.order)
        # a scalar cannot name its ring, so over QQ it is rational
        raise TypeError(f"{other!r} is not a scalar of the series' ring")

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
        den, nums = self._den, self._nums
        acc: dict = {}
        get = acc.get
        for key, v in nums.items():
            kl = key >> bits
            k, l = kl >> _L_BITS, kl & _L_MASK
            mono = key - (kl << bits)
            v *= d1 ** (n - k) * d2 ** (n - l)
            for key1, s1 in pow1[k]:
                key1 += mono
                s1 *= v
                for key2, s2 in pow2[l]:
                    out = key1 + key2
                    acc[out] = get(out, 0) + s1 * s2
        return _series(self.ring, n, den * d1 ** n * d2 ** n, acc)

    def swap(self) -> "BiSeries":
        den, nums = self._den, self._nums
        bits = self.ring.key_bits
        return _wrap(self.ring, self.order, den, {_swapped(key, bits): v for key, v in nums.items()})

    def even_part(self) -> "BiSeries":
        # (s(lam,mu) + s(-lam,-mu))/2 keeps exactly the even-total-degree terms
        return self._parity_part(0)

    def odd_part(self) -> "BiSeries":
        return self._parity_part(1)

    def _parity_part(self, parity: int) -> "BiSeries":
        den, nums = self._den, self._nums
        bits = self.ring.key_bits
        part = {key: v for key, v in nums.items() if _degree(key >> bits) % 2 == parity}
        return _series(self.ring, self.order, den, part)

    def set_mu_zero(self) -> "BiSeries":
        """Restrict to mu = 0: s(lam, 0), a series in lam alone."""
        return self.substitute_linear(((1, 0), (0, 0)))

    def diagonal(self) -> "BiSeries":
        """Restrict to mu = -lam: s(lam, -lam), a series in lam alone."""
        return self.substitute_linear(((1, 0), (-1, 0)))

    # -- analytic constructors ------------------------------------------------------

    def compose(self, coeffs) -> "BiSeries":
        """sum_j coeffs[j] * self^j for rational coeffs; self must have no
        constant term.  Stops at the first power of self that vanishes.

        Over ints: with self = nums / den and coeffs[j] = cs[j] / q, the power
        self^j is nums^j over den^j.  It vanishes once j exceeds ``top``, the
        order over the lowest degree in self, so the sum is held over
        q den^top and step j adds cs[j] den^(top - j) nums^j."""
        ring, n = self.ring, self.order
        bits = ring.key_bits
        den, nums = self._den, self._nums
        low = min((_degree(key >> bits) for key in nums), default=n + 1)
        if low == 0:
            raise ValueError("compose needs a series without constant term")
        q, cs = clear_denominators(dict(enumerate(coeffs)))
        top = min(len(cs) - 1, n // low)
        right = _by_degree(nums, bits)
        acc = {0: cs[0] * den**top}
        power = {0: 1}
        for j in range(1, top + 1):
            power = {key: v for key, v in _product(power, right, n, bits).items() if v}
            _check_guard(ring, power)
            if not power:
                break
            c = cs[j] * den ** (top - j)
            if c:
                get = acc.get
                for key, v in power.items():
                    acc[key] = get(key, 0) + c * v
        return _series(ring, n, q * den**top, acc)

    def _minus_one(self) -> "BiSeries":
        den, nums = self._den, self._nums
        size = 1 << self.ring.key_bits
        if [(key, v) for key, v in nums.items() if key < size] != [(0, den)]:
            raise ValueError("non-unit constant term")
        return _wrap(self.ring, self.order, den, {key: v for key, v in nums.items() if key})

    def exp(self) -> "BiSeries":
        size = 1 << self.ring.key_bits
        if any(key < size for key in self._nums):
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
        inv0 = self.ring.inverse_of(self.coeff(0, 0))
        u = BiSeries.constant(self.ring, self.ring.one, self.order) - self * inv0
        return u.compose([Fraction(1)] * (self.order + 1)) * inv0

    # -- exact division ---------------------------------------------------------------

    def divide_monomial(self, k: int, l: int) -> "BiSeries":
        """Exact division by lam^k mu^l; raises if any required coefficient survives."""
        den, nums = self._den, self._nums
        bits = self.ring.key_bits
        if any((key >> bits >> _L_BITS) < k or (key >> bits & _L_MASK) < l for key in nums):
            raise ArithmeticError("not divisible")
        shift = (k << _L_BITS | l) << bits
        return _wrap(self.ring, self.order - k - l, den, {key - shift: v for key, v in nums.items()})

    def divide_lam_plus_mu(self) -> "BiSeries":
        """Exact division by (lam + mu), degree by degree: in each degree-d
        slice and for each monomial of the ring, the quotient's coefficient of
        lam^i mu^(d-1-i) is the slice's of lam^(i+1) mu^(d-1-i) less the
        quotient's of lam^(i+1) mu^(d-2-i), and what is left at mu^d (the
        constant term, when d = 0) must be 0."""
        den, nums = self._den, self._nums
        bits = self.ring.key_bits
        slices: dict = {}
        for key in nums:
            kl = key >> bits
            slices.setdefault(_degree(kl), set()).add(key - (kl << bits))
        out = {}
        for d, monos in slices.items():
            for m in monos:
                prev = 0
                for i in range(d - 1, -1, -1):
                    prev = nums.get(((i + 1) << _L_BITS | d - 1 - i) << bits | m, 0) - prev
                    if prev:
                        out[(i << _L_BITS | d - 1 - i) << bits | m] = prev
                if nums.get(d << bits | m, 0) != prev:
                    raise ArithmeticError("not divisible")
        return _series(self.ring, self.order - 1, den, out)

    # -- serialization -------------------------------------------------------------------

    def to_records(self) -> list:
        """Deterministic list of (k, l, coefficient) records; each coefficient
        is written by ``ring.to_json_obj``, so ``ring.parse`` reads it back."""
        return [
            {"k": k, "l": l, "coeff": self.ring.to_json_obj(c)}
            for (k, l), c in sorted(self.coeffs.items(), key=_term_sort_key)
        ]

    @staticmethod
    def from_records(ring, records, order: int) -> "BiSeries":
        """Inverse of ``to_records``; malformed input, a repeated (k, l)
        included, raises ValueError."""
        if not _is_index(order) or order > MAX_DEGREE:
            raise ValueError(f"truncation order must be an int in 0..{MAX_DEGREE}, got {order!r}")
        if not isinstance(records, list):
            raise ValueError("records must be a list")
        coeffs = {}
        for rec in records:
            if not isinstance(rec, dict) or not {"k", "l", "coeff"} <= rec.keys():
                raise ValueError(f"record needs k, l and coeff: {rec!r}")
            k, l = rec["k"], rec["l"]
            if not (_is_index(k) and _is_index(l) and k + l <= order):
                raise ValueError(f"exponents ({k!r}, {l!r}) must be ints >= 0 with k + l <= {order}")
            if (k, l) in coeffs:
                raise ValueError(f"exponents ({k}, {l}) appear twice")
            coeffs[k, l] = ring.parse(rec["coeff"])
        return BiSeries(ring, coeffs, order)


class UniSeries(BiSeries):
    """A series sum_n c_n lam^n in lam alone, built from the list c_0, c_1, ...
    known through degree ``order``: entry n lands at (n, 0), and entries past
    the order are dropped unread."""

    __slots__ = ()

    def __init__(self, ring, coeffs: Iterable, order: int):
        super().__init__(ring, {(n, 0): c for n, c in zip(range(order + 1), coeffs)}, order)

    def as_biseries(self, direction: tuple, order: int | None = None) -> BiSeries:
        """Substitute the linear form a*lam + b*mu for lam, through ``order``
        where that is below the series' own."""
        lam = self if order is None else self.truncate(order)
        return lam.substitute_linear((direction, (0, 0)))


def _numerators(f: BiSeries) -> dict:
    """{(k, l): int} of a series over QQ: the numerators of its integer form,
    over the one denominator the series shares.  Another ring is a TypeError."""
    if f.ring is not QQ:
        raise TypeError("only a series over QQ has int numerators")
    return {(key >> _L_BITS, key & _L_MASK): v for key, v in f._nums.items()}


def _is_index(x) -> bool:
    return type(x) is int and x >= 0


def _check_order(order: int) -> None:
    if order > _MAX_ORDER:
        raise ValueError(f"truncation order {order} above {_MAX_ORDER}")


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


def _degree(kl: int) -> int:
    """k + l of the packed (k << _L_BITS | l)."""
    return (kl >> _L_BITS) + (kl & _L_MASK)


def _swapped(key: int, bits: int) -> int:
    """The key of the same monomial at (l, k) in place of (k, l)."""
    kl = key >> bits
    return ((kl & _L_MASK) << _L_BITS | kl >> _L_BITS) << bits | (key - (kl << bits))


def _wrap(ring, order: int, den: int, nums: dict) -> BiSeries:
    """The series over ring of that order whose integer form is (den, nums),
    taken as it is: nonzero ints over den, keys within the order and the guard."""
    out = BiSeries.__new__(BiSeries)
    out.ring, out.order, out._view, out._den, out._nums = ring, order, None, den, nums
    return out


def _series(ring, order: int, den: int, nums: dict) -> BiSeries:
    """``_wrap`` of (den, nums) with the zeros dropped, reduced by the gcd of
    den and the numerators, its keys checked against ``ring.guard``."""
    nums = {key: v for key, v in nums.items() if v}
    g = gcd(den, *nums.values())
    if g > 1:
        den //= g
        nums = {key: v // g for key, v in nums.items()}
    _check_guard(ring, nums)
    return _wrap(ring, order, den, nums)


def _check_guard(ring, nums: dict) -> None:
    guard = ring.guard
    if guard and any(key & guard for key in nums):
        raise OverflowError("an exponent of the coefficient ring overflows its slot in a product")


def _by_degree(nums: dict, bits: int) -> list:
    """[(k + l, key, v)] of an integer form, by ascending degree."""
    return sorted((_degree(key >> bits), key, v) for key, v in nums.items())


def _product(left: dict, right: list, n: int, bits: int) -> dict:
    """{packed key: int} of the product of two integer forms to degree n, the
    right one listed by ``_by_degree``; zeros are kept."""
    acc: dict = {}
    get = acc.get
    for key1, v in left.items():
        room = n - _degree(key1 >> bits)
        for deg, key2, w in right:
            if deg > room:
                break
            key = key1 + key2
            acc[key] = get(key, 0) + v * w
    return acc


def _coefficients(ring, den: int, nums: dict) -> dict:
    """{(k, l): coefficient} of an integer form: a Fraction over QQ, and
    ``ring.from_terms`` of {monomial key: Fraction} elsewhere, equal
    monomial keys sharing one int."""
    if ring is QQ:
        return {(key >> _L_BITS, key & _L_MASK): Fraction(v, den) for key, v in nums.items()}
    bits = ring.key_bits
    groups: dict = {}
    monos: dict = {}
    for key, v in nums.items():
        kl = key >> bits
        m = key - (kl << bits)
        groups.setdefault(kl, {})[monos.setdefault(m, m)] = Fraction(v, den)
    return {(kl >> _L_BITS, kl & _L_MASK): ring.from_terms(terms) for kl, terms in groups.items()}


@lru_cache(maxsize=64, typed=True)
def _linear_power_table(a, b, n: int, bits: int) -> tuple:
    """(D, table) for the rational form a lam + b mu, D the least common
    denominator of a and b: table[k], k = 0..n, is the tuple of the nonzero
    terms of (A lam + B mu)^k, A = D a and B = D b, as ((i << 8 | k - i) << bits,
    comb(k, i) A^i B^(k-i)), row k built from row k - 1 by Pascal's rule.
    An entry that is not an int or a Fraction raises TypeError.  The last 64
    tables are shared, keyed with the types of a and b so that a bool never
    reads an int's table, and a shared table is tuples, so it cannot be written."""
    D, nums = clear_denominators({0: a, 1: b})
    A, B = nums.values()
    row = [1]  # row[i]: the coefficient of lam^i mu^(k-i)
    table = [((0, 1),)]
    for k in range(1, n + 1):
        row = [B * row[0]] + [A * row[i - 1] + B * row[i] for i in range(1, k)] + [A * row[k - 1]]
        table.append(tuple(((i << _L_BITS | k - i) << bits, s) for i, s in enumerate(row) if s))
    return D, tuple(table)


def standard_series(name: str, N: int):
    """The named classical series to order N with exact rational coefficients.

    Univariate names return a series in lam alone, bivariate ones a series
    in lam and mu; all are over QQ.
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
    """e^{a lam + b mu} as a BiSeries over QQ, in closed form: a^k b^l / (k! l!)
    at (k, l).  With a = A/D and b = B/D that is the int A^k B^l D^(n-k-l)
    n!/(k! l!) over n! D^n, n the order."""
    _check_order(order)
    D, nums = clear_denominators({0: rational(a), 1: rational(b)})
    A, B = nums.values()
    fact = [factorial(j) for j in range(order + 1)]
    n_fact = fact[order]
    d_pows = [D**j for j in range(order + 1)]
    terms = {}
    a_pow = 1  # A^k
    for k in range(order + 1):
        t = a_pow * n_fact // fact[k]  # A^k B^l n!/k!
        for l in range(order + 1 - k):
            terms[k << _L_BITS | l] = t * d_pows[order - k - l] // fact[l]
            t *= B
        a_pow *= A
    return _series(QQ, order, n_fact * d_pows[order], terms)


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
