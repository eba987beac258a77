"""Exact rational tables: Bernoulli numbers and their two-index extension.

Everything here is an exact ``fractions.Fraction``, and ``rational`` is the
package's one gate into exact arithmetic: an int or a Fraction passes, a
float never does.  The two-index family C[m,n] is the structure-constant
table of the commutator part of the Hausdorff series once all commutators
commute, and is computed three independent ways (recursion, closed binomial
form, mirrored recursion) so the higher modules can cross-check each other.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial, lcm

__all__ = [
    "bernoulli",
    "check_bernoulli_identity",
    "ext_bernoulli_recursive",
    "ext_bernoulli_closed",
    "ext_bernoulli_prime",
    "gamma_coefficients",
    "is_rational",
    "rational",
    "rationals",
    "clear_denominators",
    "format_rational",
    "parse_rational",
]

# Tables grow on demand and entries are never rewritten.  _BERN is extended in
# a local copy and published by one rebinding, so a concurrent reader sees the
# old list or the new one, never a half-built one; _C and _C_PRIME store each
# entry once, with its final value.
_BERN: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_C: dict[tuple[int, int], Fraction] = {}
_C_PRIME: dict[tuple[int, int], Fraction] = {}


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), from sum_{k=0}^{m} C(m+1,k) B_k = 0."""
    global _BERN
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    table = _BERN
    if n >= len(table):
        table = list(table)
        for m in range(len(table), n + 1):
            s = 0 if m % 2 else sum(comb(m + 1, k) * table[k] for k in range(m))
            table.append(Fraction(-s, m + 1))
        _BERN = table
    return table[n]


def check_bernoulli_identity(m: int, variant: str) -> bool:
    """Exact check of the three binomial relations satisfied by the B_n.

    variant "a": sum_{n=1}^{m} C(m+1,n) B_n = -1
    variant "b": sum_{k=1}^{[m/2]} C(m+1,2k) B_{2k} = (m-1)/2
    variant "c": sum_{n=1}^{m} (-1)^n C(m+1,n) B_n = m
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if variant == "a":
        s = sum(comb(m + 1, n) * bernoulli(n) for n in range(1, m + 1))
        return s == -1
    if variant == "b":
        s = sum(comb(m + 1, 2 * k) * bernoulli(2 * k) for k in range(1, m // 2 + 1))
        return s == Fraction(m - 1, 2)
    if variant == "c":
        s = sum((-1) ** n * comb(m + 1, n) * bernoulli(n) for n in range(1, m + 1))
        return s == m
    raise ValueError(f"unknown variant {variant!r}")


def _ext_recursion(m: int, n: int, seed, table: dict) -> Fraction:
    """The two-index recursion with first row C[1,n] = seed(n):

    C[m+1,n] = n/(n+1) C[m,n+1] - 1/(n+1) sum_{k=1}^{n} C(n+1,k) seed(k) C[m,n-k+1]
    """
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    if m == 1:
        return seed(n)
    key = (m, n)
    if key not in table:
        s = Fraction(n, n + 1) * _ext_recursion(m - 1, n + 1, seed, table)
        for k in range(1, n + 1):
            s -= Fraction(comb(n + 1, k), n + 1) * seed(k) * _ext_recursion(m - 1, n - k + 1, seed, table)
        table[key] = s
    return table[key]


def ext_bernoulli_recursive(m: int, n: int) -> Fraction:
    """C[m,n] by the defining recursion seeded with C[1,n] = B_n."""
    return _ext_recursion(m, n, bernoulli, _C)


def ext_bernoulli_closed(m: int, n: int) -> Fraction:
    """C[m,n] in closed form: sum_{k=0}^{m-1} C(m,k) B_{n+k}."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    return sum((comb(m, k) * bernoulli(n + k) for k in range(m)), Fraction(0))


def _prime_seed(n: int) -> Fraction:
    return Fraction(1, 2) if n == 1 else bernoulli(n)


def ext_bernoulli_prime(m: int, n: int) -> Fraction:
    """The mirrored family C'[m,n]: the same recursion seeded with C'[1,1] = 1/2,
    C'[1,n] = B_n (n >= 2).  Satisfies C'[m,n] = (-1)^{m+n-1} C[m,n].
    """
    return _ext_recursion(m, n, _prime_seed, _C_PRIME)


def gamma_coefficients(N: int) -> list[Fraction]:
    """Coefficients g_k of 2x/(e^x - e^{-x}) = sum g_k x^{2k}, for 2k <= N.

    g_0 = 1 and sum_{k=0}^{n} g_{n-k}/(2k+1)! = 0 for n >= 1.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    out = [Fraction(1)]
    odd_fact = [1]  # (2k+1)! for k = 0, 1, ...
    for n in range(1, N // 2 + 1):
        odd_fact.append(odd_fact[-1] * 2 * n * (2 * n + 1))
        s = Fraction(0)
        for k in range(1, n + 1):
            s += Fraction(out[n - k], odd_fact[k])
        out.append(-s)
    return out


def theta_even(n: int) -> Fraction:
    """theta_{2n} = -2^{2n} B_{2n} / (4n (2n)!), an exact rational."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(-(2 ** (2 * n))) * bernoulli(2 * n) / Fraction(4 * n * factorial(2 * n))


_RATIONAL = frozenset((int, Fraction))  # exact types: a bool or a float is not one


def is_rational(c) -> bool:
    """Whether c is an exact rational: an int or a Fraction, and not a bool."""
    return type(c) in _RATIONAL


def rational(c) -> Fraction:
    """The gate into exact arithmetic: an int or a Fraction comes back as a
    Fraction; anything else (a float, a bool, a str, None) raises TypeError."""
    if type(c) not in _RATIONAL:
        raise TypeError(f"{c!r} is not an exact rational (an int or a Fraction)")
    return c if type(c) is Fraction else Fraction(c)


def rationals(values):
    """The collection ``values`` as it is, once each entry has passed ``rational``."""
    if not _RATIONAL.issuperset(map(type, values)):
        for c in values:
            rational(c)
    return values


def clear_denominators(coeffs: dict) -> tuple:
    """(den, {key: int}) with coeffs[key] == v / den, den the lcm of the
    denominators; every coefficient must pass ``rational``."""
    den = lcm(*[c.denominator for c in rationals(coeffs.values())])
    return den, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}


def format_rational(q: Fraction) -> str:
    """Serialize p/q as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p": an optional sign, decimal digits, optionally "/"
    and decimal digits, with whitespace around.  Anything else (a decimal
    point, an exponent, an underscore, a zero denominator) raises ValueError."""
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", text.strip()) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"rational must be a \"p/q\" string, got {text!r}")
    p, q = match.groups()
    if q is not None and not int(q):
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(p), int(q or 1))
