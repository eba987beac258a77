"""Series over a polynomial ring in formal odd-zeta symbols.

theta_n stands for zeta(n)/(n (pi i)^n): an exact rational for even n, an
opaque commuting symbol for odd n >= 3.  Nothing is ever evaluated
numerically; solving for the free hexagon parameters in this ring is what
certifies that no polynomial relation between odd zeta values is implied.

A ``ThetaPoly`` keeps {packed monomial key: nonzero Fraction}: each exponent
sits in a 16-bit slot whose top bit guards against overflow, so a product of
monomials is one integer addition (layout in its docstring).  Coefficients
become Fractions once, through ``exact.rational`` where values enter the ring.
The ring operations trust them and serve work on single coefficients: the
printed identities.  Series arithmetic (sums, scalars, products,
substitutions, ``compose``, the exact divisions, and with them the peel of
``decompose_symmetric_series``) runs on the integer form of ``cassoc.series``:
a series' constructor reads ``terms`` once, every key the kernel makes is
checked against ``ThetaRing.guard``, and a series builds ThetaPolys again, by
``ThetaRing.from_terms``, once, for its read-only view ``coeffs``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exact import format_rational, gamma_coefficients, is_rational, parse_rational, rational, theta_even
from .hexagon import ParamSet, decompose_symmetric_series
from .series import QQ, BiSeries, UniSeries, standard_series

__all__ = [
    "ThetaPoly",
    "ThetaRing",
    "theta_even",
    "drinfeld_s",
    "drinfeld_f",
    "verify_even_S_identity",
    "theta_series",
    "solve_betas_in_theta",
    "ring_for_degree",
]


def ring_for_degree(d: int) -> "ThetaRing":
    """Smallest ring whose odd symbols cover series built to total degree d."""
    bound = d if d % 2 else d - 1
    return ThetaRing(max(bound, 3))


# packed monomial keys: the layout and the guard bit are described in ThetaPoly
_SLOT = 16
_GUARD_BIT = 1 << (_SLOT - 1)
_MAX_EXPONENT = _GUARD_BIT - 1
_SLOT_MASK = (1 << _SLOT) - 1
_ZERO = Fraction(0)


def _guard(n: int) -> int:
    """The guard bits of the keys of n packed exponents."""
    return (1 << (_SLOT * n)) // _SLOT_MASK * _GUARD_BIT


def _checked(gens: tuple, terms: dict) -> "ThetaPoly":
    """ThetaPoly(gens, terms), or OverflowError if a key sets a guard bit."""
    guard = _guard(len(gens))
    if any(e & guard for e in terms):
        raise OverflowError(f"exponent above {_MAX_EXPONENT} in a product")
    return ThetaPoly(gens, terms)


def _pack(exponents) -> int:
    """The key of an exponent vector; ValueError unless every entry is an int
    (not a bool) in 0.._MAX_EXPONENT."""
    key = 0
    for p in exponents:
        if type(p) is not int or not 0 <= p <= _MAX_EXPONENT:
            raise ValueError(f"exponent must be an int in 0..{_MAX_EXPONENT}, got {p!r}")
        key = key << _SLOT | p
    return key


def _unpack(key: int, n: int) -> tuple:
    """The n exponents packed in ``key``, first generator first."""
    return tuple(key >> (_SLOT * i) & _SLOT_MASK for i in range(n - 1, -1, -1))


class ThetaPoly:
    """Polynomial over Fraction in the odd symbols theta_3, theta_5, ...

    ``terms`` maps packed monomial keys to nonzero Fractions.  A key holds the
    exponent of each generator in a 16-bit slot, the first generator in the
    most significant one, so the monomial 1 is key 0, a product's key is the
    sum of its factors' keys, and integer order is the lexicographic order of
    exponent tuples.  The top bit of each slot is a guard bit: it is clear on
    every valid key, so exponents stay below 2**15, and a product that sets it
    raises OverflowError instead of carrying into the next slot.

    Coefficients become Fractions once, where values enter: ``const`` and the
    scalar ``*`` and ``/`` take them through the gate ``exact.rational``, and
    ``ThetaRing.parse`` reads "p/q" strings; the ring operations trust them
    and only drop the zeros they create.  The constructor takes them as given.

    theta_{2k+1} carries weight 2k+1; the weight of a monomial is the weighted
    exponent sum.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: tuple, terms: dict | None = None):
        self.gens = gens  # e.g. (3, 5, 7, 9)
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, gens: tuple, q) -> "ThetaPoly":
        q = rational(q)
        return cls(gens, {0: q} if q else {})

    @classmethod
    def generator(cls, gens: tuple, n: int) -> "ThetaPoly":
        i = gens.index(n)
        return cls(gens, {_pack([int(j == i) for j in range(len(gens))]): Fraction(1)})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "ThetaPoly") -> "ThetaPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                c += out[e]
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return ThetaPoly(self.gens, out)

    def __sub__(self, other: "ThetaPoly") -> "ThetaPoly":
        return self + (-other)

    def __neg__(self) -> "ThetaPoly":
        return ThetaPoly(self.gens, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ThetaPoly):
            out: dict = {}
            get = out.get
            right = other.terms.items()
            for e1, c1 in self.terms.items():
                for e2, c2 in right:
                    e = e1 + e2
                    c = get(e)
                    out[e] = c1 * c2 if c is None else c + c1 * c2
            return _checked(self.gens, {e: c for e, c in out.items() if c})
        q = rational(other)
        return ThetaPoly(self.gens, {e: c * q for e, c in self.terms.items()} if q else {})

    __rmul__ = __mul__

    def __truediv__(self, q) -> "ThetaPoly":
        return self * (1 / rational(q))

    def __eq__(self, other) -> bool:
        if isinstance(other, ThetaPoly):
            # one key names different monomials over different generators
            return self.terms == other.terms and (not self.terms or self.gens == other.gens)
        if is_rational(other):  # exact.is_rational: a float compares unequal
            return self == ThetaPoly.const(self.gens, other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def rational_part(self) -> Fraction:
        return self.terms.get(0, _ZERO)

    def odd_to_zero(self) -> Fraction:
        """Set every odd-zeta symbol to zero, leaving the rational part."""
        return self.rational_part()

    def max_weight(self) -> int:
        if not self.terms:
            return 0
        n = len(self.gens)
        return max(sum(g * p for g, p in zip(self.gens, _unpack(e, n))) for e in self.terms)

    # -- rendering -------------------------------------------------------------

    def __repr__(self) -> str:
        return self.format()

    def _sorted(self):
        """(exponent tuple, coefficient) pairs in lexicographic monomial order."""
        n = len(self.gens)
        return [(_unpack(e, n), self.terms[e]) for e in sorted(self.terms)]

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted():
            mono = "*".join(
                f"t{g}" + (f"^{p}" if p > 1 else "")
                for g, p in zip(self.gens, e)
                if p
            )
            cs = format_rational(abs(c))
            term = f"{cs}*{mono}" if mono else cs
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {term}")
        return " ".join(parts)

    def format_latex(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted():
            mono = "".join(
                rf"\theta_{{{g}}}" + (f"^{{{p}}}" if p > 1 else "")
                for g, p in zip(self.gens, e)
                if p
            )
            if c.denominator == 1:
                cs = str(c.numerator)
            else:
                sign = "-" if c < 0 else ""
                cs = rf"{sign}\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
            parts.append(f"{cs}{mono}" if mono else cs)
        return " + ".join(parts)

    def to_json_obj(self):
        if self.is_rational():
            return format_rational(self.rational_part())
        return {"poly": [[list(e), format_rational(c)] for e, c in self._sorted()]}


class ThetaRing:
    """Coefficient-ring adapter for BiSeries over ThetaPoly."""

    def __init__(self, odd_bound: int):
        self.gens = tuple(range(3, odd_bound + 1, 2))
        self.zero = ThetaPoly(self.gens)
        self.one = ThetaPoly.const(self.gens, 1)
        self.key_bits = _SLOT * len(self.gens)
        self.guard = _guard(len(self.gens))  # the series kernel checks every key it makes against it

    def from_rational(self, q) -> ThetaPoly:
        return ThetaPoly.const(self.gens, q)

    def generator(self, n: int) -> ThetaPoly:
        return ThetaPoly.generator(self.gens, n)

    def contains(self, c) -> bool:
        return isinstance(c, ThetaPoly) and c.gens == self.gens

    def from_terms(self, terms: dict) -> ThetaPoly:
        """The element with these {monomial key: nonzero Fraction} terms, the
        keys already checked against ``guard``."""
        return ThetaPoly(self.gens, terms)

    @staticmethod
    def is_zero(c: ThetaPoly) -> bool:
        return c.is_zero()

    def inverse_of(self, c: ThetaPoly) -> ThetaPoly:
        if not c.is_rational() or c.is_zero():
            raise ZeroDivisionError("non-unit constant term")
        return ThetaPoly.const(self.gens, Fraction(1) / c.rational_part())

    @staticmethod
    def format(c: ThetaPoly) -> str:
        return c.format()

    @staticmethod
    def to_json_obj(c: ThetaPoly):
        return c.to_json_obj()

    def parse(self, obj) -> ThetaPoly:
        """Inverse of ``ThetaPoly.to_json_obj``: a "p/q" string or a {"poly": ...} object."""
        if isinstance(obj, dict):
            return self.parse_poly(obj)
        return ThetaPoly.const(self.gens, parse_rational(obj))

    def parse_poly(self, obj) -> ThetaPoly:
        """Read {"poly": [[exponents, "p/q"], ...]}; anything malformed raises ValueError.

        Each exponent vector has one int (not bool) per generator, each in
        0..2**15 - 1, and no monomial may appear twice.
        """
        if not isinstance(obj, dict) or obj.keys() != {"poly"} or not isinstance(obj["poly"], list):
            raise ValueError(f'theta polynomial must be {{"poly": [[exponents, "p/q"], ...]}}, got {obj!r}')
        terms = {}
        for item in obj["poly"]:
            if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], list)):
                raise ValueError(f'theta term must be [exponents, "p/q"], got {item!r}')
            exponents, text = item
            if len(exponents) != len(self.gens):
                raise ValueError(f"exponent vector {exponents!r} needs one entry per generator {self.gens}")
            key = _pack(exponents)
            if key in terms:
                raise ValueError(f"monomial {exponents!r} appears twice")
            terms[key] = parse_rational(text)
        return ThetaPoly(self.gens, {e: c for e, c in terms.items() if c})


def _S_coeff(ring: ThetaRing, n: int) -> ThetaPoly:
    if n % 2 == 0:
        return ring.from_rational(theta_even(n // 2))
    return ring.generator(n)


def drinfeld_s(N: int, ring: ThetaRing | None = None) -> BiSeries:
    """s(lam, mu) = S(lam) + S(mu) - S(lam+mu) with S = sum_{n>=2} theta_n x^n.

    The default ring, ``ring_for_degree(N)``, has every odd symbol up to theta_N.
    """
    ring = ring or ring_for_degree(N)
    if any(n % 2 and n > max(ring.gens, default=0) for n in range(3, N + 1)):
        raise ValueError("odd-symbol bound too small for this order")
    cs = [ring.zero, ring.zero] + [_S_coeff(ring, n) for n in range(2, N + 1)]
    S = UniSeries(ring, cs, N)
    return S + S.as_biseries((0, 1), N) - S.as_biseries((1, 1), N)


def drinfeld_f(N: int, ring: ThetaRing | None = None) -> BiSeries:
    """f with 1 + lam mu f = exp(s), recovered by exact division by lam mu.

    The default ring is sized so the internal series to degree N + 2 has all
    the odd symbols it mentions.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    ring = ring or ring_for_degree(N + 2)
    tilde = drinfeld_s(N + 2, ring).exp()
    one = BiSeries.constant(QQ, Fraction(1), N + 2)
    return (tilde - one).divide_monomial(1, 1)


def verify_even_S_identity(N: int) -> bool:
    """exp(-2 Even(S(rho))) = (e^rho - e^{-rho})/(2 rho), coefficient-exactly.

    Purely rational: Even(S) only involves the even theta values.
    """
    cs = [Fraction(0)] * (N + 1)
    for n in range(1, N // 2 + 1):
        cs[2 * n] = -2 * theta_even(n)
    arg = UniSeries(QQ, cs, N)  # series in rho alone
    return arg.exp() == standard_series("sinhc", N)


def theta_series(N: int, ring: ThetaRing | None = None) -> BiSeries:
    """theta(lam,mu) = -sum theta_{2n+1} ((lam+mu)^{2n+1} - lam^{2n+1} - mu^{2n+1}),
    the odd part of ``drinfeld_s``; a ring without every odd symbol up to
    theta_N is ``drinfeld_s``'s ValueError."""
    return drinfeld_s(N, ring).odd_part()


def _sqrt_sinhc_product(N: int) -> BiSeries:
    """sqrt(sinhc(lam+mu) sinhc(lam) sinhc(mu)) -- a rational unit series."""
    sinhc = standard_series("sinhc", N)
    prod = sinhc.as_biseries((1, 1), N) * sinhc * sinhc.as_biseries((0, 1), N)
    return prod.sqrt()


def solve_betas_in_theta(N: int, ring: ThetaRing | None = None) -> ParamSet:
    """Express the free hexagon parameters as odd-zeta polynomials.

    Solves, degree by degree, the two identities obtained by splitting
    exp(s) into even and odd parts:

        cosh(theta(lam,mu)) / sqrt(sinhc(l+m) sinhc(l) sinhc(m)) = h(lam,mu)
        sinh(theta(lam,mu)) / (lam mu (lam+mu) sqrt(...))        = h~(lam,mu)

    where h and h~ must be sums of associator polynomials.  A residual
    outside their span would certify a polynomial relation between odd zeta
    values; that raises ArithmeticError("residual outside span").
    """
    if N < 6:
        raise ValueError("N must be >= 6")
    M = N + 3
    ring = ring or ring_for_degree(M)
    th = theta_series(M, ring)
    cosh_t, sinh_t = _cosh_sinh(th)
    inv_sq = _sqrt_sinhc_product(M).inverse()
    h = cosh_t * inv_sq
    h_tilde = (sinh_t * inv_sq).divide_monomial(1, 1).divide_lam_plus_mu()
    # Even(f) at degree N needs the even family through degree N + 2, the odd
    # part of f at degree N needs the tilde family through degree N - 1 only.
    h, h_tilde = h.truncate(N + 2), h_tilde.truncate(N - 1)
    # both are sums of even-degree associator polynomials
    if not (h.odd_part().is_zero() and h_tilde.odd_part().is_zero()):
        raise ArithmeticError("residual outside span")
    even_coeffs = decompose_symmetric_series(h)
    odd_coeffs = decompose_symmetric_series(h_tilde)
    gam = gamma_coefficients(N + 2)
    beta = {}
    beta_tilde = {}
    for n in range(h.order // 2 + 1):
        coeffs = even_coeffs[2 * n]
        # spine must reproduce the rational gamma coefficients exactly
        if coeffs[0] != gam[n]:
            raise ArithmeticError("spine mismatch against the gamma series")
        for k in range(1, len(coeffs)):
            beta[(n, k)] = coeffs[k]
    for n in range(h_tilde.order // 2 + 1):
        for k, c in enumerate(odd_coeffs[2 * n]):
            beta_tilde[(n, k)] = c
    return ParamSet(beta=beta, beta_tilde=beta_tilde, ring=ring)


def _cosh_sinh(s: BiSeries) -> tuple:
    """cosh(s) and sinh(s), both composed in s^2 (s has no constant term)."""
    s2 = s * s
    n = s.order // 2 + 1
    cosh = s2.compose([Fraction(1, factorial(2 * j)) for j in range(n)])
    sinh = s * s2.compose([Fraction(1, factorial(2 * j + 1)) for j in range(n)])
    return cosh, sinh
