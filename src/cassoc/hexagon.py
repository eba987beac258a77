"""The hexagon equation for compressed associators, in all its reduced forms.

The unknown is the symmetric table alpha[k,l], which is its generating
function f(lam, mu): an ``AlphaTable`` is a ``BiSeries`` that adds only the
table's file formats, and every check here takes any series.  The residual
builders below all vanish exactly on solutions and are related by invertible
series manipulations, so they give independent cross-checks of one another:

* ``residual_39``  -- G + C*T = 0 form (one Hausdorff application)
* ``residual_15b`` -- the exponential-substitution form
* ``split_residuals`` -- even/odd split of the previous one

``build_f`` assembles the general solution from its free parameters; the
three distinguished families and the degree-by-degree linear solver sit on
top of it.  ``_associator_basis`` is the one rational basis of the
associator polynomials: ``build_f`` sums the parameters over it, one
``associator_polynomial`` per degree, and ``decompose_symmetric_series``
reads coordinates back in it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from . import linalg
from .cbh import ModelElement, hausdorff_in_l3
from .exact import bernoulli, clear_denominators, gamma_coefficients, theta_even
from .series import QQ, BiSeries, _term_sort_key, exp_linear, standard_series

__all__ = [
    "AlphaTable",
    "ParamSet",
    "g_from_f",
    "residual_39",
    "residual_15b",
    "split_residuals",
    "extreme_coefficients",
    "diagonal_series",
    "associator_polynomial",
    "is_associator_polynomial",
    "decompose_symmetric_series",
    "build_f",
    "family_I",
    "family_II",
    "family_III",
    "free_parameter_census",
    "solve_degreewise",
    "model_hexagon_check",
    "extract_h",
    "extract_h_tilde",
]


class AlphaTable(BiSeries):
    """Symmetric coefficient family alpha[k,l] of a compressed associator,
    valid for k + l <= order: the series sum alpha[k,l] lam^k mu^l itself,
    with the file formats of a table."""

    __slots__ = ()

    def __init__(self, alpha: dict, order: int, ring=QQ):
        super().__init__(ring, alpha, order)

    @classmethod
    def from_series(cls, f: BiSeries) -> "AlphaTable":
        """The table of f, sharing its integer form: no copy, no re-gating."""
        table = cls.__new__(cls)
        for slot in BiSeries.__slots__:
            setattr(table, slot, getattr(f, slot))
        return table

    def to_json(self) -> str:
        return json.dumps({"truncation_order": self.order, "alpha": self.to_records()}, indent=2)

    @classmethod
    def from_json(cls, text: str, ring=QQ) -> "AlphaTable":
        data = json.loads(text)
        if not isinstance(data, dict) or not {"truncation_order", "alpha"} <= data.keys():
            raise ValueError("alpha table needs 'truncation_order' and 'alpha'")
        return cls.from_series(BiSeries.from_records(ring, data["alpha"], data["truncation_order"]))

    def to_csv(self) -> str:
        lines = ["k,l,alpha"]
        for (k, l), c in sorted(self.coeffs.items(), key=_term_sort_key):
            lines.append(f"{k},{l},{self.ring.format(c)}")
        return "\n".join(lines) + "\n"


class ParamSet:
    """Free parameters of the general hexagon solution.

    ``beta[(n, k)]`` for n >= 3, 1 <= k <= n // 3 (the k = 0 spine is forced to
    the gamma coefficients and must not appear here); ``beta_tilde[(n, k)]``
    for n >= 0, 0 <= k <= n // 3.
    """

    def __init__(self, beta: dict | None = None, beta_tilde: dict | None = None, ring=QQ):
        self.ring = ring
        self.beta = dict(beta or {})
        self.beta_tilde = dict(beta_tilde or {})
        for (n, k) in self.beta:
            if not (n >= 3 and 1 <= k <= n // 3):
                raise ValueError(f"beta index out of range: {(n, k)}")
        for (n, k) in self.beta_tilde:
            if not (n >= 0 and 0 <= k <= n // 3):
                raise ValueError(f"beta_tilde index out of range: {(n, k)}")
        for name, values in (("beta", self.beta), ("beta_tilde", self.beta_tilde)):
            for index, v in values.items():
                if not ring.contains(v):
                    raise TypeError(f"{name}[{index}] = {v!r} is not an element of the parameter ring")

    def to_json(self) -> str:
        """JSON that ``from_json`` reads back: each value is written by
        ``ring.to_json_obj`` ("p/q" for a rational, {"poly": ...} otherwise)."""
        enc = self.ring.to_json_obj
        return json.dumps(
            {
                "beta": [[n, k, enc(v)] for (n, k), v in sorted(self.beta.items())],
                "beta_tilde": [[n, k, enc(v)] for (n, k), v in sorted(self.beta_tilde.items())],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str, ring=QQ) -> "ParamSet":
        """Parse ``to_json`` output (which ``zeta solve-betas`` prints);
        malformed input, a repeated (n, k) included, raises ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("parameter file must hold a JSON object")

        def entries(name: str) -> dict:
            items = data.get(name, [])
            if not isinstance(items, list) or not all(
                isinstance(e, list) and len(e) == 3 and type(e[0]) is int and type(e[1]) is int for e in items
            ):
                raise ValueError(f"{name} must be a list of [n, k, value] with int n, k")
            values = {(n, k): ring.parse(v) for n, k, v in items}
            if len(values) < len(items):
                raise ValueError(f"{name} lists an (n, k) twice")
            return values

        return cls(entries("beta"), entries("beta_tilde"), ring)


def g_from_f(f: BiSeries) -> BiSeries:
    """g(lam, mu) = lam * f(lam, mu) / (e^lam - 1)."""
    return standard_series("x_over_expm1", f.order) * f


_SUB_MU_RHO = ((0, 1), (-1, -1))  # (lam, mu) -> (mu, -lam-mu)
_SUB_RHO_LAM = ((-1, -1), (1, 0))  # (lam, mu) -> (-lam-mu, lam)
_SUB_LAM_RHO = ((1, 0), (-1, -1))  # (lam, mu) -> (lam, -lam-mu)
_SUB_NEG = ((-1, 0), (0, -1))
_SUB_NEG_SWAP = ((0, -1), (-1, 0))  # (lam, mu) -> (-mu, -lam)


def _parts_39(f: BiSeries) -> tuple:
    """G = g + g(mu,rho) + g(rho,lam) and T = 1 + lam g(mu,rho) - mu g of (3.9)."""
    n = f.order
    g = g_from_f(f)
    g_mr = g.substitute_linear(_SUB_MU_RHO)
    g_rl = g.substitute_linear(_SUB_RHO_LAM)
    G = g + g_mr + g_rl
    one = BiSeries.constant(QQ, Fraction(1), n)
    T = one + BiSeries.monomial(QQ, 1, 0, Fraction(1), n) * g_mr - BiSeries.monomial(QQ, 0, 1, Fraction(1), n) * g
    return G, T


def residual_39(f: BiSeries) -> BiSeries:
    """G + C*T, with G and T from ``_parts_39``."""
    G, T = _parts_39(f)
    return G + standard_series("c_generating_closed", f.order) * T


def residual_15b(f: BiSeries) -> BiSeries:
    """LHS - RHS of  f + e^mu f(mu,rho) + e^{-lam} f(lam,rho)
    = ((e^mu-1)/mu + (e^{-lam}-1)/lam) / (lam+mu)."""
    n = f.order
    lhs = (
        f
        + exp_linear(0, 1, n) * f.substitute_linear(_SUB_MU_RHO)
        + exp_linear(-1, 0, n) * f.substitute_linear(_SUB_LAM_RHO)
    )
    return lhs - _rhs_15b(n)


def _rhs_15b(n: int) -> BiSeries:
    """((e^mu-1)/mu + (e^{-lam}-1)/lam) / (lam+mu) through order n."""
    em = standard_series("expm1_over_x", n + 1)
    # (e^{-lam}-1)/lam is minus the x -> -lam substitution of (e^x-1)/x
    num = em.as_biseries((0, 1), n + 1) - em.as_biseries((-1, 0), n + 1)
    return num.divide_lam_plus_mu()


def split_residuals(f: BiSeries) -> tuple:
    """The even and odd halves of the hexagon, as a pair of residual series.

    Requires a symmetric f.  Both vanish exactly iff ``residual_15b(f)`` does.
    The even half's degree-D slice sees alpha only up to degree D - 3, so it is
    exact through the odd order m = n + 3 - n % 2, the first order at which
    alpha of the top even degree (n or n - 1) shows; a shorter one misses it.

    Each half needs one substitution: when F(-lam,-mu) = p F(lam,mu), p = +-1,
    e^{-lam} F(lam,rho) = p * (e^mu F(mu,rho))(-mu,-lam).
    """
    if not f.is_symmetric():
        raise ValueError("asymmetric input")
    n = f.order
    m = n + 3 - n % 2
    one = BiSeries.constant(QQ, Fraction(1), m)
    lam = BiSeries.monomial(QQ, 1, 0, Fraction(1), m)
    mu = BiSeries.monomial(QQ, 0, 1, Fraction(1), m)
    ftilde_even = (one + lam * mu * f.pad(m)).even_part()
    u = lam * exp_linear(0, 1, m) * ftilde_even.substitute_linear(_SUB_MU_RHO)
    # mu e^{-lam} ftilde_even(lam,rho) = -u(-mu,-lam)
    even_res = (lam + mu) * ftilde_even - u + u.substitute_linear(_SUB_NEG_SWAP)
    f_odd = f.odd_part()
    t = exp_linear(0, 1, n) * f_odd.substitute_linear(_SUB_MU_RHO)
    odd_res = f_odd + t - t.substitute_linear(_SUB_NEG_SWAP)
    return even_res, odd_res


def extreme_coefficients(N: int) -> list:
    """alpha[2k, 0] = 2^{2k+1} B_{2k+2} / (2k+2)! for 2k <= N."""
    out = []
    fact = Fraction(2)  # (2k+2)! running
    for k in range(0, N // 2 + 1):
        if k > 0:
            fact *= (2 * k + 1) * (2 * k + 2)
        out.append(Fraction(2 ** (2 * k + 1)) * bernoulli(2 * k + 2) / fact)
    return out


def diagonal_series(N: int) -> BiSeries:
    """f(lam, -lam) = 1/lam^2 - 2/(lam (e^lam - e^{-lam})) as an exact series
    in lam: (1 - two)/lam^2, where two = 2 lam/(e^lam - e^{-lam}) = 1 + O(lam^2)."""
    one = BiSeries.constant(QQ, Fraction(1), N + 2)
    return (one - standard_series("two_x_over_sinh2x", N + 2)).divide_monomial(2, 0)


# -- associator polynomials -------------------------------------------------------------


def _associator_basis(d: int) -> list:
    """The associator polynomials of degree d, a basis over QQ:
    (lam mu (lam+mu))^j w^(d-3j) for j = d mod 2, d mod 2 + 2, ... <= d/3,
    with w^2 = lam^2 + lam mu + mu^2, by ascending j."""
    one = BiSeries.constant(QQ, 1, d)
    w2 = BiSeries(QQ, {(2, 0): 1, (1, 1): 1, (0, 2): 1}, d)
    cube = BiSeries(QQ, {(2, 1): 1, (1, 2): 1}, d)  # lam mu (lam+mu)
    w2_ladder = [one]
    for _ in range(d // 2):
        w2_ladder.append(w2_ladder[-1] * w2)
    cube_sq = cube * cube
    cube_pow = cube if d % 2 else one
    out = []
    for j in range(d % 2, d // 3 + 1, 2):
        out.append(cube_pow * w2_ladder[(d - 3 * j) // 2])
        cube_pow = cube_pow * cube_sq
    return out


def associator_polynomial(n: int, params: list, ring=QQ) -> BiSeries:
    """sum params[j] * basis[j] over the degree-n ``_associator_basis``: the
    general homogeneous degree-n polynomial with the three symmetries.

    Even n = 2m: params has m//3 + 1 entries; odd n = 2m+1: (m-1)//3 + 1
    entries, none at all for n = 1.
    """
    basis = _associator_basis(n)
    if len(params) != len(basis):
        raise ValueError(f"expected {len(basis)} parameters for degree {n}, got {len(params)}")
    return _combination(params, basis, ring, n)


def _combination(params: list, basis: list, ring, n: int) -> BiSeries:
    """sum params[j] * basis[j], a series of order n over ``ring``."""
    out = BiSeries(ring, {}, n)
    for p, b in zip(params, basis):
        out = out + BiSeries.constant(ring, p, n) * b
    return out


def is_associator_polynomial(p: BiSeries) -> bool:
    """Exact check of p(lam,mu) = p(mu,lam) = p(lam,-lam-mu)."""
    return p == p.swap() and p == p.substitute_linear(_SUB_LAM_RHO)


def decompose_symmetric_series(h: BiSeries) -> dict:
    """Write each homogeneous part of h in the associator-polynomial basis.

    The degree-d basis is unit triangular: the lowest lam-degree term of
    (lam mu (lam+mu))^j w^(d-3j) is lam^j mu^(d-j), with coefficient 1.  So
    the coordinates are peeled off by ascending j: c_j is the coefficient of
    lam^j mu^(d-j) in what is left, and c_j times that element is subtracted.
    Returns {degree: [coefficients]}; raises ArithmeticError("residual outside
    span") when some part is not an associator polynomial.
    """
    ring = h.ring
    out = {}
    for d in range(h.order + 1):
        rest = BiSeries(ring, h.homogeneous_part(d), d)
        coeffs = []
        for j, element in zip(range(d % 2, d // 3 + 1, 2), _associator_basis(d)):
            c = rest.coeff(j, d - j)
            coeffs.append(c)
            rest = rest - BiSeries.constant(ring, c, d) * element
        if not rest.is_zero():
            raise ArithmeticError("residual outside span")
        out[d] = coeffs
    return out


# -- the general solution (1.5c) ----------------------------------------------------------


def build_f(params: ParamSet, N: int) -> BiSeries:
    """Assemble f = Even + Odd from the parameter set, truncated at order N.

    1 + lam mu Even(f) = sinhc(lam+mu) h and Odd(f) = (lam+mu) sinhc(lam+mu) h~,
    where h and h~ are sums of associator polynomials.  The k = 0 spine of h
    is the fixed series 2w/(e^w - e^{-w}) = sum_n gamma_n w^(2n), a rational
    series in w^2 = lam^2 + lam mu + mu^2; everything else comes from
    ``params``, summed over one ``_associator_basis`` per degree, which h
    and h~ share.
    """
    ring = params.ring
    M = N + 2
    w2 = _associator_basis(2)[0].pad(M)
    h = w2.compose(gamma_coefficients(M))
    ht = BiSeries(ring, {}, M)
    for n in range(M // 2 + 1):
        ks = range(n // 3 + 1)
        beta = [ring.zero] + [params.beta.get((n, k), ring.zero) for k in ks[1:]]
        beta_tilde = [params.beta_tilde.get((n, k), ring.zero) for k in ks]
        if all(ring.is_zero(p) for p in beta + beta_tilde):
            continue
        basis = _associator_basis(2 * n)
        h = h + _combination(beta, basis, ring, 2 * n).pad(M)
        ht = ht + _combination(beta_tilde, basis, ring, 2 * n).pad(M)
    sinhc = standard_series("sinh_factor_bivariate", M)
    one = BiSeries.constant(QQ, Fraction(1), M)
    even_f = ((sinhc * h) - one).divide_monomial(1, 1)
    lam_plus_mu = BiSeries(QQ, {(1, 0): Fraction(1), (0, 1): Fraction(1)}, M)
    odd_f = lam_plus_mu * sinhc * ht
    return (even_f.truncate(N) + odd_f.truncate(N)).truncate(N)


def family_I(N: int) -> BiSeries:
    """All free parameters zero: 1 + lam mu f = sinhc(lam+mu) * 2w/(e^w - e^{-w})."""
    return build_f(ParamSet(), N)


def family_II(N: int) -> BiSeries:
    """1 + 2 lam mu f = sinhc(lam+mu) * (2lam/(e^lam-e^{-lam}) + 2mu/(e^mu-e^{-mu}) - 1)."""
    M = N + 2
    two = standard_series("two_x_over_sinh2x", M)
    sinhc = standard_series("sinh_factor_bivariate", M)
    one = BiSeries.constant(QQ, Fraction(1), M)
    inner = two + two.as_biseries((0, 1), M) - one
    out = (sinhc * inner - one).divide_monomial(1, 1) * Fraction(1, 2)
    return out.truncate(N)


def family_III(N: int) -> BiSeries:
    """1 + lam mu f = exp(-sum theta_{2n} ((lam+mu)^{2n} - lam^{2n} - mu^{2n})),
    theta_{2n} = -2^{2n} B_{2n}/(4n (2n)!)."""
    M = N + 2
    arg = {}
    for n in range(1, M // 2 + 1):
        coef = -theta_even(n)
        # (lam+mu)^{2n} - lam^{2n} - mu^{2n}: the two extreme monomials drop out
        for i in range(1, 2 * n):
            arg[i, 2 * n - i] = comb(2 * n, i) * coef
    tilde = BiSeries(QQ, arg, M).exp()
    one = BiSeries.constant(QQ, Fraction(1), M)
    return (tilde - one).divide_monomial(1, 1).truncate(N)


def family_II_params(N: int) -> ParamSet:
    """The ParamSet reproducing family II through order N (derived by
    decomposing ((lam+mu)^{2n} + lam^{2n} + mu^{2n})/2 in the even basis)."""
    gam = gamma_coefficients(N + 2)
    beta = {}
    for n in range(3, (N + 2) // 2 + 1):
        poly = {(i, 2 * n - i): Fraction(comb(2 * n, i), 2) for i in range(2 * n + 1)}
        poly[2 * n, 0] = poly[0, 2 * n] = Fraction(1)  # comb(2n, 0)/2 + 1/2
        coeffs = decompose_symmetric_series(BiSeries(QQ, poly, 2 * n))[2 * n]
        for k in range(1, n // 3 + 1):
            v = coeffs[k] * gam[n]
            if v:
                beta[(n, k)] = v
    return ParamSet(beta=beta)


def free_parameter_census(degree: int) -> int:
    """Number of free parameters first entering the alpha table at this degree."""
    if degree % 2 == 0:
        n = (degree + 2) // 2
        return n // 3 if n >= 3 else 0
    n = (degree - 1) // 2
    return n // 3 + 1


_LOOKAHEAD = 3  # degrees solved past N; see solve_degreewise


def _operator_slice(k: int, l: int, d: int) -> list:
    """d! * slice_d L(E_kl) (see ``solve_degreewise``) as the int coefficients
    of lam^i mu^(d-i), i = 0..d."""
    s = d - k - l
    col = [0] * (d + 1)
    for a, b in {(k, l), (l, k)}:
        if s == 0:
            col[a] += 1
        for i in range(b + 1):
            c = (-1) ** b * comb(b, i)  # rho^b = sum_i c lam^i mu^(b-i)
            col[i] += c  # mu^s mu^a lam^i mu^(b-i)
            col[s + a + i] += (-1) ** s * c  # (-lam)^s lam^a lam^i mu^(b-i)
    scale = factorial(d) // factorial(s)
    return [x * scale for x in col]


def solve_degreewise(N: int) -> dict:
    """Solve the hexagon degree by degree, carrying free directions forward.

    A single degree-d slice of the residual does not pin its unknowns: some
    slice-kernel directions are killed only by the consistency of later
    degrees (the degree-2 slice, for instance, has a spurious direction that
    degree 3 rules out).  The sweep therefore keeps every undetermined
    symmetric alpha[k,l] as a formal parameter, lets higher degrees impose
    their constraints retroactively, and runs ``_LOOKAHEAD`` degrees past N so
    the reported dimensions are the dimensions of genuinely extendable
    solution families.

    There is one kind of variable: the unknowns alpha[k,l], k <= l.  Each is
    live (a free parameter, its own form {u: 1}) until a pivot eliminates it;
    every unknown carries an affine form {None: constant, live unknown: coeff}.

    The left side of (1.5b), L(f) = f + e^mu f(mu,rho) + e^{-lam} f(lam,rho),
    is linear in f, and both exponentials are univariate.  So for the
    symmetric unknown E_kl = lam^k mu^l (+ lam^l mu^k) of degree k + l <= d,
    with s = d - k - l, the degree-d slice is in closed form:

        slice_d L(E_kl) = [s = 0] E_kl + (mu^s/s!) E_kl(mu,rho)
                          + ((-lam)^s/s!) E_kl(lam,rho),   rho = -lam-mu.

    Degree d folds these slices through every form into one column per live
    unknown.  The columns run: the new unknowns (k, d-k) by ascending k, then
    the older live unknowns newest first (descending degree, then descending
    k), so a cross-degree constraint eliminates the latest-entering unknown
    and the dimensions count genuinely new directions per degree.  Each pivot
    row gives its unknown as an affine form in the live unknowns to its
    right, which is substituted into every other form.  The right side is
    evaluated once, at the horizon; ``residual_15b`` is not called here: it
    checks the solver's output instead.

    The sweep is fraction-free.  Every form is held as int numerators over
    one denominator D shared by all forms, so an unknown's value is
    numerator / D.  Degree d's slices are scaled by d! (``_operator_slice``)
    and its right side by the lcm L of its denominators, so each row is the
    exact row times L * D * d!, all ints, and ``linalg.rref_int`` eliminates
    it.  A pivot row with pivot p gives its unknown over p; the forms take
    the substitution over P, the lcm of the pivots, so D becomes D * P, and
    then every numerator and D are divided by their common gcd.  Only the
    report builds Fractions.

    Returns a report with the canonical table (all live unknowns set to
    zero), per-degree solution-space dimensions, the free-parameter census
    they must match, and the kernel directions in the unknown basis.
    """
    horizon = N + _LOOKAHEAD
    rhs = _rhs_15b(horizon)
    forms: dict = {}  # (k, l), k <= l -> {None: constant, live unknown: coeff}, numerators over den
    den = 1
    live: list = []  # by degree, then k
    for d in range(0, horizon + 1):
        new = [(k, d - k) for k in range(0, d // 2 + 1)]
        for u in new:
            forms[u] = {u: den}
        cols = new + live[::-1]  # the older live unknowns newest first
        where = {u: j for j, u in enumerate(cols)}
        where[None] = len(cols)
        rhs_den, rhs_num = clear_denominators({i: rhs.coeffs.get((i, d - i), 0) for i in range(d + 1)})
        scale = den * factorial(d)
        matrix = [[0] * (d + 1) for _ in cols] + [[-rhs_num[i] * scale for i in range(d + 1)]]  # by column
        for (k, l), form in forms.items():
            col = _operator_slice(k, l, d)
            for key, c in form.items():
                j = where[key]
                c *= rhs_den
                matrix[j] = [a + c * x for a, x in zip(matrix[j], col)]
        red, pivots = linalg.rref_int(list(zip(*matrix)))
        dead: dict = {}  # eliminated unknown -> (pivot, its form: numerators over the pivot)
        for row, pc in zip(red, pivots):
            if pc == len(cols):
                raise ArithmeticError(f"inconsistent system at degree {d}")
            # the pivot's unknown in the live unknowns to its right
            form = {None: -row[-1]}
            for j in range(pc + 1, len(cols)):
                if row[j]:
                    form[cols[j]] = -row[j]
            dead[cols[pc]] = (row[pc], form)
        if dead:
            lcm_p = lcm(*(p for p, _ in dead.values()))
            subs = {u: {key: c * (lcm_p // p) for key, c in form.items()} for u, (p, form) in dead.items()}
            for u, form in forms.items():
                out: dict = {}
                for key, c in form.items():
                    for k2, c2 in subs.get(key, {key: lcm_p}).items():
                        out[k2] = out.get(k2, 0) + c * c2
                forms[u] = {k2: c2 for k2, c2 in out.items() if c2 or k2 is None}
            den *= lcm_p
            g = gcd(den, *(c for form in forms.values() for c in form.values()))
            if g > 1:
                den //= g
                forms = {u: {key: c // g for key, c in form.items()} for u, form in forms.items()}
        live = [u for u in live + new if u not in dead]

    table: dict = {}
    for (k, l), form in forms.items():
        val = form.get(None, 0)
        if k + l <= N and val:
            table[(k, l)] = val = Fraction(val, den)
            if k != l:
                table[(l, k)] = val
    degrees = []
    for d in range(0, N + 1):
        unknowns = [(k, d - k) for k in range(0, d // 2 + 1)]
        free = [u for u in unknowns if u in live]
        degrees.append(
            {
                "degree": d,
                "dimension": len(free),
                "census": free_parameter_census(d),
                "kernel": [[Fraction(forms[w].get(u, 0), den) for w in unknowns] for u in free],
                "unknowns": unknowns,
            }
        )
    return {"degrees": degrees, "alpha": table}


# -- independent hexagon verification in the three-letter model ------------------------------


def model_hexagon_check(alpha: BiSeries, N: int) -> bool:
    """Verify exp(a+b+c) = exp(psi(c,a)) exp(psi(b,c)) exp(psi(a,b)) in the model.

    psi(u, w) = u + g(...)[a, b] per the g-series of the table; the two
    Hausdorff products are evaluated with the extended-Bernoulli table, not
    with the closed-form generating function, so this path is independent of
    ``residual_39``.
    """
    if alpha.order < N - 2:
        raise ValueError(f"alpha table order {alpha.order} too small for letter degree {N}")
    f = alpha.truncate(N - 2)
    g = g_from_f(f)
    # a = X, b = Y and c = S - a - b
    psi_ab = ModelElement(1, 0, 0, g)
    psi_bc = ModelElement(0, 1, 0, g.substitute_linear(_SUB_MU_RHO))
    psi_ca = ModelElement(-1, -1, 1, g.substitute_linear(_SUB_RHO_LAM))
    inner = hausdorff_in_l3(psi_bc, psi_ab, N)
    total = hausdorff_in_l3(psi_ca, inner, N)
    target = ModelElement(0, 0, 1, BiSeries(QQ, {}, N - 2))
    return total == target


# -- the h / h-tilde extraction of the even and odd parts -----------------------------------


def extract_h(f: BiSeries) -> BiSeries:
    """h with 1 + lam mu Even(f) = sinhc(lam+mu) * h; carries the 3 symmetries
    and the boundary value h(lam, 0) = 2 lam/(e^lam - e^{-lam})."""
    n = f.order
    one = BiSeries.constant(QQ, Fraction(1), n + 2)
    lam_mu = BiSeries.monomial(QQ, 1, 1, Fraction(1), n + 2)
    lhs = one + lam_mu * f.pad(n + 2).even_part()
    sinhc = standard_series("sinh_factor_bivariate", n + 2)
    return lhs * sinhc.inverse()


def extract_h_tilde(f: BiSeries) -> BiSeries:
    """h-tilde with Odd(f) = (e^{lam+mu} - e^{-lam-mu})/2 * h-tilde."""
    sinhc = standard_series("sinh_factor_bivariate", f.order - 1)
    return f.odd_part().divide_lam_plus_mu() * sinhc.inverse()


def hexagon_symmetry_suite(h: BiSeries) -> bool:
    """h(lam,mu) = h(mu,lam) = h(-lam,-mu) = h(lam,-lam-mu), exactly: an
    associator polynomial that is even."""
    return is_associator_polynomial(h) and h == h.substitute_linear(_SUB_NEG)
