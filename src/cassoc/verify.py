"""Named verification checks: the acceptance suite behind ``cassoc verify all``.

Each check returns (ok, detail).  The registry order mirrors the criteria the
engine is expected to meet; ``cassoc verify all`` runs every check and reports
one line per criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from . import cbh, golden, hexagon, linalg, pentagon, zeta
from .exact import (
    bernoulli,
    check_bernoulli_identity,
    ext_bernoulli_closed,
    ext_bernoulli_prime,
    ext_bernoulli_recursive,
)
from .series import MAX_DEGREE, QQ, BiSeries, standard_series

__all__ = ["CHECKS", "run_check"]


def check_table_c(degree: int = 12) -> tuple:
    """Extended Bernoulli table reproduces every printed entry exactly."""
    count = 0
    for m, row in golden.TABLE_C.items():
        for idx, value in enumerate(row):
            n = idx + 1
            if m + n > degree:
                continue
            if ext_bernoulli_recursive(m, n) != value:
                return False, f"C[{m},{n}] recursive mismatch"
            if ext_bernoulli_closed(m, n) != value:
                return False, f"C[{m},{n}] closed-form mismatch"
            count += 1
    return True, f"{count} printed entries match (recursion and closed form)"


def check_c_series(degree: int = 10) -> tuple:
    """Closed-form generating function matches its printed coefficients."""
    c = standard_series("c_generating_closed", degree)
    for (k, l), value in golden.C_SERIES_PRINTED.items():
        if k + l > degree:
            continue
        if c.coeff(k, l) != value:
            return False, f"C(lam,mu) coefficient ({k},{l}) mismatch"
    extra = {kl for kl in c.coeffs if kl not in golden.C_SERIES_PRINTED}
    if extra:
        return False, f"unexpected nonzero coefficients {sorted(extra)[:4]}"
    return True, f"{len(golden.C_SERIES_PRINTED)} printed coefficients match"


def check_cbh(degree: int = 10, oracle_degree: int = 8) -> tuple:
    """Printed Hausdorff coefficients and the three-way path agreement.

    The printed table stops at its longest word, degree 10, so the engine's
    terms are held against it only that far; the paths agree to ``degree``."""
    closed = cbh.compressed_cbh(degree)
    top = max(len(word) for word, _ in golden.CBH_PRINTED)
    want: dict = {}
    for word, coeff in golden.CBH_PRINTED:
        conv = cbh.word_to_canonical(word)
        if conv is None:
            return False, f"printed word {word} vanishes"
        key, sign = conv
        want[key] = want.get(key, Fraction(0)) + sign * coeff
    for key, value in want.items():
        if key[0] + key[1] + 2 > degree:
            continue
        if closed.comm.coeff(*key) != value:
            return False, f"printed CBH term at {key} mismatch"
    for key, value in closed.comm.coeffs.items():
        if key[0] + key[1] + 2 <= top and value != want.get(key, Fraction(0)):
            return False, f"engine CBH term at {key} not printed"
    if cbh.classical_cbh_in_model(degree) != closed:
        return False, "closed form vs derivation recursion disagree"
    if cbh.associative_log_oracle(oracle_degree) != cbh.compressed_cbh(oracle_degree):
        return False, "closed form vs associative-log oracle disagree"
    return True, (
        f"{len(golden.CBH_PRINTED)} printed terms match; recursion agrees to "
        f"{degree}, associative oracle to {oracle_degree}"
    )


def check_hexagon_families(degree: int = 12, theta_degree: int = 9) -> tuple:
    """The hexagon residual vanishes identically for all four families."""
    for name, f in (
        ("I", hexagon.family_I(degree)),
        ("II", hexagon.family_II(degree)),
        ("III", hexagon.family_III(degree)),
    ):
        if not hexagon.residual_15b(f).is_zero():
            return False, f"family {name} residual nonzero"
        even_r, odd_r = hexagon.split_residuals(f)
        if not (even_r.is_zero() and odd_r.is_zero()):
            return False, f"family {name} split residual nonzero"
        if not hexagon.residual_39(f).is_zero():
            return False, f"family {name} one-Hausdorff residual nonzero"
    fd = zeta.drinfeld_f(theta_degree)
    if not hexagon.residual_15b(fd).is_zero():
        return False, "zeta-symbol series residual nonzero"
    er, orr = hexagon.split_residuals(fd)
    if not (er.is_zero() and orr.is_zero()):
        return False, "zeta-symbol split residual nonzero"
    # the four lowest-degree identities of the worked example
    fB = BiSeries(QQ, dict(golden.EXAMPLE_37_ALPHA), 3)
    G, T = hexagon._parts_39(fB)
    for d, parts in golden.G_B_PARTS.items():
        if G.homogeneous_part(d) != parts:
            return False, f"G part at degree {d} mismatch"
    for d, parts in golden.T_B_PARTS.items():
        if T.homogeneous_part(d) != parts:
            return False, f"T part at degree {d} mismatch"
    if not hexagon.residual_39(fB).is_zero():
        return False, "worked-example residual nonzero through degree 3"
    return True, f"families I/II/III to degree {degree}, zeta series to {theta_degree}, worked example exact"


def check_extreme_diagonal() -> tuple:
    """Edge coefficients and the diagonal restriction match the closed forms.

    The diagonal has two paths: the closed form ``diagonal_series`` against
    its printed coefficients, and the restriction f(lam, -lam) of each of
    families I, II and III against that closed form, to degree 12."""
    want_extreme = [Fraction(1, 6), Fraction(-1, 90), Fraction(1, 945), Fraction(-1, 9450)]
    if hexagon.extreme_coefficients(6) != want_extreme:
        return False, "extreme coefficients mismatch"
    diag = hexagon.diagonal_series(6)
    want_diag = {0: Fraction(1, 6), 2: Fraction(-7, 360), 4: Fraction(31, 15120), 6: Fraction(-127, 604800)}
    for n, v in want_diag.items():
        if diag.coeff(n, 0) != v:
            return False, f"diagonal coefficient {n} mismatch"
    if any(diag.coeff(n, 0) for n in (1, 3, 5)):
        return False, "diagonal has odd terms"
    closed = hexagon.diagonal_series(12)
    for name, family in (("I", hexagon.family_I), ("II", hexagon.family_II), ("III", hexagon.family_III)):
        if family(12).diagonal() != closed:
            return False, f"family {name} diagonal mismatch"
    f = hexagon.family_I(12)
    for k in range(0, 4):
        if f.coeff(2 * k, 0) != want_extreme[k]:
            return False, f"family I edge {2 * k} mismatch"
    return True, "extreme coefficients and diagonal series exact"


def check_solver(degree: int = MAX_DEGREE) -> tuple:
    """Degreewise solver: unique low degrees, kernel directions, census."""
    report = hexagon.solve_degreewise(degree)
    tab = report["alpha"]
    for kl, v in golden.EXAMPLE_37_ALPHA.items():
        if tab.get(kl, Fraction(0)) != v:
            return False, f"canonical alpha {kl} mismatch"
    for kl in ((1, 0), (0, 1), (3, 0), (2, 1), (1, 2), (0, 3)):
        if tab.get(kl):
            return False, f"canonical alpha {kl} should vanish"
    for entry in report["degrees"]:
        if entry["dimension"] != entry["census"]:
            return False, f"degree {entry['degree']} dimension {entry['dimension']} != census {entry['census']}"
    deg4 = report["degrees"][4]
    if deg4["dimension"] != 1:
        return False, "no kernel direction where the first free even parameter enters"
    v = deg4["kernel"][0]
    # direction of lam*mu*(lam+mu)^2 over unknowns (0,4), (1,3), (2,2)
    if not (v[0] == 0 and v[1] != 0 and v[2] == 2 * v[1]):
        return False, "kernel direction does not match the degree-6 polynomial family"
    f = BiSeries(QQ, tab, degree)
    if not hexagon.residual_15b(f).is_zero():
        return False, "canonical solution fails the hexagon"
    return True, f"unique through degree 3, census matches at all degrees <= {degree}"


def check_pentagon(degree: int = 8) -> tuple:
    """The pentagon kills exactly the symmetric tables, at every degree.

    At letter degree d the residual is the linear map alpha[k, d-2-k] -> c_k
    of ``pentagon.pentagon_columns``, which builds every degree's columns over
    one set of power tables.  Its kernel is the symmetric tables exactly when
    c_{d-2-k} = -c_k for every k and the floor((d-1)/2) columns c_k with
    k < d-2-k are independent.
    """
    if any(pentagon.pentagon_check(hexagon.family_I(degree - 2), degree).values()):
        return False, "pentagon residual nonzero for the first family"
    ranks = []
    for d, cols in pentagon.pentagon_columns(degree).items():
        for k, col in enumerate(cols):
            if cols[d - 2 - k] != {key: -c for key, c in col.items()}:
                return False, f"pentagon residual nonzero for a symmetric table at degree {d} (k={k})"
        half = (d - 1) // 2
        keys = sorted({key for col in cols[:half] for key in col})
        _, pivots = linalg.rref([[col.get(key, 0) for key in keys] for col in cols[:half]])
        if len(pivots) != half:
            return False, f"pentagon residual zero for an asymmetric table at degree {d}"
        ranks.append(len(pivots))
    return True, (
        f"kernel is exactly the symmetric tables at every degree 2..{degree} "
        f"(ranks {','.join(map(str, ranks))}); first family zero"
    )


def check_section5(kmax: int = 4, lmax: int = 4) -> tuple:
    """Every displayed quotient identity reduces to zero."""
    red = pentagon.l4_reducer()
    items = pentagon.identity_suite(kmax, lmax)
    for name, elem in items:
        if not red.is_zero(elem):
            return False, f"identity fails: {name}"
    if not pentagon.claim_53_span_checks():
        return False, "degree-3 generation fails"
    return True, f"{len(items)} identities reduce to zero; degree-3 spans confirmed"


def check_l3_dimensions(degree: int = 10) -> tuple:
    """Three- and four-strand quotient dimensions equal their references at every degree."""
    for variant in ("L3bar", "L4bar"):
        for d, entry in pentagon.dimension_report(degree, variant).items():
            if entry["dimension"] != entry["reference"]:
                return False, f"{variant} dimension at degree {d}: {entry['dimension']} != {entry['reference']}"
    return True, f"L3 dimensions match the model to degree {degree}; L4 dimensions are 6, 4, 5(d-1) to degree {degree}"


def check_zeta(solve_degree: int = 9, family_degree: int = 12) -> tuple:
    """Even theta values, printed series coefficients, parameter solving."""
    for n, v in golden.THETA_EVEN_PRINTED.items():
        if zeta.theta_even(n) != v:
            return False, f"theta_{2 * n} mismatch"
    if not zeta.verify_even_S_identity(12):
        return False, "even-part exponential identity fails"
    ring = zeta.ring_for_degree(9)
    fd = zeta.drinfeld_f(7, ring)
    t3, t5, t7 = ring.generator(3), ring.generator(5), ring.generator(7)
    q = ring.from_rational
    a6 = {
        (0, 0): q(Fraction(1, 6)),
        (1, 0): t3 * Fraction(-3),
        (2, 0): q(Fraction(-1, 90)),
        (1, 1): q(Fraction(-1, 360)),
        (3, 0): t5 * Fraction(-5),
        (2, 1): t5 * Fraction(-10) - t3 * Fraction(1, 2),
        (4, 0): q(Fraction(1, 945)),
        (3, 1): t3 * t3 * Fraction(9, 2) + q(Fraction(1, 1260)),
        (2, 2): t3 * t3 * Fraction(9) + q(Fraction(23, 15120)),
        (5, 0): t7 * Fraction(-7),
        (4, 1): t7 * Fraction(-21) - t5 * Fraction(5, 6) + t3 * Fraction(1, 30),
        (3, 2): t7 * Fraction(-35) - t5 * Fraction(5, 3) + t3 * Fraction(1, 24),
        (6, 0): q(Fraction(-1, 9450)),
        (5, 1): t3 * t5 * Fraction(15) - q(Fraction(1, 7560)),
        (4, 2): t3 * t5 * Fraction(45) + t3 * t3 * Fraction(3, 4) - q(Fraction(61, 226800)),
        (3, 3): t3 * t5 * Fraction(60) + t3 * t3 * Fraction(3, 2) - q(Fraction(499, 1814400)),
    }
    for (k, l), value in a6.items():
        if fd.coeff(k, l) != value:
            return False, f"zeta series coefficient ({k},{l}) mismatch"
        if fd.coeff(l, k) != value:
            return False, f"zeta series coefficient ({l},{k}) asymmetric"
    params = zeta.solve_betas_in_theta(solve_degree)
    r = params.ring
    t3, t5, t7, t9 = (r.generator(n) for n in (3, 5, 7, 9))
    q = r.from_rational
    want = {
        ("beta", 3, 1): t3 * t3 * Fraction(9, 2) - q(Fraction(8, 3 * 5040)),
        ("beta", 4, 1): t3 * t5 * Fraction(15) - t3 * t3 * Fraction(3, 4) + q(Fraction(44, 45 * 5040)),
        ("beta_tilde", 0, 0): t3 * Fraction(-3),
        ("beta_tilde", 1, 0): t5 * Fraction(-5) + t3 * Fraction(1, 2),
        ("beta_tilde", 2, 0): t7 * Fraction(-7) + t5 * Fraction(5, 6) - t3 * Fraction(7, 120),
        ("beta_tilde", 3, 0): t9 * Fraction(-9) + t7 * Fraction(7, 6) - t5 * Fraction(7, 72) + t3 * Fraction(31, 5040),
        ("beta_tilde", 3, 1): t3 * t3 * t3 * Fraction(-9, 2) - t9 * Fraction(3) + t3 * Fraction(1, 630),
    }
    for (kind, n, k), value in want.items():
        got = (params.beta if kind == "beta" else params.beta_tilde).get((n, k))
        if got != value:
            return False, f"{kind}[{n},{k}] mismatch"
    built = hexagon.build_f(params, solve_degree)
    if built != zeta.drinfeld_f(solve_degree, r):
        return False, f"rebuilt series disagrees with the zeta series at degree {solve_degree}"
    fd_full = zeta.drinfeld_f(family_degree)
    fIII = hexagon.family_III(family_degree)
    keys = set(fd_full.coeffs) | set(fIII.coeffs)
    for kl in keys:
        if fd_full.coeffs.get(kl, fd_full.ring.zero).odd_to_zero() != fIII.coeffs.get(kl, Fraction(0)):
            return False, f"odd-to-zero mismatch at {kl}"
    return True, (
        f"even values, printed coefficients, all 7 parameter identities, zero residual to {solve_degree}, "
        f"third family recovered to degree {family_degree}"
    )


def check_property_suites(max_weight: int = 12, lemma22_max: int = 50, a1_max: int = 20) -> tuple:
    """Exhaustive identity sweeps for the scalar tables and h-extractions."""
    for m in range(1, max_weight):
        for n in range(1, max_weight + 1 - m):
            c = ext_bernoulli_recursive(m, n)
            if c != (-1) ** (m + n) * ext_bernoulli_recursive(n, m):
                return False, f"index-swap symmetry fails at ({m},{n})"
            if c != ext_bernoulli_closed(m, n):
                return False, f"closed form fails at ({m},{n})"
            if ext_bernoulli_prime(m, n) != (-1) ** (m + n - 1) * c:
                return False, f"mirrored table fails at ({m},{n})"
    for m in range(1, lemma22_max + 1):
        for variant in "abc":
            if not check_bernoulli_identity(m, variant):
                return False, f"binomial identity {variant} fails at {m}"
    for n in range(1, a1_max + 1):
        checks = [
            (ext_bernoulli_closed(2, 2 * n), bernoulli(2 * n)),
            (ext_bernoulli_closed(2, 2 * n + 1), 2 * bernoulli(2 * n + 2)),
            (ext_bernoulli_closed(3, 2 * n), 3 * bernoulli(2 * n + 2) + bernoulli(2 * n)),
            (ext_bernoulli_closed(3, 2 * n + 1), 3 * bernoulli(2 * n + 2)),
            (ext_bernoulli_closed(4, 2 * n), 6 * bernoulli(2 * n + 2) + bernoulli(2 * n)),
            (ext_bernoulli_closed(4, 2 * n + 1), 4 * bernoulli(2 * n + 4) + 4 * bernoulli(2 * n + 2)),
            (ext_bernoulli_closed(5, 2 * n), 5 * bernoulli(2 * n + 4) + 10 * bernoulli(2 * n + 2) + bernoulli(2 * n)),
            (ext_bernoulli_closed(5, 2 * n + 1), 10 * bernoulli(2 * n + 4) + 5 * bernoulli(2 * n + 2)),
            (ext_bernoulli_closed(6, 2 * n), 15 * bernoulli(2 * n + 4) + 15 * bernoulli(2 * n + 2) + bernoulli(2 * n)),
            (ext_bernoulli_closed(6, 2 * n + 1), 6 * bernoulli(2 * n + 6) + 20 * bernoulli(2 * n + 4) + 6 * bernoulli(2 * n + 2)),
        ]
        for got, wanted in checks:
            if got != wanted:
                return False, f"closed-form family fails at n={n}"
    # mirrored-basis rebuild: C'[n,m] = -C[m,n] makes the two expansions equal
    for m in range(1, 9):
        for n in range(1, 10 - m):
            if ext_bernoulli_prime(n, m) != -ext_bernoulli_recursive(m, n):
                return False, f"mirrored rebuild fails at ({m},{n})"
    # h / h~ extraction round trips on random parameter draws
    rng = random.Random(11)
    for trial in range(3):
        beta = {}
        bt = {}
        for n in range(3, 7):
            for k in range(1, n // 3 + 1):
                beta[(n, k)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        for n in range(0, 5):
            for k in range(0, n // 3 + 1):
                bt[(n, k)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        f = hexagon.build_f(hexagon.ParamSet(beta, bt), 10)
        h = hexagon.extract_h(f)
        if not hexagon.hexagon_symmetry_suite(h):
            return False, f"h symmetries fail on draw {trial}"
        if h.set_mu_zero() != standard_series("two_x_over_sinh2x", h.order):
            return False, f"h boundary value fails on draw {trial}"
        ht = hexagon.extract_h_tilde(f)
        if not hexagon.hexagon_symmetry_suite(ht):
            return False, f"h~ symmetries fail on draw {trial}"
        # decomposition round trip
        for series in (h, ht):
            coeffs = hexagon.decompose_symmetric_series(series.truncate(8))
            rebuilt = BiSeries(QQ, {}, 8)
            for dd, cs in coeffs.items():
                rebuilt = rebuilt + hexagon.associator_polynomial(dd, cs).pad(8)
            if rebuilt != series.truncate(8):
                return False, f"decomposition round trip fails on draw {trial}"
        # edge coefficients of the odd part match the sinh-weighted tilde spine
        for n in range(0, 4):
            got = f.coeff(2 * n + 1, 0)
            want = sum(
                bt.get((j, 0), Fraction(0)) * Fraction(1, factorial(2 * (n - j) + 1))
                for j in range(0, n + 1)
            )
            if got != want:
                return False, f"odd edge bridge fails at degree {2 * n + 1}"
    return True, "scalar identities, closed forms, mirrored table, extraction round trips all exact"


CHECKS = [
    ("table-c", check_table_c),
    ("c-series", check_c_series),
    ("cbh", check_cbh),
    ("hexagon-families", check_hexagon_families),
    ("extreme-diagonal", check_extreme_diagonal),
    ("solver", check_solver),
    ("pentagon", check_pentagon),
    ("section5", check_section5),
    ("l3-dimensions", check_l3_dimensions),
    ("zeta", check_zeta),
    ("property-suites", check_property_suites),
]


def run_check(name: str, **kwargs) -> tuple:
    for n, fn in CHECKS:
        if n == name:
            return fn(**kwargs)
    raise KeyError(name)
