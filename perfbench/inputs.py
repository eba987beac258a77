"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
tables and parameters in every process.  The generators build plain
dictionaries of Fractions; ``worker.py`` wraps them in cassoc types.
"""

from __future__ import annotations

import random
from fractions import Fraction

PENTAGON_DEGREE = 8  # letter degree of the pentagon checks (alpha order 6)
PENTAGON_TABLES = 12  # K: symmetric tables, and as many perturbed ones
SERIES_DEGREE = 16  # the CLI's maximum series degree
QUOTIENT_DEGREE = 10  # the CLI's maximum pentagon degree


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 9))


def symmetric_table(rng: random.Random, order: int) -> dict:
    """A random symmetric alpha table {(k, l): Fraction} with k + l <= order."""
    coeffs = {}
    for k in range(order + 1):
        for l in range(k, order + 1 - k):
            v = _rational(rng)
            coeffs[(k, l)] = v
            coeffs[(l, k)] = v
    return coeffs


def perturbation(rng: random.Random, order: int) -> tuple:
    """One asymmetric single-coefficient change ((k, l), delta) with k < l,
    so alpha[k,l] moves and alpha[l,k] does not."""
    k = rng.randint(0, (order - 1) // 2)
    l = rng.randint(k + 1, order - k)
    return (k, l), Fraction(1, rng.randint(1, 5))


def pentagon_inputs(seed: int) -> dict:
    """K symmetric tables and K perturbed copies of them, at PENTAGON_DEGREE."""
    rng = random.Random(seed)
    order = PENTAGON_DEGREE - 2
    symmetric = [symmetric_table(rng, order) for _ in range(PENTAGON_TABLES)]
    perturbed = []
    for table in symmetric:
        (k, l), delta = perturbation(rng, order)
        bad = dict(table)
        bad[(k, l)] += delta
        perturbed.append(((k, l), bad))
    return {"order": order, "symmetric": symmetric, "perturbed": perturbed}


def custom_params(seed: int, degree: int = SERIES_DEGREE) -> tuple:
    """Free parameters of the general hexagon solution that matter through
    ``degree``: beta[n,k] (n >= 3, 1 <= k <= n//3) while 2n <= degree + 2,
    and beta_tilde[n,k] (0 <= k <= n//3) while 2n + 1 <= degree.  About half
    of them are set, to small random rationals."""
    rng = random.Random(seed)
    beta = {}
    beta_tilde = {}
    for n in range(3, (degree + 2) // 2 + 1):
        for k in range(1, n // 3 + 1):
            if rng.random() < 0.5:
                beta[(n, k)] = _rational(rng)
    for n in range(0, (degree - 1) // 2 + 1):
        for k in range(0, n // 3 + 1):
            if rng.random() < 0.5:
                beta_tilde[(n, k)] = _rational(rng)
    return beta, beta_tilde
