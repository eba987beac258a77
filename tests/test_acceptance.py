"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Stated time budgets are asserted where the criterion carries one; the
tolerances are exact (zero) everywhere -- every comparison is in exact
rational (or zeta-polynomial) arithmetic.
"""

import time

from cassoc import verify


def _run(name, criterion, budget=None, **kwargs):
    t0 = time.time()
    ok, detail = verify.run_check(name, **kwargs)
    elapsed = time.time() - t0
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion} [{name}] ({elapsed:.1f}s): {detail}"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_extended_bernoulli_table():
    # all printed two-index entries with m + n <= 12, exactly; < 1 s
    _run("table-c", 1, budget=1.0)


def test_criterion_02_generating_function():
    # every printed coefficient of C(lam, mu) through degree 10, exactly; < 1 s
    _run("c-series", 2, budget=1.0)


def test_criterion_03_cbh():
    # printed Hausdorff coefficients through degree 10; the closed form, the
    # derivation recursion (degree 10) and the associative-log oracle
    # (degree 8) agree; < 60 s for the oracle
    _run("cbh", 3, budget=60.0)


def test_criterion_04_hexagon_families():
    # residuals identically zero: families I/II/III to degree 12, the
    # zeta-symbol series to degree 9, worked low-degree example exact; < 30 s
    _run("hexagon-families", 4, budget=30.0)


def test_criterion_05_extreme_and_diagonal():
    _run("extreme-diagonal", 5)


def test_criterion_06_degreewise_solver():
    _run("solver", 6)


def test_criterion_07_pentagon():
    # at every degree d <= 8 the pentagon map alpha[k, d-2-k] -> L4bar_d
    # kills exactly the symmetric tables (c_{d-2-k} = -c_k, and the first
    # floor((d-1)/2) columns are independent); family I reduces to zero; < 5 min
    _run("pentagon", 7, budget=300.0)


def test_criterion_08_section5_identities():
    _run("section5", 8)


def test_criterion_09_l3_dimensions():
    _run("l3-dimensions", 9)


def test_criterion_10_zeta():
    _run("zeta", 10)


def test_criterion_11_property_suites():
    _run("property-suites", 11)
