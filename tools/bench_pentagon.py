"""Time the pentagon-check path stage by stage, each repeat in a fresh interpreter.

    python3 tools/bench_pentagon.py --parent ../parent/src --change src --out BENCH.json

Path stages, in order of their first run: ``QuotientReducer.dimension(d)``,
d = 1..10, on fresh L4bar and L3bar reducers, what ``cassoc pentagon dims
--degree 10`` computes for both variants (``dims_10``); the reference
``pentagon_residual`` of a seeded asymmetric table at degree 8
(``residual``) and its ``reduce`` on the cold ``l4_reducer()``
(``reduce``); ``pentagon_check`` on family I and 24 seeded tables, 12
symmetric and 12 with one asymmetric coefficient changed, at letter
degrees 8, 12 and 16 (``checks_25``, ``checks_25_d12``, ``checks_25_d16``);
``pentagon_columns`` at 10, 12 and 16 (``columns_10``, ``columns_12``,
``columns_16``); and last, at each of 8, 12 and 16, one family-I
``pentagon_check`` on a fresh ``l4_reducer()`` whose Groebner basis is
built before the clock starts, so its normal-form memo is empty
(``check_cold_d8`` ...), and the same check again (``check_warm_d8`` ...).

Oracle stages time the per-degree row echelon of the relation rows on a
reducer of its own: its build to degree 8 (``build_d8``), of degrees 9 and
10 (``build_d9_d10``), and of degrees 11 and 12, whose non-pivot column
counts must equal ``dimension(d)``, else the run fails (``oracle_d11_d12``).
The echelon is ``EchelonReducer`` from ``tests/echelon_oracle.py`` beside
the checkout's ``src/``.  ``bench_harness`` runs the two
checkouts' repeats alternately, each in a new interpreter that pays every
cold build, and writes each one's stage medians into its column of
``--out``.  The digest it compares and records covers only outputs that no
choice of coordinates changes: the dimensions, the degrees where the reduced
residual and each check are nonzero, and, per degree of each columns stage,
whether c_{d-2-k} = -c_k for every k and the rank of the first
floor((d-1)/2) columns.  So checkouts that reduce to different coordinates
still record one digest.
"""

from __future__ import annotations

import sys

from bench_harness import main

DEGREE = 8
COLUMNS_DEGREE = 10
SEED = 11
HIGH_DEGREES = "12,16"

CHILD = """
import hashlib, json, os, random, sys, time
from fractions import Fraction
src = sys.argv[1]
sys.path.insert(0, src)
from cassoc import hexagon, linalg, pentagon
N, NC, seed = (int(a) for a in sys.argv[2:5])
high = [int(a) for a in sys.argv[5].split(",")]
sys.path.insert(0, os.path.join(os.path.dirname(src), "tests"))
from echelon_oracle import EchelonReducer as Echelon
times = {}

def timed(name, fn):
    t0 = time.perf_counter()
    out = fn()
    times[name] = time.perf_counter() - t0
    return out

def rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 9))

def symmetric(rng, order):
    coeffs = {}
    for k in range(order + 1):
        for l in range(k, order + 1 - k):
            coeffs[k, l] = coeffs[l, k] = rational(rng)
    return coeffs

def tables(rng, order):
    out = [hexagon.AlphaTable.from_series(hexagon.family_I(order))]
    for _ in range(12):
        sym = symmetric(rng, order)
        bad = dict(sym)
        k = rng.randint(0, (order - 1) // 2)
        bad[k, rng.randint(k + 1, order - k)] += Fraction(1, rng.randint(1, 5))
        out += [hexagon.AlphaTable(sym, order), hexagon.AlphaTable(bad, order)]
    return out

def checks(degree, tabs):
    return [sorted(d for d, n in pentagon.pentagon_check(t, degree).items() if n) for t in tabs]

def criterion_7(columns):
    out = []
    for d, cols in sorted(columns.items()):
        antisymmetric = all(cols[d - 2 - k] == {key: -c for key, c in col.items()} for k, col in enumerate(cols))
        half = (d - 1) // 2
        keys = sorted({key for col in cols[:half] for key in col})
        _, pivots = linalg.rref([[col.get(key, 0) for key in keys] for col in cols[:half]])
        out.append((d, antisymmetric, len(pivots)))
    return out

rng = random.Random(seed)
tabs = tables(rng, N - 2)
asym = hexagon.AlphaTable(
    {(k, l): rational(rng) for k in range(N - 1) for l in range(N - 1 - k)}, N - 2)
high_tabs = {n: tables(rng, n - 2) for n in high}

def fresh_dims():
    fresh = (pentagon.QuotientReducer(pentagon.L4_MODEL, pentagon._l4_relations()),
             pentagon.QuotientReducer(pentagon.L3_MODEL, pentagon._l3_relations()))
    return [[r.dimension(d) for d in range(1, NC + 1)] for r in fresh]

echelon = Echelon(pentagon.L4_MODEL, pentagon._l4_relations())

def oracle():
    dims = {}
    for d in (NC + 1, NC + 2):
        echelon._build(d)
        dims[d] = (red.dimension(d), len(echelon._keys[d]) - len(echelon._rows[d]))
        if dims[d][0] != dims[d][1]:
            raise SystemExit(f"degree {d}: dimension {dims[d][0]} != echelon {dims[d][1]}")
    return dims

dims = timed("dims_10", fresh_dims)
red = pentagon.l4_reducer()
timed("build_d8", lambda: [echelon._build(d) for d in range(2, N + 1)])
residual = timed("residual", lambda: pentagon.pentagon_residual(asym, N))
reduced = timed("reduce", lambda: red.reduce(residual))
outputs = [dims, sorted(reduced), timed("checks_25", lambda: checks(N, tabs))]
timed("build_d9_d10", lambda: [echelon._build(d) for d in range(N + 1, NC + 1)])
outputs.append(criterion_7(timed("columns_10", lambda: pentagon.pentagon_columns(NC))))
outputs.append(timed("oracle_d11_d12", oracle))
for n in high:
    outputs.append(timed(f"checks_25_d{n}", lambda: checks(n, high_tabs[n])))
    outputs.append(criterion_7(timed(f"columns_{n}", lambda: pentagon.pentagon_columns(n))))
for n in [N] + high:
    family = hexagon.AlphaTable.from_series(hexagon.family_I(n - 2))
    pentagon._L4_REDUCER = None
    pentagon.l4_reducer().dimension(2)  # builds the Groebner basis
    for stage in ("cold", "warm"):
        outputs.append(timed(f"check_{stage}_d{n}", lambda: checks(n, [family])))
print(json.dumps({"times": times, "outputs_sha256": hashlib.sha256(repr(outputs).encode()).hexdigest()}))
"""


if __name__ == "__main__":
    sys.exit(main(__doc__, CHILD, {
        "degree": DEGREE, "columns_degree": COLUMNS_DEGREE, "seed": SEED, "high_degrees": HIGH_DEGREES,
    }))
