"""Time the pentagon-check path stage by stage, each repeat in a fresh interpreter.

    python3 tools/bench_pentagon.py --src src --column change --out BENCH.json
    python3 tools/bench_pentagon.py --src ../parent/src --column parent --out BENCH.json

Stages, in order: ``QuotientReducer.dimension(d)``, d = 1..10, on fresh
L4bar and L3bar reducers, what ``cassoc pentagon dims --degree 10`` computes
for both variants (``dims_10``); the cold L4bar echelon build to letter
degree 8 (``build_d8``);
the five ladders of ``pentagon._PENTAGON`` to degree 8 (``ladders``: the
ladder cache where the checkout has one, else the five ``_ladder`` calls);
one ``pentagon_residual`` of a seeded asymmetric table (``residual``) and its
``reduce`` (``reduce``); ``pentagon_check`` at degree 8 on family I and 24
seeded tables, 12 symmetric and 12 with one asymmetric coefficient changed
(``checks_25``); the L4bar build of degrees 9 and 10 (``build_d9_d10``);
``pentagon_columns(10)`` (``columns_10``); and the echelon builds of degrees
11 and 12, whose non-pivot column counts must equal ``dimension(d)``, else the
run fails (``oracle_d11_d12``).  The builds call ``QuotientReducer._build``,
so they time the echelon in any checkout.  ``bench_harness`` runs the
repeats, each in a new interpreter that pays the cold build, and writes the
stage medians into one column of ``--out``; the digest it compares and
records is the sha256 of every output (the dimensions, the reduced residual,
the 25 check results and the columns).
"""

from __future__ import annotations

import sys

from bench_harness import main

DEGREE = 8
COLUMNS_DEGREE = 10
SEED = 11

CHILD = """
import hashlib, json, random, sys, time
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
from cassoc import hexagon, pentagon
N, NC, seed = (int(a) for a in sys.argv[2:5])
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

def text(coords):
    return sorted((key, str(c)) for key, c in coords.items())

rng = random.Random(seed)
order = N - 2
tables = [hexagon.AlphaTable.from_series(hexagon.family_I(order))]
for _ in range(12):
    sym = symmetric(rng, order)
    bad = dict(sym)
    k = rng.randint(0, (order - 1) // 2)
    bad[k, rng.randint(k + 1, order - k)] += Fraction(1, rng.randint(1, 5))
    tables += [hexagon.AlphaTable(sym, order), hexagon.AlphaTable(bad, order)]
asym = hexagon.AlphaTable(
    {(k, l): rational(rng) for k in range(order + 1) for l in range(order + 1 - k)}, order)

def fresh_dims():
    fresh = (pentagon.QuotientReducer(pentagon.L4_MODEL, pentagon._l4_relations()),
             pentagon.QuotientReducer(pentagon.L3_MODEL, pentagon._l3_relations()))
    return [[r.dimension(d) for d in range(1, NC + 1)] for r in fresh]

def oracle():
    dims = {}
    for d in (NC + 1, NC + 2):
        red._build(d)
        dims[d] = (red.dimension(d), len(red._keys[d]) - len(red._rows[d]))
        if dims[d][0] != dims[d][1]:
            raise SystemExit(f"degree {d}: dimension {dims[d][0]} != echelon {dims[d][1]}")
    return dims

dims = timed("dims_10", fresh_dims)
red = pentagon.l4_reducer()
timed("build_d8", lambda: [red._build(d) for d in range(2, N + 1)])
cache = getattr(pentagon, "_pentagon_ladders", None)
timed("ladders", lambda: cache(N) if cache else [pentagon._ladder(u, w, N) for _, u, w in pentagon._PENTAGON])
residual = timed("residual", lambda: pentagon.pentagon_residual(asym, N))
reduced = timed("reduce", lambda: red.reduce(residual))
norms = timed("checks_25", lambda: [pentagon.pentagon_check(t, N) for t in tables])
timed("build_d9_d10", lambda: [red._build(d) for d in range(N + 1, NC + 1)])
columns = timed("columns_10", lambda: pentagon.pentagon_columns(NC))
oracle_dims = timed("oracle_d11_d12", oracle)
outputs = repr([
    dims,
    oracle_dims,
    sorted((d, text(part)) for d, part in reduced.items()),
    norms,
    [[text(col) for col in columns[d]] for d in sorted(columns)],
])
print(json.dumps({"times": times, "outputs_sha256": hashlib.sha256(outputs.encode()).hexdigest()}))
"""


if __name__ == "__main__":
    sys.exit(main(__doc__, CHILD, {"degree": DEGREE, "columns_degree": COLUMNS_DEGREE, "seed": SEED}))
