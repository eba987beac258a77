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
so they time the echelon in any checkout.  Each of the REPEATS repeats
starts a new interpreter, so each one pays the cold build the way a
command-line call does.  The medians of each stage (seconds) go into column
``--column`` of ``--out``; other columns already in that file are kept, so
one file holds a parent and a change run.  Each column also records the
sha256 of every output (the dimensions, the reduced residual, the 25 check
results and the columns), so two columns can be seen to compute the same
thing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

DEGREE = 8
COLUMNS_DEGREE = 10
SEED = 11
REPEATS = 5

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
print(json.dumps({"times": times, "sha256": hashlib.sha256(outputs.encode()).hexdigest()}))
"""


def run_once(src: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(DEGREE), str(COLUMNS_DEGREE), str(SEED)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="the src/ directory of the checkout to time")
    parser.add_argument("--column", required=True, help="name of the column to write, e.g. parent or change")
    parser.add_argument("--out", required=True, help="JSON file to write the column into")
    args = parser.parse_args(argv)

    runs = [run_once(os.path.abspath(args.src)) for _ in range(REPEATS)]
    digests = {r["sha256"] for r in runs}
    if len(digests) != 1:
        raise SystemExit("repeats disagree on the computed outputs")
    (digest,) = digests
    stages = list(runs[0]["times"])
    medians = {s: round(statistics.median(r["times"][s] for r in runs), 4) for s in stages}
    medians["total"] = round(statistics.median(sum(r["times"].values()) for r in runs), 4)
    column = {
        "median_s": medians,
        "repeats": REPEATS,
        "degree": DEGREE,
        "columns_degree": COLUMNS_DEGREE,
        "seed": SEED,
        "outputs_sha256": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("columns", {})[args.column] = column
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({args.column: medians}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
