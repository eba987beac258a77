"""Time the zeta-symbol path stage by stage, each repeat in a fresh interpreter.

    python3 tools/bench_zeta.py --src src --column change --out BENCH.json
    python3 tools/bench_zeta.py --src ../parent/src --column parent --out BENCH.json

Stages, in the order the ``zeta-series`` workload runs them at degree 16:
``drinfeld_f(16)``, its ``residual_15b`` and ``split_residuals``,
``solve_betas_in_theta(16)`` and the ``build_f`` rebuild from those
parameters.  Each of the REPEATS repeats starts a new interpreter, so each
one pays the cold Bernoulli tables the way a command-line call does.  The
medians of each stage (seconds) go into column ``--column`` of ``--out``;
other columns already in that file are kept, so one file holds a parent and a
change run.  Each column also records the sha256 of the drinfeld and rebuilt
series, so two columns can be seen to compute the same thing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

DEGREE = 16
REPEATS = 5

CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from cassoc import hexagon, zeta
N = int(sys.argv[2])
times = {}

def timed(name, fn):
    t0 = time.perf_counter()
    out = fn()
    times[name] = time.perf_counter() - t0
    return out

def digest(series):
    return hashlib.sha256(json.dumps(series.to_records()).encode()).hexdigest()

fd = timed("drinfeld_f", lambda: zeta.drinfeld_f(N))
timed("residual_15b", lambda: hexagon.residual_15b(fd))
timed("split_residuals", lambda: hexagon.split_residuals(fd))
params = timed("solve_betas_in_theta", lambda: zeta.solve_betas_in_theta(N))
built = timed("build_f", lambda: hexagon.build_f(params, N))
print(json.dumps({"times": times, "drinfeld_sha256": digest(fd), "build_f_sha256": digest(built)}))
"""


def run_once(src: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(DEGREE)], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="the src/ directory of the checkout to time")
    parser.add_argument("--column", required=True, help="name of the column to write, e.g. parent or change")
    parser.add_argument("--out", required=True, help="JSON file to write the column into")
    args = parser.parse_args(argv)

    runs = [run_once(os.path.abspath(args.src)) for _ in range(REPEATS)]
    digests = {(r["drinfeld_sha256"], r["build_f_sha256"]) for r in runs}
    if len(digests) != 1:
        raise SystemExit("repeats disagree on the computed series")
    (drinfeld_sha, build_sha), = digests
    stages = list(runs[0]["times"])
    medians = {s: round(statistics.median(r["times"][s] for r in runs), 4) for s in stages}
    medians["total"] = round(statistics.median(sum(r["times"].values()) for r in runs), 4)
    column = {
        "median_s": medians,
        "repeats": REPEATS,
        "degree": DEGREE,
        "drinfeld_sha256": drinfeld_sha,
        "build_f_sha256": build_sha,
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
