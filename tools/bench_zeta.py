"""Time the zeta-symbol path stage by stage, each repeat in a fresh interpreter.

    python3 tools/bench_zeta.py --src src --column change --out BENCH.json
    python3 tools/bench_zeta.py --src ../parent/src --column parent --out BENCH.json

Stages, in the order the ``zeta-series`` workload runs them at degree 16:
``drinfeld_f(16)``, its ``residual_15b`` and ``split_residuals``,
``solve_betas_in_theta(16)`` and the ``build_f`` rebuild from those
parameters.  ``bench_harness`` runs the repeats, each in a new interpreter,
and writes the stage medians into one column of ``--out``; the digests it
compares and records are the sha256 of the drinfeld and rebuilt series.
"""

from __future__ import annotations

import sys

from bench_harness import main

DEGREE = 16

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


if __name__ == "__main__":
    sys.exit(main(__doc__, CHILD, {"degree": DEGREE}))
