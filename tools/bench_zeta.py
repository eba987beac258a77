"""Time the zeta-symbol path stage by stage, each repeat in a fresh interpreter.

    python3 tools/bench_zeta.py --parent ../parent/src --change src --out BENCH.json

Stages, in the order the ``zeta-series`` workload runs them, at degree 16
(the workload's) and again at degree 24: ``drinfeld_f(N)``, its
``residual_15b`` and ``split_residuals``, ``solve_betas_in_theta(N)`` and
the ``build_f`` rebuild from those parameters; a stage is named
``<stage>.<N>``.  ``bench_harness`` runs the two checkouts' repeats
alternately, each in a new interpreter, and writes each one's stage medians
into its column of ``--out``; the digests it compares and records are the
sha256 of the drinfeld and rebuilt series and of the parameters'
``to_json()`` at each degree.
"""

from __future__ import annotations

import sys

from bench_harness import main

DEGREES = "16,24"

CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from cassoc import hexagon, zeta
times = {}
digests = {}

def timed(name, fn):
    t0 = time.perf_counter()
    out = fn()
    times[name] = time.perf_counter() - t0
    return out

def digest(series):
    return hashlib.sha256(json.dumps(series.to_records()).encode()).hexdigest()

for N in map(int, sys.argv[2].split(",")):
    fd = timed(f"drinfeld_f.{N}", lambda: zeta.drinfeld_f(N))
    timed(f"residual_15b.{N}", lambda: hexagon.residual_15b(fd))
    timed(f"split_residuals.{N}", lambda: hexagon.split_residuals(fd))
    params = timed(f"solve_betas_in_theta.{N}", lambda: zeta.solve_betas_in_theta(N))
    built = timed(f"build_f.{N}", lambda: hexagon.build_f(params, N))
    digests[f"drinfeld.{N}"], digests[f"build_f.{N}"] = digest(fd), digest(built)
    digests[f"solve_betas_in_theta.{N}"] = hashlib.sha256(params.to_json().encode()).hexdigest()
print(json.dumps({"times": times, "sha256": digests}))
"""


if __name__ == "__main__":
    sys.exit(main(__doc__, CHILD, {"degrees": DEGREES}))
