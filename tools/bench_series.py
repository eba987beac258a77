"""Time the series kernels and the hexagon-solve stages, each repeat in a fresh interpreter.

    python3 tools/bench_series.py --parent ../parent/src --change src --out BENCH.json

Kernel stages, each the time of 20 calls, the fastest of 5 such batches,
since one call takes only 1-3 ms and a cold one is noisy: over QQ at order
16, the product ``c_generating_closed(16) * family_I(16)``, the sum
``c_generating_closed(16) + family_I(16)``,
``family_I(16).substitute_linear(_SUB_MU_RHO)``, ``exp_linear(1, 1, 16)``
and ``compose`` as the ``sqrt`` of sinhc(lam+mu) sinhc(lam) sinhc(mu); over
the theta ring, the sum ``drinfeld_s(18) + drinfeld_s(18).exp()`` and
``compose`` as ``exp`` of ``drinfeld_s(18)``; and the series in lam alone:
``as_biseries`` of ``x_over_expm1(16)`` at lam + mu (built from its list of
coefficients), and the ``diagonal`` f(lam, -lam) of ``family_I(16)`` and of
``drinfeld_f(16)``.  Building a series from its
coefficients gates every value and clears the denominators, a cost that
every operand pays, so each call builds its operands by the constructor
inside the clock, from coefficient dicts copied once outside it.
Then the stages of the ``hexagon-solve`` workload at degree 16:
``solve_degreewise(16)``; for families I, II, III and a fixed-seed rational
ParamSet, ``residual_15b``, ``residual_39``, ``split_residuals`` and
``model_hexagon_check`` (each stage summed over the four); and ``build_f`` of
that ParamSet.  Then ``solve_degreewise`` at degrees 20 and 24.  Last, the
three CBH paths as kernel stages: ``associative_log_oracle(8)``,
``compressed_cbh(16)`` and ``classical_cbh_in_model(16)``, warm from the
second call on, since the Bernoulli tables are cached per process.  A
result in lam alone is digested as the records of its ``as_biseries((1, 0))``,
so a checkout whose restrictions return another type digests it alike.
``bench_harness`` runs the two checkouts' repeats alternately, each in a new
interpreter, and writes each one's stage medians into its column of
``--out``; the digests it compares and records are the sha256 of every
stage's output.
"""

from __future__ import annotations

import sys

from bench_harness import main

DEGREE = 16
KERNEL_CALLS = 20
KERNEL_BATCHES = 5
SOLVER_DEGREES = "20,24"

CHILD = """
import hashlib, json, random, sys, time
from fractions import Fraction
from math import factorial
sys.path.insert(0, sys.argv[1])
from cassoc import cbh, exact, hexagon, series, zeta
N, calls, batches = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
times = {}
outputs = []

def timed(name, fn):
    t0 = time.perf_counter()
    out = fn()
    times[name] = times.get(name, 0.0) + time.perf_counter() - t0
    outputs.append((name, out))
    return out

def timed_kernel(name, op, *operands):
    sources = [(x.ring, dict(x.coeffs), x.order) for x in operands]
    def call():
        return op(*[series.BiSeries(*source) for source in sources])
    def batch():
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        return time.perf_counter() - t0
    times[name] = min(batch() for _ in range(batches))
    outputs.append((name, call()))

def text(x):
    if isinstance(x, series.UniSeries):
        x = x.as_biseries((1, 0))
    if isinstance(x, series.BiSeries):
        return json.dumps(x.to_records())
    if isinstance(x, cbh.ModelElement):
        return repr((x.x, x.y, x.s, x.records()))
    if isinstance(x, tuple):
        return "(" + ",".join(text(v) for v in x) + ")"
    return repr(x)

rng = random.Random(12)
params = hexagon.ParamSet(
    {(n, k): Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for n in range(3, 10) for k in range(1, n // 3 + 1)},
    {(n, k): Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for n in range(0, 8) for k in range(0, n // 3 + 1)},
)
c = series.standard_series("c_generating_closed", N)
f1 = hexagon.family_I(N)
sinhc = series.standard_series("sinhc", N)
sinhc3 = sinhc.as_biseries((1, 1), N) * sinhc.as_biseries((1, 0), N) * sinhc.as_biseries((0, 1), N)
s18 = zeta.drinfeld_s(N + 2)
timed_kernel("mul", lambda x, y: x * y, c, f1)
timed_kernel("add", lambda x, y: x + y, c, f1)
timed_kernel("substitute_linear", lambda x: x.substitute_linear(hexagon._SUB_MU_RHO), f1)
timed_kernel("exp_linear", lambda: series.exp_linear(1, 1, N))
timed_kernel("compose.sqrt", lambda x: x.sqrt(), sinhc3)
timed_kernel("add.theta", lambda x, y: x + y, s18, s18.exp())
timed_kernel("compose.exp.theta", lambda x: x.exp(), s18)
x_over = [Fraction(exact.bernoulli(n), factorial(n)) for n in range(N + 1)]
timed_kernel("as_biseries", lambda: series.UniSeries(series.QQ, x_over, N).as_biseries((1, 1), N))
timed_kernel("diagonal", lambda x: x.diagonal(), f1)
timed_kernel("diagonal.theta", lambda x: x.diagonal(), zeta.drinfeld_f(N))
timed("solve_degreewise", lambda: hexagon.solve_degreewise(N))
families = [f1, hexagon.family_II(N), hexagon.family_III(N), timed("build_f", lambda: hexagon.build_f(params, N))]
for f in families:
    timed("residual_15b", lambda: hexagon.residual_15b(f))
    timed("residual_39", lambda: hexagon.residual_39(f))
    timed("split_residuals", lambda: hexagon.split_residuals(f))
    timed("model_hexagon_check", lambda: hexagon.model_hexagon_check(hexagon.AlphaTable.from_series(f), N + 2))
for n in map(int, sys.argv[5].split(",")):
    timed(f"solve_degreewise.{n}", lambda: hexagon.solve_degreewise(n))
timed_kernel("cbh.oracle.8", lambda: cbh.associative_log_oracle(8))
timed_kernel("cbh.compressed", lambda: cbh.compressed_cbh(N))
timed_kernel("cbh.classical", lambda: cbh.classical_cbh_in_model(N))
digests = {}
for name, out in outputs:
    digests.setdefault(name, hashlib.sha256()).update(text(out).encode())
print(json.dumps({"times": times, "sha256": {name: h.hexdigest() for name, h in digests.items()}}))
"""


if __name__ == "__main__":
    sys.exit(main(__doc__, CHILD, {
        "degree": DEGREE,
        "kernel_calls": KERNEL_CALLS,
        "kernel_batches": KERNEL_BATCHES,
        "solver_degrees": SOLVER_DEGREES,
    }))
