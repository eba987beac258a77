"""Benchmark for cassoc: four workloads, each run in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (inputs at the CLI's maximum
degrees; see ``BENCHMARK.json`` for why each one is there):

* ``quotient-build``  cold ``QuotientReducer.dimension(d)``, d = 1..10, on
  L4bar and then L3bar (``cassoc pentagon dims --degree 10``, both variants).
* ``pentagon-check``  cold L4bar build to degree 8, then ``pentagon_check`` at
  degree 8 on family I, on K seeded symmetric tables (residual zero) and on K
  single-coefficient asymmetric perturbations (residual nonzero).
* ``hexagon-solve``   ``solve_degreewise(16)``; families I/II/III and a seeded
  custom ParamSet through every hexagon residual; the CBH paths.
* ``zeta-series``     ``drinfeld_f(16)`` and its residuals over ThetaPoly
  coefficients, ``solve_betas_in_theta(16)`` and the rebuild cross-check.

Every workload process is a fresh interpreter, started one at a time with
no worker threads, because cassoc's module-level caches (Bernoulli tables,
the quotient reducers) would make any in-process repeat warm, and a CLI user
pays the cold cost on every call.  The run starts SETUP_PROBES set-up-only
processes, then at least MIN_PROCESSES workload processes, and more until the
next one would likely end after ``--seconds`` (on pentagon-check, also until
CHECK_SAMPLES table checks are in).

Every output is checked exactly; a failed operation is counted and the run
goes on.  ``correct`` is false when any failure is not the documented seed
defect (see ``worker.zeta_series``); a process that dies ends the run with
status 1 and no result, and if cassoc's sources are missing from ``src/``
the run exits with status 2 and prints no result.  The meta line carries a
digest of the exact outputs (a list if processes disagreed), so an output
change across commits is visible; it is reported, not gated.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``      interpreter start to cassoc imported and inputs built,
                   median over every process of the run;
* ``run_s``        wall time of the workload's operations in one process;
* ``cpu_s``        user + system CPU time of that whole process;
* ``peak_rss_mb``  its peak resident memory;
* ``ok_ratio``     checked operations that passed over those attempted
                   (1 - failed_ratio, which can be 0 and so is not a metric).

On pentagon-check the run also pools at least CHECK_SAMPLES per-table check
latencies from its untraced processes and prints their median and p90 (ten
or more samples beyond it) with the sample count.  Every workload must
report every end-to-end metric and only pentagon-check has alike checks, so
these two are per-layer metrics, ``pentagon.check_p50_s`` and
``pentagon.check_tail_s``, in the last line of a traced run.

``run_s``, ``cpu_s`` and ``peak_rss_mb`` are medians over the processes.
On a shared host the speed of a core drifts (on a 2-vCPU VM, identical
processes took from 2.2 s to 5.7 s within an hour), so the meta line carries
what tells such drift apart from a change in cassoc: nproc, Python version,
load average at the start, and the median time of a fixed Fraction loop run
in each workload process.

With ``--trace 1`` untraced and traced processes alternate and the last line
reports the per-layer metrics of the traced ones (medians), plus the traced
and untraced ``run_s`` and their difference, the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("quotient-build", "pentagon-check", "hexagon-solve", "zeta-series")
SETUP_PROBES = 15  # set-up-only processes per run
MIN_PROCESSES = 2  # untraced workload processes per run, at least
CHECK_SAMPLES = 100  # pentagon-check table checks per run, 25 per process
TAIL = 90  # with CHECK_SAMPLES samples, p90 has ten beyond it
DEADLINE_S = 170.0  # start no process that would likely end after this


class BenchError(Exception):
    pass


def percentile(values: list, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def spawn(workload: str, seed: int, traced: bool = False, setup_only: bool = False, timeout: float = 170.0) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["wall_s"] = time.monotonic() - start
    return result


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    begin = time.monotonic()
    probes = [spawn(workload, seed, setup_only=True) for _ in range(SETUP_PROBES)]
    procs: list = []
    while True:
        for traced in (False, True) if trace else (False,):
            left = DEADLINE_S - (time.monotonic() - begin)
            procs.append(spawn(workload, seed, traced=traced, timeout=left))
        elapsed = time.monotonic() - begin
        plain = [p for p in procs if "layers" not in p]
        samples = sum(op["sampled"] for p in plain for op in p["ops"])
        enough = len(plain) >= MIN_PROCESSES and (workload != "pentagon-check" or samples >= CHECK_SAMPLES)
        # the next process (pair, when tracing) likely takes as long as the last
        step = sum(p["wall_s"] for p in procs[-2 if trace else -1:])
        if enough and elapsed + step > seconds:
            break
        if elapsed + step > DEADLINE_S:
            break
    return probes, procs


def summarize(workload: str, probes: list, procs: list, trace: bool) -> tuple:
    plain = [p for p in procs if "layers" not in p]
    traced = [p for p in procs if "layers" in p]
    ops = [op for p in procs for op in p["ops"]]
    failures = [op for op in ops if op["problem"]]
    unexpected = [op for op in failures if not op["known_defect"]]
    digests = sorted({p["digest"] for p in procs})
    setups = [p["setup_s"] for p in probes + procs]
    samples = [op["seconds"] for p in plain for op in p["ops"] if op["sampled"]]
    median = statistics.median
    metrics = {
        "setup_s": median(setups),
        "run_s": median(p["run_s"] for p in plain),
        "cpu_s": median(p["cpu_s"] for p in plain),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        "ok_ratio": (len(ops) - len(failures)) / len(ops),
    }
    checks = {}
    if samples:
        checks = {"pentagon.check_p50_s": median(samples), "pentagon.check_tail_s": percentile(samples, TAIL)}
    if trace:
        names = sorted({k for p in traced for k in p["layers"]})
        layers = {k: median(p["layers"].get(k, 0) for p in traced) for k in names}
        traced_run = median(p["run_s"] for p in traced)
        layers["trace.run_s"] = traced_run
        layers["trace.untraced_run_s"] = metrics["run_s"]
        layers["trace.overhead_s"] = traced_run - metrics["run_s"]
        metrics = {**layers, **checks}
    meta = {
        "workload": workload,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "processes": len(procs),
        "traced_processes": len(traced),
        "setups": len(setups),
        "checks": {**checks, "samples": len(samples), "tail_percentile": TAIL} if samples else {},
        "fraction_ref_s": median(p["fraction_ref_s"] for p in procs),
        "digest": digests[0] if len(digests) == 1 else digests,
        "failures": sorted({f"{op['name']}: {op['problem']}" for op in failures}),
        "known_defects": sorted({op["name"] for op in failures if op["known_defect"]}),
    }
    return not unexpected, len(ops), len(failures), metrics, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cassoc", "__init__.py")):
        print(f"error: no cassoc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    load = os.getloadavg()
    try:
        probes, procs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct, attempted, failed, values, meta = summarize(args.workload, probes, procs, bool(args.trace))
    meta["seed"] = args.seed
    meta["loadavg_start"] = load
    unlisted = sorted(set(values) - {m["name"] for m in wanted})
    if unlisted:
        print(f"error: metrics missing from BENCHMARK.json: {unlisted}", file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        # a layer the workload never enters reads 0; end-to-end metrics all exist
        value = values.get(m["name"], 0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']}")
    print(f"{'failed_ratio':<44} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    checks = meta["checks"]
    if checks and not args.trace:
        print(f"{'pentagon.check_p50_s':<44} {checks['pentagon.check_p50_s']:>14.6g} s")
        print(f"{'pentagon.check_tail_s':<44} {checks['pentagon.check_tail_s']:>14.6g} s"
              f" (p{TAIL} of {checks['samples']} table checks)")
    print(f"setup_s is the median of {meta['setups']} set-ups")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
