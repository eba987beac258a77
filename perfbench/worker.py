"""One workload in one fresh interpreter; prints one JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

The process imports cassoc from ``src/`` beside this directory, builds the
seeded inputs and stamps ``ready`` (CLOCK_MONOTONIC, comparable with the
parent's clock).  With ``--setup-only`` it stops there.  Otherwise it runs
the workload's operations, checking each output against an exact expected
value: an exception or an inexact output is a failed operation, and the run
goes on.  ``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

import inputs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import cassoc  # noqa: E402
from cassoc import cbh, exact, hexagon, linalg, pentagon, series, zeta  # noqa: E402

_clock = time.perf_counter


class KnownDefect(str):
    """A failed check that matches a documented seed defect exactly."""


class Recorder:
    """Runs checked operations; keeps (name, seconds, sampled, problem, output).

    ``sampled`` marks the alike operations whose latencies are pooled into
    pentagon.check_p50_s and pentagon.check_tail_s: pentagon-check's tables.
    """

    def __init__(self):
        self.ops: list = []

    def op(self, name: str, compute, verify, sampled: bool = False):
        start = _clock()
        try:
            out = compute()
            seconds = _clock() - start
            problem = verify(out)
        except Exception as exc:  # a failed operation is counted, not fatal
            seconds = _clock() - start
            out = None
            problem = f"{type(exc).__name__}: {exc}"
        self.ops.append((name, seconds, sampled, problem, out))
        return out


def _equal(want):
    return lambda got: None if got == want else f"got {got!r}, want {want!r}"


def _zero(f):
    return None if f.is_zero() else f"nonzero at {sorted(f.coeffs)[:4]}"


def _all_zero(parts):
    bad = [i for i, s in enumerate(parts) if not s.is_zero()]
    return f"parts {bad} nonzero" if bad else None


def _true(got):
    return None if got is True else f"got {got!r}"


# -- workloads ------------------------------------------------------------------------


def l4_dimension(d: int) -> int:
    """L4bar: the six letters, 4 at degree 2, then exactly 5(d-1)."""
    return 6 if d == 1 else 4 if d == 2 else 5 * (d - 1)


def l3_dimension(d: int) -> int:
    return 3 if d == 1 else d - 1


def quotient_build(rec: Recorder, inp) -> None:
    """Cold dimensions of L4bar, then L3bar, for degrees 1..QUOTIENT_DEGREE."""
    for variant, reducer, want in (
        ("L4", pentagon.l4_reducer, l4_dimension),
        ("L3", pentagon.l3_reducer, l3_dimension),
    ):
        for d in range(1, inputs.QUOTIENT_DEGREE + 1):
            rec.op(f"dims.{variant}.d{d}", lambda d=d, r=reducer: r().dimension(d), _equal(want(d)))


def pentagon_check(rec: Recorder, inp) -> None:
    """Cold L4bar build to PENTAGON_DEGREE, then one pentagon check per table."""
    N = inputs.PENTAGON_DEGREE
    for d in range(1, N + 1):
        rec.op(f"dims.L4.d{d}", lambda d=d: pentagon.l4_reducer().dimension(d), _equal(l4_dimension(d)))
    zeros = {d: 0 for d in range(2, N + 1)}
    edges = [Fraction(1, 6), Fraction(-1, 90), Fraction(1, 945), Fraction(-1, 9450)]

    def edges_ok(table):
        got = [table.coeff(2 * k, 0) for k in range(len(edges))]
        return None if got == edges else f"edge coefficients {got}"

    fam = rec.op("family_I", lambda: hexagon.AlphaTable.from_series(hexagon.family_I(N - 2)), edges_ok)
    rec.op("pentagon.family_I", lambda: pentagon.pentagon_check(fam, N), _equal(zeros), True)
    for i, table in enumerate(inp["symmetric"]):
        rec.op(f"pentagon.sym{i}", lambda t=table: pentagon.pentagon_check(t, N), _equal(zeros), True)
    for i, ((k, l), table) in enumerate(inp["perturbed"]):
        # the residual is linear in alpha and vanishes on the symmetric part,
        # so a change at alpha[k,l] shows at letter degree k + l + 2 only
        def nonzero_at(norms, deg=k + l + 2):
            where = sorted(d for d, n in norms.items() if n)
            return None if where == [deg] else f"nonzero at degrees {where}, want [{deg}]"

        rec.op(f"pentagon.perturbed{i}", lambda t=table: pentagon.pentagon_check(t, N), nonzero_at, True)


def hexagon_solve(rec: Recorder, inp) -> None:
    """Degreewise solve, four solution families through every residual, CBH."""
    N = inputs.SERIES_DEGREE

    def census(report):
        bad = [e["degree"] for e in report["degrees"] if e["dimension"] != e["census"]]
        return f"dimension != census at degrees {bad}" if bad else None

    rec.op(f"solve_degreewise.{N}", lambda: hexagon.solve_degreewise(N), census)

    def symmetric(f):
        return None if f.order == N and f.is_symmetric() else "not a symmetric series of order N"

    for name, build in (
        ("I", lambda: hexagon.family_I(N)),
        ("II", lambda: hexagon.family_II(N)),
        ("III", lambda: hexagon.family_III(N)),
        ("custom", lambda: hexagon.build_f(inp["params"], N)),
    ):
        f = rec.op(f"{name}.build", build, symmetric)
        rec.op(f"{name}.residual_15b", lambda: hexagon.residual_15b(f), _zero)
        rec.op(f"{name}.residual_39", lambda: hexagon.residual_39(f), _zero)
        rec.op(f"{name}.split_residuals", lambda: hexagon.split_residuals(f), _all_zero)
        rec.op(
            f"{name}.model_hexagon_check",
            lambda: hexagon.model_hexagon_check(hexagon.AlphaTable.from_series(f), N + 2),
            _true,
        )
    def pair_equal(pair):
        return None if pair[0] == pair[1] else "paths disagree"

    rec.op(f"cbh.{N}", lambda: (cbh.compressed_cbh(N), cbh.classical_cbh_in_model(N)), pair_equal)
    rec.op("cbh.oracle.8", lambda: (cbh.associative_log_oracle(8), cbh.compressed_cbh(8)), pair_equal)


def _theta_identities(params) -> str | None:
    """The seven printed parameter identities (beta[3,1] ... beta_tilde[3,1])."""
    r = params.ring
    t3, t5, t7, t9 = (r.generator(n) for n in (3, 5, 7, 9))
    q = r.from_rational
    want = {
        ("beta", 3, 1): t3 * t3 * Fraction(9, 2) - q(Fraction(8, 3 * 5040)),
        ("beta", 4, 1): t3 * t5 * Fraction(15) - t3 * t3 * Fraction(3, 4) + q(Fraction(44, 45 * 5040)),
        ("beta_tilde", 0, 0): t3 * Fraction(-3),
        ("beta_tilde", 1, 0): t5 * Fraction(-5) + t3 * Fraction(1, 2),
        ("beta_tilde", 2, 0): t7 * Fraction(-7) + t5 * Fraction(5, 6) - t3 * Fraction(7, 120),
        ("beta_tilde", 3, 0): t9 * Fraction(-9) + t7 * Fraction(7, 6) - t5 * Fraction(7, 72) + t3 * Fraction(31, 5040),
        ("beta_tilde", 3, 1): t3 * t3 * t3 * Fraction(-9, 2) - t9 * Fraction(3) + t3 * Fraction(1, 630),
    }
    for (kind, n, k), value in want.items():
        if getattr(params, kind).get((n, k)) != value:
            return f"{kind}[{n},{k}] mismatch"
    return None


def zeta_series(rec: Recorder, inp) -> None:
    """The series kernels over ThetaPoly coefficients, at the CLI maximum degree."""
    N = inputs.SERIES_DEGREE

    def drinfeld_ok(fd):
        if not fd.is_symmetric():
            return "asymmetric"
        # setting every odd symbol to zero must give the third family
        f3 = hexagon.family_III(N)
        keys = set(fd.coeffs) | set(f3.coeffs)
        bad = [kl for kl in keys if fd.coeffs.get(kl, fd.ring.zero).odd_to_zero() != f3.coeffs.get(kl, 0)]
        return f"odd-to-zero differs from family III at {sorted(bad)[:4]}" if bad else None

    fd = rec.op(f"drinfeld_f.{N}", lambda: zeta.drinfeld_f(N), drinfeld_ok)
    rec.op("drinfeld.residual_15b", lambda: hexagon.residual_15b(fd), _zero)
    rec.op("drinfeld.split_residuals", lambda: hexagon.split_residuals(fd), _all_zero)
    params = rec.op(f"solve_betas_in_theta.{N}", lambda: zeta.solve_betas_in_theta(N), _theta_identities)

    def rebuilt_ok(pair):
        built, direct = pair
        z = direct.ring.zero
        keys = set(built.coeffs) | set(direct.coeffs)
        degrees = sorted({k + l for k, l in keys if built.coeffs.get((k, l), z) != direct.coeffs.get((k, l), z)})
        if not degrees:
            return None
        message = f"rebuilt series differs at degrees {degrees}"
        # Known seed defect: solve_betas_in_theta(N) truncates h at N + 1,
        # while Even(f) at degree N needs the even family through N + 2, so
        # for even N it loses beta[(N+2)/2, k] and the rebuild differs from
        # drinfeld_f(N) at the top degree N and nowhere else.
        return KnownDefect(message) if N % 2 == 0 and degrees == [N] else message

    rec.op(
        f"rebuild.{N}",
        lambda: (hexagon.build_f(params, N), zeta.drinfeld_f(N, params.ring)),
        rebuilt_ok,
    )


WORKLOADS = {
    "quotient-build": quotient_build,
    "pentagon-check": pentagon_check,
    "hexagon-solve": hexagon_solve,
    "zeta-series": zeta_series,
}


def make_inputs(workload: str, seed: int) -> dict:
    if workload == "pentagon-check":
        raw = inputs.pentagon_inputs(seed)
        table = hexagon.AlphaTable
        return {
            "symmetric": [table(t, raw["order"]) for t in raw["symmetric"]],
            "perturbed": [(kl, table(t, raw["order"])) for kl, t in raw["perturbed"]],
        }
    if workload == "hexagon-solve":
        beta, beta_tilde = inputs.custom_params(seed)
        return {"params": hexagon.ParamSet(beta, beta_tilde)}
    return {}  # quotient-build and zeta-series run at fixed CLI maximum degrees


# -- tracing ---------------------------------------------------------------------------


def trace_targets(extra: dict) -> list:
    """(owner, attribute, span name, observer) for every traced entry point."""
    built = extra.setdefault("build", {})  # (variant, degree) -> seconds
    terms = extra.setdefault("residual_terms", [0, 0])  # [keys, residuals]

    def on_dimension(args, result, seconds):
        reducer, degree = args
        key = ("L4" if reducer.model.n == 6 else "L3", degree)
        if degree >= 2 and key not in built:  # the first call builds the degree
            built[key] = seconds

    def on_residual(args, result, seconds):
        terms[0] += len(result[1])
        terms[1] += 1

    def fn(module, attr, observe=None):
        return (module, attr, f"{module.__name__.split('.')[-1]}.{attr}", observe)

    def method(module, cls, attr, observe=None):
        return (cls, attr, f"{module.__name__.split('.')[-1]}.{cls.__name__}.{attr}", observe)

    return [
        method(pentagon, pentagon.QuotientReducer, "dimension", on_dimension),
        method(pentagon, pentagon.QuotientReducer, "reduce"),
        fn(pentagon, "pentagon_check"),
        fn(pentagon, "pentagon_residual", on_residual),
        fn(pentagon, "phi_bar_eval"),
        fn(hexagon, "solve_degreewise"),
        fn(hexagon, "residual_15b"),
        fn(hexagon, "residual_39"),
        fn(hexagon, "split_residuals"),
        fn(hexagon, "model_hexagon_check"),
        fn(hexagon, "build_f"),
        fn(linalg, "rref"),
        method(series, series.BiSeries, "__mul__"),
        method(series, series.BiSeries, "substitute_linear"),
        method(series, series.BiSeries, "exp"),
        method(series, series.UniSeries, "as_biseries"),
        method(zeta, zeta.ThetaPoly, "__mul__"),
        method(zeta, zeta.ThetaPoly, "__add__"),
        fn(zeta, "drinfeld_f"),
        fn(zeta, "solve_betas_in_theta"),
        fn(cbh, "compressed_cbh"),
        fn(cbh, "classical_cbh_in_model"),
        fn(cbh, "associative_log_oracle"),
        fn(exact, "bernoulli"),
        fn(exact, "ext_bernoulli_recursive"),
    ]


def layer_metrics(tracer, extra: dict, run_s: float) -> dict:
    report = tracer.report()
    out = {f"{name}.{key}": value for name, stats in report.items() for key, value in stats.items()}
    # benchmark code between traced calls, and wrapper time outside any span
    out["trace.unattributed_s"] = run_s - sum(stats["self_s"] for stats in report.values())
    l4 = pentagon.l4_reducer()
    for (variant, degree), seconds in extra["build"].items():
        if variant == "L3":
            out["pentagon.build_s.L3"] = out.get("pentagon.build_s.L3", 0.0) + seconds
            continue
        keys = len(l4.model.basis_keys(degree))
        out[f"pentagon.build_s.L4.d{degree}"] = seconds
        out[f"pentagon.keys.L4.d{degree}"] = keys
        out[f"pentagon.rows.L4.d{degree}"] = keys - l4.dimension(degree)
    keys, residuals = extra["residual_terms"]
    if residuals:
        out["pentagon.residual_terms"] = keys / residuals
    return out


# -- the process ---------------------------------------------------------------------------


def canonical(x) -> str:
    """Deterministic text of an output, for the digest."""
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canonical(v) for v in x) + ")"
    if hasattr(x, "records"):  # cbh.PQElement
        return repr(x.records())
    if hasattr(x, "to_json"):  # hexagon.AlphaTable, hexagon.ParamSet
        return x.to_json()
    return repr(x)


def fraction_reference() -> float:
    """A fixed pure-Python Fraction loop: host-speed metadata, not a metric."""
    start = _clock()
    acc = Fraction(0)
    for i in range(8000):
        x = Fraction(i % 13 - 6, i % 17 + 1)
        acc += x * x
    return _clock() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if os.path.dirname(os.path.dirname(os.path.abspath(cassoc.__file__))) != SRC:
        raise SystemExit(f"cassoc imported from {cassoc.__file__}, not from {SRC}")
    inp = make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = extra = None
    if args.trace:
        from tracing import Tracer

        tracer, extra = Tracer(), {}
        tracer.install(trace_targets(extra))
    rec = Recorder()
    start = _clock()
    try:
        WORKLOADS[args.workload](rec, inp)
    finally:
        run_s = _clock() - start
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    digest = hashlib.sha256()
    for name, _, _, problem, out in rec.ops:
        text = "error" if out is None and problem else canonical(out)
        digest.update(f"{name}={text}\n".encode())
    result = {
        "ready": ready,
        "run_s": run_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "ops": [
            {
                "name": name,
                "seconds": seconds,
                "sampled": sampled,
                "problem": problem,
                "known_defect": isinstance(problem, KnownDefect),
            }
            for name, seconds, sampled, problem, _ in rec.ops
        ],
        "digest": digest.hexdigest(),
        "fraction_ref_s": fraction_reference(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, extra, run_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
