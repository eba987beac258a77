"""Command-line front end.

Exit codes: 0 = success / all checks pass, 1 = a verification failed,
2 = usage error: argparse's own message, or one JSON line {"error": ...} on
stderr for out-of-range values, unreadable or malformed input files and an
``--output`` that cannot be written.
Output is deterministic: identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cbh, hexagon, pentagon, verify, zeta
from .exact import bernoulli, ext_bernoulli_recursive, format_rational
from .series import MAX_DEGREE, _term_sort_key

MAX_PENTAGON = 10
MIN_PENTAGON_CHECK = 2  # the pentagon residual starts at letter degree 2
MAX_ORACLE = 8
MAX_BERNOULLI = 256  # bernoulli(n) costs about n^3: 0.2 s at 400, 1.75 s at 800
MIN_VERIFY = 3  # the first asymmetric direction, alpha[0, 1] - alpha[1, 0], enters the pentagon at degree 3


def _out_path(path: str | None):
    if path is None:
        return None
    base = os.environ.get("CASSOC_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, path: str | None) -> None:
    target = _out_path(path)
    if target is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(target, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            _usage_error(f"{target}: {exc}")


def _usage_error(message: str):
    print(json.dumps({"error": message}), file=sys.stderr)
    raise SystemExit(2)


def _check_degree(value: int, bound: int, what: str, low: int = 0) -> int:
    if not low <= value <= bound:
        _usage_error(f"{what} degree {value} out of bounds ({low}..{bound})")
    return value


def _load(path: str, parse):
    """Parse an input file; an unreadable or malformed one is a usage error."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        _usage_error(f"{path}: {exc}")


def cmd_bernoulli(args) -> int:
    if args.max < 0:
        _usage_error(f"bernoulli --max {args.max} is negative")
    if args.max > MAX_BERNOULLI:
        _usage_error(f"bernoulli --max {args.max} above {MAX_BERNOULLI}")
    rows = [(n, bernoulli(n)) for n in range(args.max + 1)]
    if args.format == "json":
        _emit(json.dumps({str(n): format_rational(v) for n, v in rows}, indent=2), args.output)
    elif args.format == "csv":
        _emit("n,B_n\n" + "\n".join(f"{n},{format_rational(v)}" for n, v in rows), args.output)
    else:
        _emit("\n".join(f"B_{n} = {format_rational(v)}" for n, v in rows), args.output)
    return 0


def cmd_cmn(args) -> int:
    w = _check_degree(args.max_weight, MAX_DEGREE, "cmn")
    entries = [
        (m, n, ext_bernoulli_recursive(m, n))
        for m in range(1, w)
        for n in range(1, w + 1 - m)
    ]
    if args.format == "json":
        _emit(
            json.dumps([[m, n, format_rational(v)] for m, n, v in entries], indent=2),
            args.output,
        )
    elif args.format == "csv":
        _emit("m,n,C_mn\n" + "\n".join(f"{m},{n},{format_rational(v)}" for m, n, v in entries), args.output)
    else:
        _emit("\n".join(f"C[{m},{n}] = {format_rational(v)}" for m, n, v in entries), args.output)
    return 0


def cmd_cbh(args) -> int:
    n = _check_degree(args.degree, MAX_DEGREE, "cbh", 1)
    series = cbh.compressed_cbh(n)
    recs = [[nn, mm, format_rational(c)] for nn, mm, c in series.records()]
    if args.format == "json":
        _emit(json.dumps({"degree": n, "terms": recs}, indent=2), args.output)
    elif args.format == "csv":
        _emit("n,m,coefficient\n" + "\n".join(f"{a},{b},{c}" for a, b, c in recs), args.output)
    else:
        lines = [f"[Q^{a - 1} P^{b - 1} Q P]: {c}" for a, b, c in recs]
        _emit("\n".join(lines), args.output)
    return 0


def _family_series(args):
    n = _check_degree(args.degree, MAX_DEGREE, "hexagon")
    if args.family == "custom":
        if not args.params:
            _usage_error("--family custom requires --params FILE")
        return hexagon.build_f(_load(args.params, hexagon.ParamSet.from_json), n)
    return {"I": hexagon.family_I, "II": hexagon.family_II, "III": hexagon.family_III}[args.family](n)


def cmd_hexagon_solve(args) -> int:
    f = _family_series(args)
    table = hexagon.AlphaTable.from_series(f)
    if args.format == "csv":
        _emit(table.to_csv(), args.output)
    else:
        _emit(table.to_json(), args.output)
    return 0


def cmd_hexagon_residual(args) -> int:
    table = _load(args.input, hexagon.AlphaTable.from_json)
    res = hexagon.residual_15b(table)
    ok = res.is_zero()
    payload = {
        "pass": ok,
        "truncation_order": res.order,
        "residual": res.to_records(),
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0 if ok else 1


def cmd_pentagon_check(args) -> int:
    n = _check_degree(args.degree, MAX_PENTAGON, "pentagon", MIN_PENTAGON_CHECK)
    table = _load(args.input, hexagon.AlphaTable.from_json)
    try:
        norms = pentagon.pentagon_check(table, n)
    except ValueError as exc:
        _usage_error(str(exc))
    ok = not any(norms.values())
    payload = {"pass": ok, "degree": n, "nonzero_coordinates": {str(d): v for d, v in sorted(norms.items())}}
    _emit(json.dumps(payload, indent=2), args.output)
    return 0 if ok else 1


def cmd_pentagon_dims(args) -> int:
    n = _check_degree(args.degree, MAX_PENTAGON, "pentagon", 1)
    report = pentagon.dimension_report(n, args.variant)
    lines = ["degree,dimension,reference"]
    for d, entry in sorted(report.items()):
        lines.append(f"{d},{entry['dimension']},{entry['reference']}")
    _emit("\n".join(lines), args.output)
    return 0


def cmd_zeta_drinfeld(args) -> int:
    n = _check_degree(args.degree, MAX_DEGREE, "zeta", 2)
    f = zeta.drinfeld_f(n)
    items = sorted(f.coeffs.items(), key=_term_sort_key)
    if args.format == "latex":
        terms = []
        for (k, l), c in items:
            mono = ""
            if k:
                mono += rf"\lambda^{{{k}}}" if k > 1 else r"\lambda"
            if l:
                mono += rf"\mu^{{{l}}}" if l > 1 else r"\mu"
            terms.append(rf"\left({c.format_latex()}\right){mono}")
        _emit(" + ".join(terms), args.output)
    elif args.format == "json":
        _emit(json.dumps({"degree": n, "terms": f.to_records()}, indent=2), args.output)
    else:
        _emit("\n".join(f"({k},{l}): {c.format()}" for (k, l), c in items), args.output)
    return 0


def cmd_zeta_solve_betas(args) -> int:
    n = _check_degree(args.degree, MAX_DEGREE, "zeta", 6)
    _emit(zeta.solve_betas_in_theta(n).to_json(), args.output)
    return 0


def cmd_verify_all(args) -> int:
    degree = _check_degree(args.degree, MAX_PENTAGON, "verify", MIN_VERIFY)
    overrides = {
        "pentagon": {"degree": degree},
        "cbh": {"oracle_degree": min(degree, MAX_ORACLE)},
    }
    ok_all = True
    failures = []
    for name, fn in verify.CHECKS:
        kwargs = overrides.get(name, {})
        try:
            ok, detail = fn(**kwargs)
        except Exception as exc:
            ok, detail = False, f"exception: {exc!r}"
        ok_all = ok_all and ok
        if not ok:
            failures.append({"check": name, "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not ok_all:
        print(json.dumps({"failures": failures}, indent=2))
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cassoc",
        description="Exact computations around compressed associators: tables, "
        "hexagon/pentagon verification, zeta-symbol series.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, degree_default=None):
        if degree_default is not None:
            sp.add_argument("--degree", type=int, default=degree_default)
        sp.add_argument("--output", help="write here instead of stdout "
                        "(relative paths resolve under $CASSOC_OUTPUT_DIR)")

    sp = sub.add_parser("bernoulli", help="Bernoulli numbers B_0..B_max")
    sp.add_argument("--max", type=int, default=12)
    sp.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    add_common(sp)
    sp.set_defaults(fn=cmd_bernoulli)

    sp = sub.add_parser("cmn", help="two-index extended Bernoulli table")
    sp.add_argument("--max-weight", type=int, default=12)
    sp.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    add_common(sp)
    sp.set_defaults(fn=cmd_cmn)

    sp = sub.add_parser("cbh", help="commuting-commutator Hausdorff series")
    sp.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    add_common(sp, degree_default=10)
    sp.set_defaults(fn=cmd_cbh)

    sp = sub.add_parser("hexagon", help="hexagon families and residuals")
    hsub = sp.add_subparsers(dest="subcommand", required=True)
    ssp = hsub.add_parser("solve", help="emit the alpha table of a family")
    ssp.add_argument("--family", choices=("I", "II", "III", "custom"), default="I")
    ssp.add_argument("--params", help="JSON parameter file for --family custom")
    ssp.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(ssp, degree_default=10)
    ssp.set_defaults(fn=cmd_hexagon_solve)
    ssp = hsub.add_parser("residual", help="evaluate the hexagon residual of a table")
    ssp.add_argument("--input", required=True, help="alpha table JSON")
    add_common(ssp)
    ssp.set_defaults(fn=cmd_hexagon_residual)

    sp = sub.add_parser("pentagon", help="pentagon checks in the four-strand quotient")
    psub = sp.add_subparsers(dest="subcommand", required=True)
    ssp = psub.add_parser("check", help="reduce the pentagon residual of a table")
    ssp.add_argument("--input", required=True, help="alpha table JSON")
    add_common(ssp, degree_default=8)
    ssp.set_defaults(fn=cmd_pentagon_check)
    ssp = psub.add_parser("dims", help="per-degree quotient dimensions")
    ssp.add_argument("--variant", choices=("L3bar", "L4bar"), default="L4bar")
    add_common(ssp, degree_default=8)
    ssp.set_defaults(fn=cmd_pentagon_dims)

    sp = sub.add_parser("zeta", help="series over formal odd-zeta symbols")
    zsub = sp.add_subparsers(dest="subcommand", required=True)
    ssp = zsub.add_parser("drinfeld", help="the zeta-symbol associator series")
    ssp.add_argument("--format", choices=("plain", "json", "latex"), default="plain")
    add_common(ssp, degree_default=7)
    ssp.set_defaults(fn=cmd_zeta_drinfeld)
    ssp = zsub.add_parser("solve-betas", help="free parameters as zeta polynomials")
    add_common(ssp, degree_default=9)
    ssp.set_defaults(fn=cmd_zeta_solve_betas)

    sp = sub.add_parser("verify", help="run the named verification checks")
    vsub = sp.add_subparsers(dest="subcommand", required=True)
    ssp = vsub.add_parser("all", help="run every acceptance check")
    ssp.add_argument("--degree", type=int, default=8, help="pentagon / oracle degree cap")
    ssp.set_defaults(fn=cmd_verify_all)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
