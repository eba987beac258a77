"""Command-line front end.

Each command is a function of its arguments that returns its whole output and
its exit code; ``main`` writes that output once, at the end, to ``--output`` or
to stdout.

Exit codes: 0 = success / all checks pass, 1 = a verification failed,
2 = usage error: argparse's own message, or one JSON line {"error": ...} on
stderr for out-of-range values, unreadable or malformed input files and an
output that cannot be written (an ``--output`` file, or stdout itself: a
closed pipe, a full disk).
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


def _write(text: str, path: str | None) -> None:
    """Write ``text``, newline-terminated, to ``--output`` or to stdout.

    Any OSError (a closed pipe, a full disk, a missing directory) is a usage
    error.  On a stdout failure fd 1 is first pointed at os.devnull, so the
    interpreter's last flush of the unwritten buffer cannot raise again (the
    pattern of the Python ``signal`` docs' "Note on SIGPIPE").
    """
    target = _out_path(path)
    if not text.endswith("\n"):
        text += "\n"
    try:
        if target is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(target, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if target is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _usage_error(f"{target or '<stdout>'}: {exc}")


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


def cmd_bernoulli(args) -> tuple:
    if args.max < 0:
        _usage_error(f"bernoulli --max {args.max} is negative")
    if args.max > MAX_BERNOULLI:
        _usage_error(f"bernoulli --max {args.max} above {MAX_BERNOULLI}")
    rows = [(n, bernoulli(n)) for n in range(args.max + 1)]
    if args.format == "json":
        return json.dumps({str(n): format_rational(v) for n, v in rows}, indent=2), 0
    if args.format == "csv":
        return "n,B_n\n" + "\n".join(f"{n},{format_rational(v)}" for n, v in rows), 0
    return "\n".join(f"B_{n} = {format_rational(v)}" for n, v in rows), 0


def cmd_cmn(args) -> tuple:
    w = _check_degree(args.max_weight, MAX_DEGREE, "cmn")
    entries = [
        (m, n, ext_bernoulli_recursive(m, n))
        for m in range(1, w)
        for n in range(1, w + 1 - m)
    ]
    if args.format == "json":
        return json.dumps([[m, n, format_rational(v)] for m, n, v in entries], indent=2), 0
    if args.format == "csv":
        return "m,n,C_mn\n" + "\n".join(f"{m},{n},{format_rational(v)}" for m, n, v in entries), 0
    return "\n".join(f"C[{m},{n}] = {format_rational(v)}" for m, n, v in entries), 0


def cmd_cbh(args) -> tuple:
    n = _check_degree(args.degree, MAX_DEGREE, "cbh", 1)
    series = cbh.compressed_cbh(n)
    recs = [[nn, mm, format_rational(c)] for nn, mm, c in series.records()]
    if args.format == "json":
        return json.dumps({"degree": n, "terms": recs}, indent=2), 0
    if args.format == "csv":
        return "n,m,coefficient\n" + "\n".join(f"{a},{b},{c}" for a, b, c in recs), 0
    return "\n".join(f"[Q^{a - 1} P^{b - 1} Q P]: {c}" for a, b, c in recs), 0


def _family_series(args):
    n = _check_degree(args.degree, MAX_DEGREE, "hexagon")
    if args.family == "custom":
        if not args.params:
            _usage_error("--family custom requires --params FILE")
        return hexagon.build_f(_load(args.params, hexagon.ParamSet.from_json), n)
    return {"I": hexagon.family_I, "II": hexagon.family_II, "III": hexagon.family_III}[args.family](n)


def cmd_hexagon_solve(args) -> tuple:
    table = hexagon.AlphaTable.from_series(_family_series(args))
    return (table.to_csv() if args.format == "csv" else table.to_json()), 0


def cmd_hexagon_residual(args) -> tuple:
    table = _load(args.input, hexagon.AlphaTable.from_json)
    res = hexagon.residual_15b(table)
    ok = res.is_zero()
    payload = {
        "pass": ok,
        "truncation_order": res.order,
        "residual": res.to_records(),
    }
    return json.dumps(payload, indent=2), 0 if ok else 1


def cmd_pentagon_check(args) -> tuple:
    n = _check_degree(args.degree, MAX_PENTAGON, "pentagon", MIN_PENTAGON_CHECK)
    table = _load(args.input, hexagon.AlphaTable.from_json)
    try:
        norms = pentagon.pentagon_check(table, n)
    except ValueError as exc:
        _usage_error(str(exc))
    ok = not any(norms.values())
    payload = {"pass": ok, "degree": n, "nonzero_coordinates": {str(d): v for d, v in sorted(norms.items())}}
    return json.dumps(payload, indent=2), 0 if ok else 1


def cmd_pentagon_dims(args) -> tuple:
    n = _check_degree(args.degree, MAX_PENTAGON, "pentagon", 1)
    report = pentagon.dimension_report(n, args.variant)
    lines = ["degree,dimension,reference"]
    for d, entry in sorted(report.items()):
        lines.append(f"{d},{entry['dimension']},{entry['reference']}")
    return "\n".join(lines), 0


def cmd_zeta_drinfeld(args) -> tuple:
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
        return " + ".join(terms), 0
    if args.format == "json":
        return json.dumps({"degree": n, "terms": f.to_records()}, indent=2), 0
    return "\n".join(f"({k},{l}): {c.format()}" for (k, l), c in items), 0


def cmd_zeta_solve_betas(args) -> tuple:
    n = _check_degree(args.degree, MAX_DEGREE, "zeta", 6)
    return zeta.solve_betas_in_theta(n).to_json(), 0


def cmd_verify_all(args) -> tuple:
    degree = _check_degree(args.degree, MAX_PENTAGON, "verify", MIN_VERIFY)
    overrides = {
        "pentagon": {"degree": degree},
        "cbh": {"oracle_degree": min(degree, MAX_ORACLE)},
    }
    lines = []
    failures = []
    for name, fn in verify.CHECKS:
        try:
            ok, detail = fn(**overrides.get(name, {}))
        except Exception as exc:
            ok, detail = False, f"exception: {exc!r}"
        if not ok:
            failures.append({"check": name, "detail": detail})
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failures:
        lines.append(json.dumps({"failures": failures}, indent=2))
    return "\n".join(lines), 1 if failures else 0


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
    ssp.set_defaults(fn=cmd_verify_all, output=None)  # always stdout

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    text, code = args.fn(args)
    _write(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
