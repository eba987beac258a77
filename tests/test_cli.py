import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import cassoc
from cassoc import verify
from cassoc.cli import MAX_BERNOULLI, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bernoulli_plain(capsys):
    code, out = run_cli(capsys, "bernoulli", "--max", "4")
    assert code == 0
    assert "B_1 = -1/2" in out and "B_4 = -1/30" in out


def test_cmn_csv_grid(capsys):
    code, out = run_cli(capsys, "cmn", "--max-weight", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,C_mn"
    assert len(lines) == 1 + 66
    assert "6,6,305/462" in lines


def test_cbh_json(capsys):
    code, out = run_cli(capsys, "cbh", "--degree", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert ["1", "1", "-1/2"] == [str(x) for x in data["terms"][0]]


def test_hexagon_solve_and_residual_roundtrip(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    code, out = run_cli(capsys, "hexagon", "solve", "--family", "I", "--degree", "8",
                        "--output", str(path))
    assert code == 0
    code, out = run_cli(capsys, "hexagon", "residual", "--input", str(path))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_hexagon_solve_matches_printed(capsys):
    code, out = run_cli(capsys, "hexagon", "solve", "--family", "I", "--degree", "10",
                        "--format", "json")
    assert code == 0
    table = {(r["k"], r["l"]): r["coeff"] for r in json.loads(out)["alpha"]}
    assert table[(0, 0)] == "1/6"
    assert table[(1, 1)] == "-1/360"
    assert table[(8, 0)] == "1/93555"


def test_hexagon_custom_params(tmp_path, capsys):
    params = {"beta": [[3, 1, "-8/15120"]], "beta_tilde": []}
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    code, out = run_cli(capsys, "hexagon", "solve", "--family", "custom",
                        "--params", str(pfile), "--degree", "6")
    assert code == 0
    table = {(r["k"], r["l"]): r["coeff"] for r in json.loads(out)["alpha"]}
    assert table[(3, 1)] == "1/1260"
    assert table[(2, 2)] == "23/15120"


def test_residual_failure_exit_code(tmp_path, capsys):
    bad = {"truncation_order": 2, "alpha": [{"k": 0, "l": 0, "coeff": "1"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(capsys, "hexagon", "residual", "--input", str(path))
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_pentagon_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    run_cli(capsys, "hexagon", "solve", "--family", "I", "--degree", "6", "--output", str(path))
    code, out = run_cli(capsys, "pentagon", "check", "--degree", "8", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and all(v == 0 for v in data["nonzero_coordinates"].values())


def test_pentagon_check_asymmetric_fails(tmp_path, capsys):
    bad = {"truncation_order": 3, "alpha": [
        {"k": 0, "l": 0, "coeff": "1/6"},
        {"k": 0, "l": 1, "coeff": "1"},
    ]}
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(capsys, "pentagon", "check", "--degree", "5", "--input", str(path))
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_pentagon_check_short_table_is_usage_error(tmp_path, capsys):
    # a table of order 0 says nothing about alpha[k, l] with 0 < k + l <= 6
    path = tmp_path / "alpha0.json"
    run_cli(capsys, "hexagon", "solve", "--family", "I", "--degree", "0", "--output", str(path))
    err = run_usage_error(capsys, "pentagon", "check", "--degree", "8", "--input", str(path))
    assert "order 0" in err["error"]


@pytest.mark.parametrize("degree", ["0", "1"])
def test_pentagon_check_below_degree_two_is_usage_error(tmp_path, capsys, degree):
    # the residual lives at letter degree >= 2: a check below it checks nothing
    path = tmp_path / "alpha.json"
    run_cli(capsys, "hexagon", "solve", "--family", "I", "--degree", "4", "--output", str(path))
    err = run_usage_error(capsys, "pentagon", "check", "--degree", degree, "--input", str(path))
    assert err == {"error": f"pentagon degree {degree} out of bounds (2..10)"}
    code, out = run_cli(capsys, "pentagon", "check", "--degree", "2", "--input", str(path))
    assert code == 0 and json.loads(out)["nonzero_coordinates"] == {"2": 0}


def test_pentagon_dims_csv(capsys):
    code, out = run_cli(capsys, "pentagon", "dims", "--degree", "6", "--variant", "L3bar")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dimension,reference"
    assert lines[1] == "1,3,3"
    assert lines[-1] == "6,5,5"


def test_pentagon_dims_degree_zero_is_usage_error(capsys):
    # degree 1 is the first with a dimension to report
    with pytest.raises(SystemExit) as exc:
        main(["pentagon", "dims", "--degree", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": "pentagon degree 0 out of bounds (1..10)"}) + "\n"
    code, out = run_cli(capsys, "pentagon", "dims", "--degree", "1", "--variant", "L4bar")
    assert code == 0 and out == "degree,dimension,reference\n1,6,6\n"


def test_zeta_drinfeld_formats(capsys):
    code, out = run_cli(capsys, "zeta", "drinfeld", "--degree", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    first = data["terms"][0]
    assert first["k"] == 0 and first["l"] == 0 and first["coeff"] == "1/6"
    code, latex = run_cli(capsys, "zeta", "drinfeld", "--degree", "3", "--format", "latex")
    assert code == 0
    assert r"\theta_{3}" in latex and r"\lambda" in latex


def test_zeta_solve_betas_json(capsys):
    code, out = run_cli(capsys, "zeta", "solve-betas", "--degree", "9")
    assert code == 0
    data = json.loads(out)
    entries = {(n, k): v for n, k, v in data["beta_tilde"]}
    b00 = entries[(0, 0)]
    assert b00 == {"poly": [[[1, 0, 0, 0, 0], "-3"]]}


def test_degree_bounds():
    with pytest.raises(SystemExit) as exc:
        main(["cbh", "--degree", "17"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pentagon", "dims", "--degree", "11"])
    assert exc.value.code == 2


def test_output_determinism(capsys):
    _, out1 = run_cli(capsys, "hexagon", "solve", "--family", "II", "--degree", "8")
    _, out2 = run_cli(capsys, "hexagon", "solve", "--family", "II", "--degree", "8")
    assert out1 == out2


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CASSOC_OUTPUT_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "bernoulli", "--max", "3", "--format", "csv",
                      "--output", "bern.csv")
    assert code == 0
    assert (tmp_path / "bern.csv").read_text().startswith("n,B_n")


def run_usage_error(capsys, *argv) -> dict:
    """Run the CLI expecting exit 2 and a one-line JSON error on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    return json.loads(err)


@pytest.mark.parametrize("target", ["missing-dir/out.txt", "."])
def test_unwritable_output_is_usage_error(tmp_path, capsys, target):
    # a missing directory, or a directory as the target: exit 2, never a traceback
    table = tmp_path / "alpha.json"
    run_cli(capsys, "hexagon", "solve", "--family", "I", "--degree", "4", "--output", str(table))
    out = tmp_path / target
    for argv in (("bernoulli", "--max", "3"), ("hexagon", "residual", "--input", str(table))):
        err = run_usage_error(capsys, *argv, "--output", str(out))
        assert err["error"].startswith(f"{out}: ")


def test_missing_input_file(tmp_path, capsys):
    err = run_usage_error(capsys, "hexagon", "residual", "--input", str(tmp_path / "nope.json"))
    assert "nope.json" in err["error"]


@pytest.mark.parametrize("case, text", [
    ("not-json", "{alpha: ]"),
    ("zero-denominator", json.dumps({"truncation_order": 2, "alpha": [{"k": 0, "l": 0, "coeff": "1/0"}]})),
    ("not-a-rational", json.dumps({"truncation_order": 2, "alpha": [{"k": 0, "l": 0, "coeff": "x"}]})),
    ("negative-exponent", json.dumps({"truncation_order": 2, "alpha": [{"k": -1, "l": 0, "coeff": "1"}]})),
    ("beyond-order", json.dumps({"truncation_order": 3, "alpha": [{"k": 5, "l": 0, "coeff": "1"}]})),
    ("order-too-large", json.dumps({"truncation_order": 17, "alpha": []})),
    ("decimal-point", json.dumps({"truncation_order": 2, "alpha": [{"k": 0, "l": 0, "coeff": "1.5"}]})),
    ("exponent", json.dumps({"truncation_order": 2, "alpha": [{"k": 0, "l": 0, "coeff": "1e999999999"}]})),
    ("underscore", json.dumps({"truncation_order": 2, "alpha": [{"k": 0, "l": 0, "coeff": "1_000"}]})),
    ("repeated-record", json.dumps({"truncation_order": 2, "alpha": [{"k": 0, "l": 0, "coeff": "1/3"}] * 2})),
])
def test_malformed_alpha_table(tmp_path, capsys, case, text):
    path = tmp_path / f"{case}.json"
    path.write_text(text)
    run_usage_error(capsys, "hexagon", "residual", "--input", str(path))
    run_usage_error(capsys, "pentagon", "check", "--degree", "6", "--input", str(path))


@pytest.mark.parametrize("case, params, message", [
    ("decimal-point", {"beta": [[3, 1, "1.5"]]}, "p/q"),
    ("exponent", {"beta_tilde": [[0, 0, "1e999999999"]]}, "p/q"),
    ("underscore", {"beta": [[3, 1, "1_000"]]}, "p/q"),
    ("repeated-entry", {"beta_tilde": [[0, 0, "1"], [0, 0, "2"]]}, "twice"),
])
def test_malformed_parameter_values(tmp_path, capsys, case, params, message):
    pfile = tmp_path / f"{case}.json"
    pfile.write_text(json.dumps(params))
    err = run_usage_error(capsys, "hexagon", "solve", "--family", "custom",
                          "--params", str(pfile), "--degree", "6")
    assert message in err["error"]


def test_param_index_out_of_range(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"beta": [[3, 2, "1"]]}))
    err = run_usage_error(capsys, "hexagon", "solve", "--family", "custom",
                          "--params", str(pfile), "--degree", "6")
    assert "out of range" in err["error"]


def test_bernoulli_negative_max(capsys):
    run_usage_error(capsys, "bernoulli", "--max", "-3")


def test_bernoulli_max_above_cap(capsys):
    err = run_usage_error(capsys, "bernoulli", "--max", "100000")
    assert err["error"] == f"bernoulli --max 100000 above {MAX_BERNOULLI}"
    code, out = run_cli(capsys, "bernoulli", "--max", str(MAX_BERNOULLI), "--format", "csv")
    assert code == 0 and out.count("\n") == MAX_BERNOULLI + 2


@pytest.mark.parametrize("degree", ["0", "2"])
def test_verify_degree_below_pentagon_minimum(capsys, degree):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--degree", degree])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any check ran
    assert captured.err == json.dumps({"error": f"verify degree {degree} out of bounds (3..10)"}) + "\n"


@pytest.mark.parametrize("argv, low", [
    (["cbh", "--degree", "0"], 1),
    (["zeta", "drinfeld", "--degree", "0"], 2),
    (["zeta", "drinfeld", "--degree", "1"], 2),
    (["zeta", "solve-betas", "--degree", "0"], 6),
    (["zeta", "solve-betas", "--degree", "5"], 6),
])
def test_degree_below_computable_minimum(capsys, argv, low):
    err = run_usage_error(capsys, *argv)
    assert err["error"] == f"{argv[0]} degree {argv[-1]} out of bounds ({low}..16)"


VERIFY_FAILURE_REPORT = """\
PASS table-c: 66 printed entries match (recursion and closed form)
FAIL cbh: x
FAIL solver: exception: RuntimeError('boom')
{
  "failures": [
    {
      "check": "cbh",
      "detail": "x"
    },
    {
      "check": "solver",
      "detail": "exception: RuntimeError('boom')"
    }
  ]
}
"""


def test_verify_all_failure_report(capsys, monkeypatch):
    # one check fails, one raises: exit 1, every PASS/FAIL line, then the report
    def boom(**_):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "CHECKS", [
        ("table-c", verify.check_table_c),
        ("cbh", lambda **_: (False, "x")),
        ("solver", boom),
    ])
    code, out = run_cli(capsys, "verify", "all")
    assert code == 1
    assert out == VERIFY_FAILURE_REPORT
    assert capsys.readouterr().err == ""


def _child_env() -> dict:
    """The environment in which ``python -m cassoc`` imports the package the suite imports."""
    src = os.path.dirname(os.path.dirname(cassoc.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_cassoc_prints_what_main_prints(capsys):
    # ``python -m cassoc`` runs cli.main on the same package the suite imports
    argv = ["hexagon", "solve", "--degree", "8"]
    proc = subprocess.run([sys.executable, "-m", "cassoc", *argv], capture_output=True, env=_child_env(), check=False)
    code, out = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"") and code == 0


WRITER_COMMANDS = [
    ["verify", "all"],
    ["zeta", "drinfeld", "--degree", "16", "--format", "json"],
    ["bernoulli"],
]


def _assert_stdout_write_error(proc, reason):
    # exit 2 and stderr exactly one JSON error line: no traceback, no "Exception ignored"
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert json.loads(err) == {"error": f"<stdout>: {reason}"}


@pytest.mark.parametrize("argv", WRITER_COMMANDS, ids=" ".join)
def test_closed_stdout_pipe_is_usage_error(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so before it writes
    try:
        proc = subprocess.run([sys.executable, "-m", "cassoc", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_child_env(), check=False)
    finally:
        os.close(write_end)
    _assert_stdout_write_error(proc, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", WRITER_COMMANDS, ids=" ".join)
def test_full_disk_on_stdout_is_usage_error(argv):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "cassoc", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=_child_env(), check=False)
    _assert_stdout_write_error(proc, "[Errno 28] No space left on device")
