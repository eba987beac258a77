"""Hostile input files: every ``--input`` and ``--params`` reader exits 0, 1 or 2.

Generated JSON (valid tables and parameter files, wrong types, bools, floats,
huge ints and nested junk) goes to ``hexagon residual --input``, ``pentagon
check --input`` and ``hexagon solve --family custom --params``.  Each run
either succeeds (0), reports a failed verification (1) or is a usage error (2:
one JSON line on stderr, nothing on stdout); it never raises anything else.
``main`` runs in-process with stdout and stderr redirected to StringIO.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from cassoc.cli import main  # noqa: E402

EXAMPLES = 100

rationals = st.sampled_from(["1/6", "-1/360", "1", "0", "7/3"])
huge_ints = st.sampled_from([2**63, -(2**63) - 1, 10**400, -(10**400)])
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-20, 20)
    | huge_ints
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["1/6", "-1/2", "0", "1/0", "1.5", "1e3", "1_000", " 1", "+3/4", "-0/5"])
)
FIELDS = ["k", "l", "coeff", "alpha", "truncation_order", "beta", "beta_tilde", "poly"]
keys = st.sampled_from(FIELDS) | st.text(max_size=3)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=6,
)
small_index = st.integers(0, 8) | junk
coefficients = rationals | junk

alpha_records = st.fixed_dictionaries({"k": small_index, "l": small_index, "coeff": coefficients})
tables = st.fixed_dictionaries({
    "truncation_order": st.integers(0, 6) | junk,
    "alpha": st.lists(alpha_records | junk, max_size=5) | junk,
})
param_entries = st.lists(st.lists(small_index | coefficients, min_size=3, max_size=3) | junk, max_size=4) | junk
param_files = st.fixed_dictionaries({}, optional={"beta": param_entries, "beta_tilde": param_entries})

# well-formed files, so that the success and failure paths are reached too
valid_tables = st.fixed_dictionaries({
    "truncation_order": st.integers(6, 8),
    "alpha": st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=5).map(
        lambda coeffs: [{"k": k, "l": l, "coeff": c} for (k, l), c in coeffs.items()]),
})
BETA_INDICES = [(n, k) for n in range(3, 9) for k in range(1, n // 3 + 1)]
BETA_TILDE_INDICES = [(n, k) for n in range(9) for k in range(n // 3 + 1)]


def _valid_entries(indices):
    return st.dictionaries(st.sampled_from(indices), rationals, max_size=3).map(
        lambda values: [[n, k, v] for (n, k), v in values.items()])


valid_params = st.fixed_dictionaries({"beta": _valid_entries(BETA_INDICES),
                                      "beta_tilde": _valid_entries(BETA_TILDE_INDICES)})

table_inputs = valid_tables | tables | junk
param_inputs = valid_params | param_files | junk


def run_main(argv) -> None:
    """Run ``main(argv)``: it exits 0, 1 or 2, and exit 2 is one JSON line on stderr and no stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and set(json.loads(err.getvalue())) == {"error"}
    else:
        assert err.getvalue() == "" and out.getvalue().endswith("\n")


def _write_json(path, value) -> str:
    path.write_text(json.dumps(value))
    return str(path)


hostile = settings(max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@hostile
@given(value=table_inputs)
def test_hexagon_residual_input(scratch, value):
    run_main(["hexagon", "residual", "--input", _write_json(scratch / "residual.json", value)])


@hostile
@given(value=table_inputs)
def test_pentagon_check_input(scratch, value):
    run_main(["pentagon", "check", "--degree", "4", "--input", _write_json(scratch / "pentagon.json", value)])


@hostile
@given(value=param_inputs)
def test_hexagon_solve_params(scratch, value):
    path = _write_json(scratch / "params.json", value)
    run_main(["hexagon", "solve", "--family", "custom", "--params", path, "--degree", "6"])
