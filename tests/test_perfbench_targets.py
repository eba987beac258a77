"""perfbench's traced entry points still exist in cassoc.

``Tracer.install`` reads ``owner.__dict__[attr]`` for every target, so a
renamed or deleted function would be a KeyError that ends every traced
benchmark run.  The worker script is imported as it is, read-only.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cassoc.pentagon import MetabelianModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def worker():
    saved = list(sys.path), "inputs" in sys.modules, sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved[0]
        if not saved[1]:
            sys.modules.pop("inputs", None)
        sys.dont_write_bytecode = saved[2]


def test_every_trace_target_exists(worker):
    targets = worker.trace_targets({})
    names = {name for _, _, name, _ in targets}
    assert {"pentagon.phi_bar_eval", "pentagon.pentagon_residual", "series.UniSeries.as_biseries", "linalg.rref"} <= names
    for owner, attr, name, _ in targets:
        assert attr in owner.__dict__, name
        assert callable(owner.__dict__[attr]), name


def test_layer_metrics_reads_basis_keys():
    assert callable(MetabelianModel.__dict__["basis_keys"])
