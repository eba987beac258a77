"""Suite-wide pytest hooks.

The suite imports cassoc from the first place ``PYTHONPATH`` names that
holds it, so ``PYTHONPATH=<other checkout>/src pytest`` tests that
checkout; this checkout's ``src/`` goes on ``sys.path`` right behind the
``PYTHONPATH`` entries, ahead of everything else, so plain ``pytest`` tests
this one.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _behind_pythonpath() -> int:
    """The sys.path index just past the last entry ``PYTHONPATH`` names, or 0."""
    named = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
    return max((i + 1 for i, p in enumerate(sys.path) if p and os.path.abspath(p) in named), default=0)


if SRC not in map(os.path.abspath, sys.path):
    sys.path.insert(_behind_pythonpath(), SRC)


def pytest_report_header(config):
    """Name the cassoc the suite imports."""
    import cassoc

    return f"cassoc: {os.path.dirname(cassoc.__file__)}"
