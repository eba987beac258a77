"""Suite-wide pytest hooks."""

import os


def pytest_report_header(config):
    """Name the cassoc the suite imports: pyproject's ``pythonpath = ["src"]``
    puts this checkout's src/ ahead of PYTHONPATH."""
    import cassoc

    return f"cassoc: {os.path.dirname(cassoc.__file__)}"
