"""The harness shared by the stage benchmarks in this directory.

A benchmark script is a docstring, a child program and its settings.  The
child runs with ``sys.argv[1:]`` = the ``src/`` directory to import, then the
settings' values in order.  It times its stages and prints one JSON object:
``times`` ({stage: seconds}) and, under any other keys, digests of what it
computed.  ``main`` gives every script the same command line,

    python3 tools/bench_<name>.py --src src --column change --out BENCH.json
    python3 tools/bench_<name>.py --src ../parent/src --column parent --out BENCH.json

runs the child REPEATS times, each in a new interpreter so that each repeat
pays the cold tables the way a command-line call does, and fails unless
every repeat reports the same digests.  The median of each stage and of the
per-repeat totals (seconds) go into column ``--column`` of ``--out``, with
the settings, the digests, the Python version and the CPU count.  The
columns sit under the script's name (``bench_zeta`` and so on), and whatever
else that file holds is kept, so one file holds a parent and a change run of
several scripts, and equal digests show that both computed the same thing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

REPEATS = 5


def run_child(child: str, args: list) -> dict:
    """One repeat: the child program in a new interpreter, its JSON output."""
    proc = subprocess.run([sys.executable, "-c", child, *map(str, args)], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def merge_column(path: str, script: str, name: str, column: dict) -> None:
    """Write ``column`` as column ``name`` of ``script`` in the JSON file at
    ``path``, keeping everything else in it."""
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.setdefault(script, {}).setdefault("columns", {})[name] = column
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(doc: str, child: str, settings: dict, argv=None) -> int:
    """The command line of a benchmark script with docstring ``doc``."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", default="src", help="the src/ directory of the checkout to time")
    parser.add_argument("--column", required=True, help="name of the column to write, e.g. parent or change")
    parser.add_argument("--out", required=True, help="JSON file to write the column into")
    args = parser.parse_args(argv)

    runs = [run_child(child, [os.path.abspath(args.src), *settings.values()]) for _ in range(REPEATS)]
    digests = [{key: value for key, value in run.items() if key != "times"} for run in runs]
    if any(d != digests[0] for d in digests):
        raise SystemExit("repeats disagree on the computed outputs")
    medians = {s: round(statistics.median(r["times"][s] for r in runs), 4) for s in runs[0]["times"]}
    medians["total"] = round(statistics.median(sum(r["times"].values()) for r in runs), 4)
    column = {
        "median_s": medians,
        "repeats": REPEATS,
        **settings,
        **digests[0],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    script = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    merge_column(args.out, script, args.column, column)
    print(json.dumps({args.column: medians}))
    return 0
