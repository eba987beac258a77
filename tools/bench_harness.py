"""The harness shared by the stage benchmarks in this directory.

A benchmark script is a docstring, a child program and its settings.  The
child runs with ``sys.argv[1:]`` = the ``src/`` directory to import, then the
settings' values in order.  It times its stages and prints one JSON object:
``times`` ({stage: seconds}) and, under any other keys, digests of what it
computed.  ``main`` gives every script the same command line,

    python3 tools/bench_<name>.py --parent ../parent/src --change src --out BENCH.json

runs the child REPEATS times on each checkout, each in a new interpreter so
that each repeat pays the cold tables the way a command-line call does.  The
two checkouts' repeats alternate, and which one goes first alternates too,
so drift of the host over the run lands on both columns alike.  The run
fails unless every repeat of a checkout reports the same digests.  The
median of each stage and of the per-repeat totals (seconds) go into columns
``parent`` and ``change`` of ``--out``, with the settings, the digests, the
Python version and the CPU count.  The columns sit under the script's name
(``bench_zeta`` and so on), and whatever else that file holds is kept, so
one file holds the runs of several scripts, and equal digests show that both
checkouts computed the same thing.
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


def summarize(runs: list, settings: dict) -> dict:
    """One column: the stage medians of one checkout's repeats, which must
    agree on every digest."""
    digests = [{key: value for key, value in run.items() if key != "times"} for run in runs]
    if any(d != digests[0] for d in digests):
        raise SystemExit("repeats disagree on the computed outputs")
    medians = {s: round(statistics.median(r["times"][s] for r in runs), 4) for s in runs[0]["times"]}
    medians["total"] = round(statistics.median(sum(r["times"].values()) for r in runs), 4)
    return {
        "median_s": medians,
        "repeats": len(runs),
        **settings,
        **digests[0],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(doc: str, child: str, settings: dict, argv=None) -> int:
    """The command line of a benchmark script with docstring ``doc``."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the src/ directory of the parent checkout")
    parser.add_argument("--change", default="src", help="the src/ directory of the changed checkout")
    parser.add_argument("--out", required=True, help="JSON file to write the two columns into")
    args = parser.parse_args(argv)

    srcs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs: dict = {name: [] for name in srcs}
    for repeat in range(REPEATS):
        for name in sorted(srcs, reverse=bool(repeat % 2)):
            runs[name].append(run_child(child, [srcs[name], *settings.values()]))
    script = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    medians = {}
    for name in srcs:
        column = summarize(runs[name], settings)
        merge_column(args.out, script, name, column)
        medians[name] = column["median_s"]
    print(json.dumps(medians))
    return 0
