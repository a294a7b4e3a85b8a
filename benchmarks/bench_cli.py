#!/usr/bin/env python3
"""Whole-process wall times of the CLI, and the import time of ``boxham.cli``.

Each row runs one command as a child process and gives the median wall
time over ``RUNS`` runs, the rows taking turns so that a drift of the
machine reaches all of them alike:

* ``python -c pass``: the interpreter floor.  It includes the ``site``
  step, and with it whatever the environment's ``.pth`` files import;
* ``python -c "import boxham.cli"``;
* ``hamcycle`` on the trees of ``bench_builder.py``'s rows at 1000
  product vertices: the matching tree at n = 4 (1000 vertices) and the
  {P2,P3} tree at n = 18 (972);
* ``check --n 4`` on the flagship's base, the 8-vertex caterpillar, and
  ``toughness --one-tough`` on the flagship, its 4-layer product;
* ``scan 1 --k 3``.

The commands run as the ``boxham`` console script runs them, through
``boxham.cli.main``, on this checkout's ``src``.  The children get a
warm bytecode cache in a temporary ``PYTHONPYCACHEPREFIX``, filled by one
untimed run of each command, and ``PYTHONDONTWRITEBYTECODE`` is removed
from their environment: with it set and no cache, every run would time
the compiler.  Each row pins the exit code and, from the ``--json``
answer, the answer itself, ``decided_by`` and ``nodes`` (null where the
command reports none); a run that differs from ``PINS`` stops the script
with an error.

From ``python -X importtime -c "import boxham.cli"``, run as often, the
file also records the median cumulative import time of ``boxham.cli``
and each ``boxham`` module's median self time, in microseconds.

    PYTHONPATH=src python benchmarks/bench_cli.py --out BENCH_cli.json
    PYTHONPATH=src python benchmarks/bench_cli.py --quick   # one timed run a row
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from boxham import kernels
from boxham.graphs import Graph, cartesian_product, format_graph, path_graph

from bench_builder import tree

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
RUNS = 15  # timed runs per row; 11 at least, for a median to mean much

T1 = Graph.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 7), (4, 8)])
MAIN = "import sys; from boxham.cli import main; sys.exit(main())"

# (exit code, answer, decided_by, nodes) of every row
PINS = {
    "python -c pass": (0, None, None, None),
    "import boxham.cli": (0, None, None, None),
    "hamcycle matching tree (1000)": (0, "matching", None, None),
    "hamcycle p23 tree (972)": (0, "pathfactor", None, None),
    "check --n 4, flagship": (0, "non_hamiltonian", "search", 408),
    "toughness --one-tough, flagship": (0, "yes", "frontier_dp", 1_740),
    "scan 1 --k 3": (0, "complete, 16 examined", None, None),
}


def commands(workdir):
    """(label, argv after the interpreter), the CLI rows with --json."""
    def graph_file(name, g):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_graph(g))
        return path

    yield "python -c pass", ["-c", "pass"]
    yield "import boxham.cli", ["-c", "import boxham.cli"]
    for kind in ("matching", "p23"):
        base, n = tree(kind, 1000)
        yield (f"hamcycle {kind} tree ({n * base.order})",
               ["-c", MAIN, "hamcycle", "--graph", graph_file(f"{kind}.el", base),
                "--n", str(n), "--json"])
    yield ("check --n 4, flagship",
           ["-c", MAIN, "check", "--graph", graph_file("t1.el", T1), "--n", "4", "--json"])
    flagship = cartesian_product(path_graph(4), T1)
    yield ("toughness --one-tough, flagship",
           ["-c", MAIN, "toughness", "--graph", graph_file("flagship.el", flagship),
            "--one-tough", "--json"])
    yield "scan 1 --k 3", ["-c", MAIN, "scan", "1", "--k", "3", "--json"]


def child_env(cache):
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = cache
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run(argv, env):
    """(wall seconds, exit code, stdout, stderr) of one child process."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done.returncode, done.stdout, done.stderr


def pins(code, stdout):
    """The pinned fields of one run: its exit code and, from the JSON
    object it printed, if any, the answer, decided_by and nodes."""
    if not stdout.strip():
        return (code, None, None, None)
    payload = json.loads(stdout)
    if payload["command"] == "scan":
        answer = f"{payload['status']}, {payload['examined']} examined"
    else:
        answer = payload.get("verdict", payload.get("mode"))
    return (code, answer, payload.get("decided_by"), payload.get("nodes"))


def check(label, code, stdout, stderr):
    got = pins(code, stdout)
    if got != PINS[label]:
        raise SystemExit(f"{label}: answered {got}, pinned {PINS[label]}\n{stderr}")
    return got


def import_times(stderr):
    """Cumulative microseconds of boxham.cli and each boxham module's self
    microseconds, from one -X importtime report."""
    cumulative, own = None, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "boxham" or name.startswith("boxham."):
            own[name] = int(self_us)
            if name == "boxham.cli":
                cumulative = int(cum_us)
    if cumulative is None:
        raise SystemExit("-X importtime reported no import of boxham.cli")
    return cumulative, own


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="one timed run per row, to check the pins")
    parser.add_argument("--out", help="write the rows to this JSON file")
    args = parser.parse_args()
    runs = 1 if args.quick else RUNS

    with tempfile.TemporaryDirectory() as workdir:
        env = child_env(os.path.join(workdir, "pycache"))
        rows = list(commands(workdir))
        importtime = ["-X", "importtime", "-c", "import boxham.cli"]
        answers = {}
        for label, argv in rows:  # untimed: fills the bytecode cache
            _, code, out, err = run(argv, env)
            answers[label] = check(label, code, out, err)
        times = {label: [] for label, _ in rows}
        cumulative, own = [], {}
        for _ in range(runs):
            for label, argv in rows:
                elapsed, code, out, err = run(argv, env)
                check(label, code, out, err)
                times[label].append(elapsed)
            _, code, _, err = run(importtime, env)
            if code:
                raise SystemExit(f"import boxham.cli failed:\n{err}")
            total, parts = import_times(err)
            cumulative.append(total)
            for name, us in parts.items():
                own.setdefault(name, []).append(us)

    header = f"{'command':<34} {'median_ms':>10} {'answer':>22} {'decided_by':>12} {'nodes':>6}"
    print(header)
    print("-" * len(header))
    report_rows = []
    for label, argv in rows:
        code, answer, decided_by, nodes = answers[label]
        median = statistics.median(times[label])
        print(f"{label:<34} {median * 1e3:>10.1f} {answer or '':>22} {decided_by or '':>12} "
              f"{'' if nodes is None else nodes:>6}")
        report_rows.append({
            "command": label,
            "argv": [a if not a.startswith(workdir) else os.path.basename(a) for a in argv],
            "runs": runs,
            "median_s": round(median, 4),
            "exit_code": code,
            "answer": answer,
            "decided_by": decided_by,
            "nodes": nodes,
        })
    import_us = {
        "runs": runs,
        "boxham.cli_cumulative_us": round(statistics.median(cumulative)),
        "self_us": {name: round(statistics.median(us)) for name, us in sorted(own.items())},
    }
    print(f"\nimport boxham.cli (-X importtime): {import_us['boxham.cli_cumulative_us']} us"
          " cumulative; self us: "
          + ", ".join(f"{name} {us}" for name, us in import_us["self_us"].items()))

    if args.out:
        report = {
            "script": "benchmarks/bench_cli.py",
            "quick": args.quick,
            "backend": kernels.backend_name(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "rows": report_rows,
            "import_time": import_us,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
