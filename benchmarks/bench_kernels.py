#!/usr/bin/env python3
"""Time the search kernels and pin their deterministic node counts.

The first table times each kernel of ``boxham._pykernels`` on one
instance and stops with an error when a node count (subsets for the
toughness scan) differs from ``PINNED_NODES``.  A second table shows how
``is_one_tough`` decides one instance per stage that can decide it, the
32-vertex flagship and one relabelled copy of it included, and a third
how ``check --n`` decides one product per stage of
``oracle.find_product_cycle``, timed as ``check`` pays for it: the
product graph is built inside, by the search stage only.  Its last rows
are the 250-vertex matching tree of ``bench_builder.py`` at its degree
4, which the splice answers, and ``check`` without ``--n`` on the ladder
P600 x K2, which the entry splits into its base and layers and splices;
the first table keeps the search's own time on it.  The second and
third tables stop with an error when a row's deciding stage or its
deterministic node count (states for the frontier DP) differs from its
pin.  A fourth table times whole in-process ``cli.main`` calls, as a
scanner pays for each instance: ``check --n 8 --json`` on the scan tree
(the splice answers) and ``check --n 4 --json`` on the flagship (the
search answers).  It gives the median microseconds per call and the
share of that median spent parsing argv (``cli._parse``, its checks
included), and pins each answer's stage and nodes the same way.

    python benchmarks/bench_kernels.py            # quick set
    python benchmarks/bench_kernels.py --full     # adds the flagship's
                                                  # branch and bound
    PYTHONPATH=src python benchmarks/bench_kernels.py --out BENCH_kernels.json

``--out`` writes every row (its nodes, seconds and deciding stage or
kernel) with the backend, the Python version and the CPU count.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import tempfile
import time

from boxham import _pykernels, cli, kernels
from boxham.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    format_graph,
    path_graph,
    star_graph,
)
from boxham.oracle import find_product_cycle
from boxham.toughness import is_one_tough

from bench_builder import tree

T1 = Graph.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 7), (4, 8)])
FIG4 = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6)])
CRICKET = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5)])
# a degree-3 tree of order 8 from the scan 1 --k 3 family
SCAN8 = Graph.from_edges(8, [(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (4, 8), (5, 7)])

LADDER = cartesian_product(path_graph(600), path_graph(2))
# a perfect matching and maximum degree 4, relabelled
MATCHING_TREE, _ = tree("matching", 1000)
SWAP_47_48 = {47: 48, 48: 47}
P6_T1_SWAPPED = Graph.from_edges(48, [
    (SWAP_47_48.get(u, u), SWAP_47_48.get(v, v))
    for u, v in cartesian_product(path_graph(6), T1).edges])


def relabelled(g, rng, copies):
    """The last of ``copies`` relabellings of g by ``rng``'s shuffles."""
    for _ in range(copies):
        perm = list(g.vertices())
        rng.shuffle(perm)
    return Graph.from_edges(g.order, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


# frontier width 20 under the identity order and 13 under the BFS order,
# past the DP's cap; the greedy order is 6 wide
FLAGSHIP_RELABELLED = relabelled(cartesian_product(path_graph(4), T1), random.Random(7), 4)

# the Petersen graph minus its edge 1-2 on ids 1..10 and K11 on ids 11..21,
# joined by the edges 1-11 and 2-21: a Hamiltonian cycle would cross that
# 2-edge cut twice and hold a Hamiltonian 1-2 path of the fragment, which
# the Petersen graph has not
K11_FRAGMENT = Graph.from_edges(21, [
    (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (10, 7), (7, 9), (9, 6), (1, 11), (2, 21),
    *((u, v) for u in range(11, 22) for v in range(u + 1, 22))])

# five K2 components, each joined to every vertex of S = {1, 5, 9, 14}:
# frontier width 12 and 10 under the two orders, and S leaves 5 components
FIVE_K2 = Graph.from_edges(14, [(2, 3), (4, 6), (7, 8), (10, 11), (12, 13)] + [
    (s, v) for s in (1, 5, 9, 14) for v in range(1, 15) if v not in (1, 5, 9, 14)])

# deterministic nodes of the search rows and subsets of the toughness_scan
# rows
PINNED_NODES = {
    "P5 x caterpillar6 (found)": 34,
    "P4 x caterpillar8 (none)": 408,
    "P6 x caterpillar8 (found)": 1_174,
    "P8 x scan tree8 (64, found)": 83_687,
    "P600 x K2 ladder (1200, found)": 2_989,
    "P3 x caterpillar8 (24 vertices)": 251_734,
    "P4 x caterpillar8 flagship (32 vertices)": 15_567_633,
    "P2 x caterpillar8": 14_893,
    "P3 x caterpillar6": 63_004,
}


def instances(full):
    yield ("ham_cycle", "P5 x caterpillar6 (found)",
           cartesian_product(path_graph(5), FIG4), "ham_cycle")
    yield ("ham_cycle", "P4 x caterpillar8 (none)",
           cartesian_product(path_graph(4), T1), "ham_cycle")
    yield ("ham_cycle", "P6 x caterpillar8 (found)",
           cartesian_product(path_graph(6), T1), "ham_cycle")
    yield ("ham_cycle", "P8 x scan tree8 (64, found)",
           cartesian_product(path_graph(8), SCAN8), "ham_cycle")
    yield ("ham_cycle", "P600 x K2 ladder (1200, found)", LADDER, "ham_cycle")
    yield ("scattering", "P3 x caterpillar8 (24 vertices)",
           cartesian_product(path_graph(3), T1), "scattering_max")
    yield ("toughness_scan", "P2 x caterpillar8",
           cartesian_product(path_graph(2), T1), "toughness_scan")
    yield ("toughness_scan", "P3 x caterpillar6",
           cartesian_product(path_graph(3), FIG4), "toughness_scan")
    if full:
        yield ("scattering", "P4 x caterpillar8 flagship (32 vertices)",
               cartesian_product(path_graph(4), T1), "scattering_max")


def one_tough_instances():
    """(label, graph, the stage expected to decide it, its nodes)."""
    yield "K4 (4)", complete_graph(4), "trivial", 0
    # unbalanced bipartite: the failed matching search leaves the smaller side
    yield ("P5 x caterpillar8 (40)", cartesian_product(path_graph(5), T1),
           "matching_barrier", 0)
    yield ("P3 x cricket (15)", cartesian_product(path_graph(3), CRICKET),
           "matching_barrier", 0)
    yield "P2 x star3 (8)", cartesian_product(path_graph(2), star_graph(3)), "small_cut", 0
    # a layer-major product: the splice answers at 0 nodes
    yield ("P6 x caterpillar8 (48)", cartesian_product(path_graph(6), T1),
           "hamiltonian_cycle", 0)
    # the same graph with ids 47 and 48 swapped is no layer-major product:
    # the search meets a cycle at node 1,174, within its cap of 32 * 48
    yield "P6 x caterpillar8 relabelled", P6_T1_SWAPPED, "hamiltonian_cycle", 1_174
    yield ("P3 x caterpillar6 (18)", cartesian_product(path_graph(3), FIG4),
           "frontier_dp", 255)
    yield ("P4 x caterpillar8 (32)", cartesian_product(path_graph(4), T1),
           "frontier_dp", 1_740)
    yield "P4 x caterpillar8 relabelled", FLAGSHIP_RELABELLED, "frontier_dp", 1_703
    # too wide for the DP under every order (the greedy one passes the cap
    # inside K11), and no Hamiltonian cycle for the cycle stage to find
    yield "K11 + Petersen fragment (21)", K11_FRAGMENT, "search", 40_407
    # not 1-tough: the branch and bound answers "no" with the cut S
    yield "five K2 + 4-vertex cut (14)", FIVE_K2, "search", 601


def check_instances():
    """(label, base, n, the stage expected to decide it, its nodes)."""
    yield "P3 x caterpillar8 (24)", T1, 3, "bipartite_imbalance", 0
    # two layers below the proven bound 4 * 3 - 2
    yield "P8 x scan tree8 (64)", SCAN8, 8, "splice", 0
    # the flagship: the splice does not close and the search finds no cycle
    yield "P4 x caterpillar8 (32)", T1, 4, "search", 408
    # the matching route's proven bound n >= 4, far below 4 * 4 - 2
    yield "P4 x matching tree250 (1000)", MATCHING_TREE, 4, "splice", 0
    # check without --n: one layer, which the entry splits into 600
    yield "P600 x K2 ladder, no --n", LADDER, 1, "splice", 0


# in-process calls per cli.main row; each row's median is over this many
CLI_CALLS = 200


def cli_instances():
    """(label, base, argv, the stage expected to decide it, its nodes)."""
    yield "check --n 8, scan tree8", SCAN8, ["check", "--n", "8"], "splice", 0
    yield "check --n 4, flagship", T1, ["check", "--n", "4"], "search", 408


def median_seconds(call, calls):
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_row(label, base, argv, stage, pinned, workdir):
    """Time ``cli.main`` on argv with the base's edge list and ``--json``
    appended, and the argv parse alone; check the answer's pins."""
    path = os.path.join(workdir, "base.el")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(base))
    argv = [*argv, "--graph", path, "--json"]
    out = io.StringIO()

    def call():
        out.seek(0)
        out.truncate()
        with contextlib.redirect_stdout(out):
            cli.main(argv)

    call()
    payload = json.loads(out.getvalue())
    if (payload["decided_by"], payload["nodes"]) != (stage, pinned):
        raise SystemExit(f"{label} decided by {payload['decided_by']} in {payload['nodes']} "
                         f"nodes, expected {stage} in {pinned}")
    per_call = median_seconds(call, CLI_CALLS)
    parse = median_seconds(lambda: cli._parse(argv), CLI_CALLS)
    print(f"{label:<28} {payload['verdict']:>15} {per_call * 1e6:>10.1f} "
          f"{parse / per_call:>12.1%}")
    return {**row("cli.main", label, pinned, per_call, stage), "calls": CLI_CALLS,
            "median_us": round(per_call * 1e6, 1), "parse_share": round(parse / per_call, 3)}


def run_one(func, g):
    # the searches take a node cap and a deadline; the toughness scan does not
    args = () if func == "toughness_scan" else (None, None)
    start = time.perf_counter()
    out = getattr(_pykernels, func)(g.order, g.adjacency_masks, *args)
    return time.perf_counter() - start, out[-1]


def staged(table, label, call, args, stage, pinned, answer):
    """Run one row of a table whose rows pin (decided_by, nodes)."""
    start = time.perf_counter()
    res = call(*args)
    elapsed = time.perf_counter() - start
    if (res.decided_by, res.nodes) != (stage, pinned):
        raise SystemExit(f"{label} decided by {res.decided_by} in {res.nodes} nodes, "
                         f"expected {stage} in {pinned}")
    print(f"{label:<28} {getattr(res, answer):>7} {res.decided_by:>20} {res.nodes:>10} "
          f"{elapsed:>8.3f}s")
    return row(table, label, res.nodes, elapsed, res.decided_by)


def row(table, label, nodes, seconds, decided_by):
    return {"table": table, "instance": label, "nodes": nodes,
            "seconds": round(seconds, 4), "decided_by": decided_by}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="include the long flagship branch and bound")
    parser.add_argument("--out", help="write the rows to this JSON file")
    args = parser.parse_args()
    rows = []

    header = f"{'kernel':<15} {'instance':<38} {'nodes':>10} {'time':>9}"
    print(header)
    print("-" * len(header))
    for kind, label, g, func in instances(args.full):
        elapsed, nodes = run_one(func, g)
        if nodes != PINNED_NODES[label]:
            raise SystemExit(f"{label}: {nodes} nodes, pinned {PINNED_NODES[label]}")
        print(f"{kind:<15} {label:<38} {nodes:>10} {elapsed:>8.3f}s")
        rows.append(row("kernel", label, nodes, elapsed, func))

    header = f"{'is_one_tough':<28} {'verdict':>7} {'decided_by':>20} {'nodes':>10} {'time':>9}"
    print("\n" + header)
    print("-" * len(header))
    for label, g, stage, pinned in one_tough_instances():
        rows.append(staged("is_one_tough", label, is_one_tough, (g,), stage, pinned,
                           "verdict"))

    header = f"{'check --n':<28} {'status':>7} {'decided_by':>20} {'nodes':>10} {'time':>9}"
    print("\n" + header)
    print("-" * len(header))
    for label, base, n, stage, pinned in check_instances():
        rows.append(staged("check --n", label, find_product_cycle, (base, n), stage, pinned,
                           "status"))

    header = f"{'cli.main --json':<28} {'verdict':>15} {'median_us':>10} {'parse_share':>12}"
    print("\n" + header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as workdir:
        for label, base, argv, stage, pinned in cli_instances():
            rows.append(cli_row(label, base, argv, stage, pinned, workdir))

    if args.out:
        report = {
            "script": "benchmarks/bench_kernels.py",
            "full": args.full,
            "backend": kernels.backend_name(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "rows": rows,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
