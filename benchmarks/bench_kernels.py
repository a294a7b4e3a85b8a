#!/usr/bin/env python3
"""Benchmark the compiled C kernels against the pure-Python kernels.

Both backends run the same searches with identical node counts, so the
table is a clean apples-to-apples timing comparison; build the compiled
C module first (``python setup.py build_ext --inplace``).  A second table
shows how ``is_one_tough`` decides one instance per stage that can decide
it, the 32-vertex flagship included, with its deterministic node counts
(states for the frontier DP).

    python benchmarks/bench_kernels.py            # quick set
    python benchmarks/bench_kernels.py --full     # adds the flagship's
                                                  # branch and bound
"""

import argparse
import time

from boxham import _pykernels, kernels
from boxham.graphs import (
    Graph,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    path_graph,
    star_graph,
)
from boxham.toughness import is_one_tough

T1 = Graph.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 7), (4, 8)])
FIG4 = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6)])
CRICKET = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5)])
# a degree-3 tree of order 8 from the scan 1 --k 3 family
SCAN8 = Graph.from_edges(8, [(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (4, 8), (5, 7)])

# deterministic nodes of the ham_cycle rows and subsets of the
# toughness_scan rows, the same on both backends
PINNED_NODES = {
    "P5 x caterpillar6 (found)": 34,
    "P4 x caterpillar8 (none)": 408,
    "P6 x caterpillar8 (found)": 1_174,
    "P8 x scan tree8 (64, found)": 83_687,
    "P2 x caterpillar8": 14_893,
    "P3 x caterpillar6": 63_004,
}


def instances(full):
    yield ("ham_cycle", "P5 x caterpillar6 (found)",
           cartesian_product(path_graph(5), FIG4), "ham_cycle", ())
    yield ("ham_cycle", "P4 x caterpillar8 (none)",
           cartesian_product(path_graph(4), T1), "ham_cycle", ())
    yield ("ham_cycle", "P6 x caterpillar8 (found)",
           cartesian_product(path_graph(6), T1), "ham_cycle", ())
    yield ("ham_cycle", "P8 x scan tree8 (64, found)",
           cartesian_product(path_graph(8), SCAN8), "ham_cycle", ())
    yield ("ham_path", "P4 x caterpillar8",
           cartesian_product(path_graph(4), T1), "ham_path", ())
    yield ("scattering", "P3 x caterpillar8 (24 vertices)",
           cartesian_product(path_graph(3), T1), "scattering_max", (0, 0))
    yield ("toughness_scan", "P2 x caterpillar8",
           cartesian_product(path_graph(2), T1), "toughness_scan", ())
    yield ("toughness_scan", "P3 x caterpillar6",
           cartesian_product(path_graph(3), FIG4), "toughness_scan", ())
    if full:
        yield ("scattering", "P4 x caterpillar8 flagship (32 vertices)",
               cartesian_product(path_graph(4), T1), "scattering_max", (0, 0))


def one_tough_instances():
    """(label, graph, the stage expected to decide it)."""
    yield "K4 (4)", complete_graph(4), "trivial"
    yield ("P5 x caterpillar8 (40)", cartesian_product(path_graph(5), T1),
           "bipartite_imbalance")
    yield "P3 x cricket (15)", cartesian_product(path_graph(3), CRICKET), "matching_barrier"
    yield "P2 x star3 (8)", cartesian_product(path_graph(2), star_graph(3)), "small_cut"
    yield "P3 x caterpillar6 (18)", cartesian_product(path_graph(3), FIG4), "frontier_dp"
    yield "P4 x caterpillar8 (32)", cartesian_product(path_graph(4), T1), "frontier_dp"
    # frontier width 10 under both orders, past the DP's cap
    yield "K10,10 (20)", complete_bipartite(10, 10), "search"


def run_one(impl, func, g, extra):
    adj = list(g.adjacency_masks)
    # the searches take a node cap and a deadline; the toughness scan does not
    args = () if func == "toughness_scan" else (*extra, None, None)
    start = time.perf_counter()
    out = getattr(impl, func)(g.order, adj, *args)
    elapsed = time.perf_counter() - start
    return elapsed, out[-1], out[:-1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="include the long pure-Python flagship branch and bound")
    args = parser.parse_args()

    if kernels.BACKEND != "compiled":
        print("warning: compiled C module not built; comparing pure to itself")
    fast = kernels._fast if kernels.BACKEND == "compiled" else _pykernels

    header = f"{'kernel':<15} {'instance':<38} {'pure':>9} {'compiled C':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for kind, label, g, func, extra in instances(args.full):
        t_pure, nodes, r_pure = run_one(_pykernels, func, g, extra)
        t_fast, nodes2, r_fast = run_one(fast, func, g, extra)
        assert r_pure == r_fast, f"backend mismatch on {label}"
        assert nodes == nodes2
        if label in PINNED_NODES:
            assert nodes == PINNED_NODES[label], f"{label}: {nodes} nodes"
        speedup = t_pure / t_fast if t_fast > 0 else float("inf")
        print(f"{kind:<15} {label:<38} {t_pure:>8.3f}s {t_fast:>9.3f}s {speedup:>7.1f}x")
    print("\nresults identical across backends (including node counts)")

    header = f"{'is_one_tough':<28} {'verdict':>7} {'decided_by':>20} {'nodes':>10} {'time':>9}"
    print("\n" + header)
    print("-" * len(header))
    for label, g, decider in one_tough_instances():
        start = time.perf_counter()
        res = is_one_tough(g)
        elapsed = time.perf_counter() - start
        assert res.decided_by == decider, f"{label} decided by {res.decided_by}"
        print(f"{label:<28} {res.verdict:>7} {res.decided_by:>20} {res.nodes:>10} "
              f"{elapsed:>8.3f}s")

if __name__ == "__main__":
    main()
