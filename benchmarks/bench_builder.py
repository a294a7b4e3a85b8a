#!/usr/bin/env python3
"""Time the splice builder stage by stage at 10^3..10^6 product vertices.

Two seeded tree families, both relabelled by a seeded permutation:

* ``matching``: a random spine tree of spine degree at most 3 with a leaf
  on every spine vertex.  It has a perfect matching and maximum degree 4,
  and is built at n = max degree.
* ``p23``: the same kind of spine with a pendant 2-path on each odd spine
  vertex and two leaves on each even one.  It has a {P2,P3}-factor but no
  perfect matching, and is built at n = 4 * max degree - 2.

Each row runs in its own child process, so its peak RSS is its own.  The
stages are the ones ``build_cycle`` and ``hamcycle`` run, timed one by
one: the factor search, the spanning tree (both families are trees, and
a tree base is its own spanning tree, so none is built), the peel order,
the assembly, the builder's check of the cycle against the product over
the tree (``verify_product_cycle``, which needs no product graph) and
``format_cycle``.  The assembly counts each column's vertical edges as
it splices.  The peak RSS is read after the stages.  The row then
checks that the public builder gives the same cycle and column counts,
and, off the clock, that the paper's column contract and ``verify_cycle``
on the product graph accept the cycle too.

    PYTHONPATH=src python benchmarks/bench_builder.py          # writes BENCH_builder.json
"""

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time

from boxham import cycles, kernels
from boxham.factors import find_p23_factor, find_perfect_matching
from boxham.graphs import Graph, cartesian_product, max_degree, path_graph

TARGETS = (1_000, 10_000, 100_000, 1_000_000)
KINDS = ("matching", "p23")
SEED = 1


def spine(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """Random tree on 1..m: vertex v hangs off an earlier vertex of degree
    below 3."""
    degree = [0] * (m + 1)
    ports = [1]
    edges = []
    for v in range(2, m + 1):
        j = rng.randrange(len(ports))
        u = ports[j]
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
        if degree[u] == 3:
            ports[j] = ports[-1]
            ports.pop()
        ports.append(v)
    return edges


def tree(kind: str, target: int) -> tuple[Graph, int]:
    """A relabelled tree of the family and the layer count it is built at;
    the product has about ``target`` vertices."""
    rng = random.Random(f"{kind}-{target}-{SEED}")
    if kind == "matching":
        m = max(2, target // 8)  # order 2m at n = 4
        edges = spine(rng, m) + [(v, m + v) for v in range(1, m + 1)]
    else:
        m = max(2, target // 54)  # order 3m at n = 18
        edges = spine(rng, m)
        for v in range(1, m + 1):
            a, b = m + 2 * v - 1, m + 2 * v
            edges += [(v, a), (a, b)] if v % 2 else [(v, a), (v, b)]
    order = max(max(e) for e in edges)
    labels = list(range(1, order + 1))
    rng.shuffle(labels)
    t = Graph.from_edges(order, [(labels[u - 1], labels[v - 1]) for u, v in edges])
    dmax = max_degree(t)
    return t, dmax if kind == "matching" else 4 * dmax - 2


def timed(stages: dict, name: str, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    stages[name] = round(time.perf_counter() - start, 4)
    return out


def row(kind: str, target: int) -> dict:
    base, n = tree(kind, target)
    stages: dict[str, float] = {}
    search = find_perfect_matching if kind == "matching" else find_p23_factor
    factor = timed(stages, "factor", search, base)
    t = timed(stages, "spanning_tree", cycles._spanning_tree, base, factor)
    peel = timed(stages, "peel_order", cycles.component_peel_order, t, factor)
    # This bench is deliberately tied to the private steps of cycles._route
    # (its spanning tree) and cycles._build (the peel order and the layer
    # rule, then _assemble, then verify_product_cycle on the tree): the
    # assembly has no public entry point that leaves out the check, and it
    # is the stage this file exists to time.  The public builder is run
    # below on the same input and must give the same cycle and column
    # counts, so a refactor of _build that changes what it does makes this
    # bench fail, not drift.
    cycle, roles, counts = timed(stages, "assembly", cycles._assemble, n, t, factor, peel)
    ok_product_free = timed(stages, "verify_product_cycle", cycles.verify_product_cycle,
                            t, n, cycle)
    timed(stages, "format_cycle", cycles.format_cycle, cycle)
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    builder = (cycles.build_cycle_matching if kind == "matching"
               else cycles.build_cycle_path_factor)
    out = {
        "kind": kind,
        "base_order": base.order,
        "layers": n,
        "product_vertices": n * base.order,
        "stages_s": stages,
        "total_s": round(sum(stages.values()), 4),
        "peak_rss_mb": peak_rss_mb,
        "contract_ok": cycles.verify_column_contract(cycle, t, roles, n),
        "verify_product_cycle_ok": ok_product_free,
    }
    res = builder(n, t, factor)
    if (res.cycle, res.column_counts) != (cycle, counts):
        raise SystemExit(f"{kind} {target}: the stages no longer give the builder's answer")
    start = time.perf_counter()
    out["verify_cycle_ok"] = cycles.verify_cycle(cartesian_product(path_graph(n), base), cycle)
    out["verify_cycle_with_product_s"] = round(time.perf_counter() - start, 4)
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="BENCH_builder.json")
    parser.add_argument("--row", nargs=2, metavar=("KIND", "TARGET"), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.row:
        print(json.dumps(row(args.row[0], int(args.row[1]))))
        return

    rows = []
    for target in TARGETS:
        for kind in KINDS:
            cmd = [sys.executable, os.path.abspath(__file__), "--row", kind, str(target)]
            done = subprocess.run(cmd, check=True, capture_output=True, text=True)
            r = json.loads(done.stdout.splitlines()[-1])
            rows.append(r)
            print(f"{kind:<9} {r['product_vertices']:>9} vertices  "
                  f"total {r['total_s']:>8.3f}s  rss {r['peak_rss_mb']:>7.1f} MB  "
                  + " ".join(f"{k}={v}" for k, v in r["stages_s"].items()), flush=True)
    report = {
        "script": "benchmarks/bench_builder.py",
        "seed": SEED,
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
