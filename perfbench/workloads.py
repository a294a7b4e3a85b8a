"""The four workloads: seeded inputs, the requests sent, and their checks.

A workload builder writes its graph files into a work directory and
returns one *pass*: a fixed list of requests.  The benchmark sends the
pass again and again, so every count (failures, unknowns, search nodes)
is the same in every pass and depends on the seed alone.

Each request is either CLI arguments for ``boxham.cli.main`` or, in
``certify``, a library call that reads its graph file.  ``check`` gets the
parsed answer and returns ``None`` or the reason the answer is wrong;
the README lists the inputs that fail today by design of the data.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks
import gen

# The 8-vertex caterpillar T1 (spine 1-2-3-4-5, legs at 2, 3, 4) of the paper.
T1 = (8, [(1, 2), (2, 3), (2, 6), (3, 4), (3, 7), (4, 5), (4, 8)])

NODE_CAP = 1000          # --max-nodes of every scan-family check
SCAN_MAX_ORDER = 6       # the fixed `scan 1 --k 3` run in every scan pass
LADDER_LENGTH = 600      # P600 x K2, the 1200-vertex ladder
PM_FREE_ORDER = 112      # even trees with a factor but no perfect matching
LABELLED_MATCHING_ORDER = 80  # randomly labelled trees with a perfect matching
LABELLED_P23_ORDER = 31       # randomly labelled {P2,P3} bases with one chord


def unchecked(answer):
    return None


@dataclass
class Request:
    kind: str
    vertices: int
    argv: list[str] | None            # None: a library ``call`` instead
    check: Callable
    call: Callable | None = None
    group: str | None = None          # requests on one instance, for Chvatal
    certificate_expected: bool = False  # exit 5 is then a failure too


class Builder:
    """Collects requests and writes their graph files."""

    def __init__(self, work: str, prefix: str = "g"):
        self.work = work
        self.prefix = prefix
        self.requests: list[Request] = []
        self._files = 0

    def write(self, order, edges) -> str:
        self._files += 1
        path = os.path.join(self.work, f"{self.prefix}{self._files:04d}.txt")
        gen.write_graph(path, order, edges)
        return path

    def add(self, req: Request):
        self.requests.append(req)


# ---------------------------------------------------------------------------
# answer checks shared by the workloads


def cycle_answer(layers, order, edges):
    def check(a):
        if a.code != 0:
            return f"exit {a.code}, want 0"
        return checks.check_cycle(a.payload["cycle"], layers, order, edges)
    return check


def spans_grid(layers, order, edges) -> bool:
    """Whether P_layers x G is Hamiltonian because G has a Hamiltonian path."""
    return layers >= 2 and layers * order % 2 == 0 and checks.has_hamiltonian_path(order, edges)


def oracle_answer(layers, order, edges, *, known_hamiltonian=False):
    """`check`: a verified cycle, or a verdict the benchmark cannot refute.

    ``known_hamiltonian`` makes a ``non_hamiltonian`` verdict wrong.
    """
    sides = checks.bipartite_sides(*gen.product(layers, order, edges))

    def check(a):
        verdict = a.payload.get("verdict")
        if verdict == "hamiltonian":
            if sides is not None and sides[0] != sides[1]:
                return "hamiltonian verdict on an unbalanced bipartite graph"
            return checks.check_cycle(a.payload["cycle"], layers, order, edges)
        if verdict == "non_hamiltonian" and known_hamiltonian:
            return "non_hamiltonian verdict on a Hamiltonian graph"
        if verdict not in ("non_hamiltonian", "unknown"):
            return f"bad verdict {verdict!r}"
        return None
    return check


def one_tough_answer(order, edges):
    sides = checks.bipartite_sides(order, edges)

    def check(a):
        verdict = a.payload.get("verdict")
        if verdict == "no":
            w = a.payload["witness"]
            return checks.check_cut(order, edges, w["cut"], w["components"])
        if verdict == "yes" and sides is not None and sides[0] != sides[1]:
            return "1-tough verdict on an unbalanced bipartite graph"
        if verdict not in ("yes", "unknown"):
            return f"bad verdict {verdict!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# construct: the splice builder at scale


def construct(rng: random.Random, b: Builder, tiny=False):
    """hamcycle over bases of order 10^2..2*10^3 with a factor.

    Matching bases run at n = max degree, {P2,P3} bases (odd order, so no
    perfect matching) at n = 4 * max degree - 2.  Known defects ride
    along: matching trees above the ~2000-vertex recursion ceiling of
    find_perfect_matching, and randomly labelled bases, where the
    exhaustive factor searches show their exponential tail: even trees
    with a factor but no perfect matching, trees with a perfect matching,
    and {P2,P3} bases with one chord (the non-tree search).  The main mix
    keeps the generator's labels, under which those searches never
    backtrack.  The randomly labelled bases are the same for every seed:
    their times span orders of magnitude (0.0002-0.7 s at PM_FREE_ORDER
    vertices; some trees of 104-120 vertices take over 4 s, some matching
    trees of 100 and {P2,P3} bases of 51 over 10 s) and would swamp the
    seed-to-seed comparison.  The ceiling sits near 1950 vertices, so the
    matching bases of the main mix stop at 1800.
    """
    k = 5 if tiny else 1
    top = 300 if tiny else 1800

    def hamcycle(order, edges, n):
        path = b.write(order, edges)
        b.add(Request("hamcycle", n * order,
                      ["hamcycle", "--graph", path, "--n", str(n)],
                      cycle_answer(n, order, edges)))

    for i, size in enumerate(gen.stratified(rng, 36 // k, 100, top, log=True)):
        order, edges = gen.matching_graph(rng, 2 * int(size / 2), 3 + i % 2)
        hamcycle(order, edges, gen.max_degree(order, edges))
    for i, size in enumerate(gen.stratified(rng, 30 // k, 101, top + 200, log=True)):
        order, edges = gen.p23_graph(rng, 2 * int(size / 2) + 1, 3 + i % 2)
        hamcycle(order, edges, 4 * gen.max_degree(order, edges) - 2)
    for i, size in enumerate(gen.stratified(rng, 16 // k, 100, top, log=True)):
        order, edges = gen.matching_graph(rng, 2 * int(size / 2), 4, extra=1 + i % 3)
        hamcycle(order, edges, gen.max_degree(order, edges))
    for i, size in enumerate(gen.stratified(rng, 16 // k, 101, min(top, 1500), log=True)):
        order, edges = gen.p23_graph(rng, 2 * int(size / 2) + 1, 4, extra=1 + i % 3)
        hamcycle(order, edges, 4 * gen.max_degree(order, edges) - 2)
    if tiny:
        return
    for size in gen.stratified(rng, 2, 2100, 2400):
        order, edges = gen.matching_graph(rng, 2 * int(size / 2), 3)
        hamcycle(order, edges, gen.max_degree(order, edges))
    for i in range(8):
        fixed = random.Random(7000 + i)
        order, edges = gen.p23_graph(fixed, PM_FREE_ORDER, 3)
        edges = gen.relabel(fixed, order, edges)
        hamcycle(order, edges, 4 * gen.max_degree(order, edges) - 2)
    for i in range(4):
        fixed = random.Random(7100 + i)
        order, edges = gen.matching_graph(fixed, LABELLED_MATCHING_ORDER, 3)
        edges = gen.relabel(fixed, order, edges)
        hamcycle(order, edges, gen.max_degree(order, edges))
    for i in range(4):
        fixed = random.Random(7200 + i)
        order, edges = gen.p23_graph(fixed, LABELLED_P23_ORDER, 3, extra=1)
        edges = gen.relabel(fixed, order, edges)
        hamcycle(order, edges, 4 * gen.max_degree(order, edges) - 2)


# ---------------------------------------------------------------------------
# decide: the exhaustive searches on small products


def decide(rng: random.Random, b: Builder, tiny=False):
    """check --n and toughness --one-tough on P_n x G, G connected of order
    5..8, plus the paper's fixtures.

    Every pass holds the same grid: each base is checked at every n with
    a product of at most 21 vertices and decided for 1-toughness at one of
    them, in turn.  The 24- and 32-vertex products are the fixed fixtures;
    random ones that large make the pass cost vary with the seed by a
    factor of two.  Two checks per decision keep the median request inside
    the cluster of fast checks rather than on its edge.  The decisions
    set the p90 latency and their cost varies with the base, so 48 bases
    of each order keep it steady across seeds.
    """
    for rep in range(1 if tiny else 48):
        for o in range(5, 9):
            order, edges = gen.random_connected(rng, o, rep % 4)
            base = b.write(order, edges)
            layers = range(2, 21 // o + 1)
            decided = layers[rep % len(layers)]
            for n in layers:
                key = f"r{rep}-{o}" if n == decided else None
                b.add(Request("check", n * order, ["check", "--graph", base, "--n", str(n)],
                              oracle_answer(n, order, edges,
                                            known_hamiltonian=spans_grid(n, order, edges)),
                              group=key))
            prod = gen.product(decided, order, edges)
            b.add(Request("toughness", decided * order,
                          ["toughness", "--graph", b.write(*prod), "--one-tough"],
                          one_tough_answer(*prod), group=f"r{rep}-{o}"))
    if tiny:
        return
    # flagship: P4 x T1 is 1-tough and not Hamiltonian
    base = b.write(*T1)
    b.add(Request("check", 4 * T1[0], ["check", "--graph", base, "--n", "4"],
                  fixed_verdict("non_hamiltonian")))
    # P3 x T1 is bipartite with sides 13 and 11, so it is not 1-tough
    prod = gen.product(3, *T1)
    b.add(Request("toughness", 3 * T1[0],
                  ["toughness", "--graph", b.write(*prod), "--one-tough"],
                  one_tough_answer(*prod)))


def fixed_verdict(verdict):
    def check(a):
        got = a.payload.get("verdict")
        return None if got == verdict else f"verdict {got!r}, the paper proves {verdict!r}"
    return check


# ---------------------------------------------------------------------------
# certify: negative answers and their certificates


def certify(rng: random.Random, b: Builder, boxham, tiny=False):
    """Bases with no {P2,P3}-factor: trees, bipartite and general graphs of
    order 8..16 (each order twice per kind, so the 2^order toughness scans
    cost the same in every pass).  Known defect: trees of order 25..30,
    where hamcycle answers exit 5 with no certificate.
    """
    orders = [8, 12] if tiny else list(range(8, 17)) * 2
    for kind in ("tree", "bipartite", "general"):
        for size in orders:
            order, edges, witness = gen.no_factor_graph(rng, size, kind)
            add_certify_base(b, boxham, kind, order, edges, witness)
    if tiny:
        return
    for size in gen.stratified(rng, 2, 25, 31):
        order, edges, _ = gen.no_factor_graph(rng, int(size), "tree")
        path = b.write(order, edges)
        b.add(Request("hamcycle", 4 * order, ["hamcycle", "--graph", path, "--n", "4"],
                      obstruction_answer(4, order, edges), certificate_expected=True))


def obstruction_answer(layers, order, edges):
    def check(a):
        if a.code == 0:
            return checks.check_cycle(a.payload["cycle"], layers, order, edges)
        if a.code == 4:
            cert = a.payload["error"].get("certificate")
            if cert is None:
                return "exit 4 without a certificate"
            return checks.check_obstruction(order, edges, cert["witness"], cert["isolated"])
        return None
    return check


def pathfactor_answer(order, edges):
    def check(a):
        if a.payload.get("factor") is not None:
            return checks.check_factor(order, edges, a.payload["factor"])
        cert = a.payload.get("certificate")
        if cert is None:
            return "no factor and no certificate" if order <= 24 else None
        return checks.check_obstruction(order, edges, cert["witness"], cert["isolated"])
    return check


def toughness_answer(order, edges, witness):
    comps, _ = checks.removal_counts(order, edges, witness)
    bound = Fraction(len(witness), comps)

    def check(a):
        if a.payload.get("verdict") == "unknown":
            return None
        value = a.payload.get("toughness")
        if value is None or value == "infinite":
            return f"toughness {value!r} for a graph with a cut"
        w = a.payload["witness"]
        return checks.check_toughness(order, edges, value, w["cut"], w["components"], bound)
    return check


def cut_answer(order, edges):
    def check(a):
        return checks.check_cut(order, edges, a.payload["cut"], a.payload["components"])
    return check


def add_certify_base(b: Builder, boxham, kind, order, edges, witness):
    path = b.write(order, edges)
    b.add(Request("hamcycle", 4 * order, ["hamcycle", "--graph", path, "--n", "4"],
                  obstruction_answer(4, order, edges), certificate_expected=True))
    b.add(Request("pathfactor", order, ["pathfactor", "--graph", path, "--kind", "p23"],
                  pathfactor_answer(order, edges)))
    b.add(Request("toughness", order, ["toughness", "--graph", path],
                  toughness_answer(order, edges, witness)))
    graphs, toughness = boxham.graphs, boxham.toughness

    def read():
        with open(path, encoding="utf-8") as fh:
            return graphs.parse_graph(fh.read())

    if kind != "general":
        b.add(Request("product_cut_from_bipartite", 3 * order, None,
                      call=lambda: toughness.product_cut_from_bipartite(3, read()),
                      check=cut_answer(*gen.product(3, order, edges))))
    if kind == "tree":
        m = gen.max_degree(order, edges) - 1
        b.add(Request("product_cut_from_high_degree", m * order, None,
                      call=lambda: toughness.product_cut_from_high_degree(
                          graphs.path_graph(m), read()),
                      check=cut_answer(*gen.product(m, order, edges))))


# ---------------------------------------------------------------------------
# scan: Hamiltonian cycle search on the scanner's own instance family


def scan(rng: random.Random, b: Builder, tiny=False):
    """check --n 8 --max-nodes NODE_CAP on bases of maximum degree 3 and
    order 6..8 with a path factor (products of 48..64 vertices), one
    `scan 1 --k 3` run and, as known defect (a), one check on the
    1200-vertex ladder, where the pure search recurses once per vertex.

    A check either finds a cycle within a few hundred nodes or runs to
    the cap, and the share of each differs between seeds; 400 checks a
    pass, which take each number of triples in turn, keep that share,
    and so the timings, steady across seeds.
    """
    for i in range(20 if tiny else 400):
        order = 6 + i % 3
        triples = [t for t in range(order // 3 + 1) if (order - 3 * t) % 2 == 0]
        while True:
            sizes = gen.component_sizes(rng, order, triples=triples[i // 3 % len(triples)])
            order, edges = gen.factor_graph(rng, sizes, 3, extra=i % 3)
            if gen.max_degree(order, edges) == 3:
                break
        path = b.write(order, edges)
        b.add(Request("check", 8 * order,
                      ["check", "--graph", path, "--n", "8", "--max-nodes", str(NODE_CAP)],
                      oracle_answer(8, order, edges,
                                    known_hamiltonian=spans_grid(8, order, edges))))
    max_order = 5 if tiny else SCAN_MAX_ORDER
    b.add(Request("scan", 0,
                  ["scan", "1", "--k", "3", "--max-order", str(max_order),
                   "--max-nodes", str(NODE_CAP), "--workers", "1",
                   "--out", os.path.join(b.work, "scan.txt")],
                  scan_answer(max_order)))
    if tiny:
        return
    order, edges = gen.ladder(LADDER_LENGTH)
    b.add(Request("check", order, ["check", "--graph", b.write(order, edges)],
                  oracle_answer(1, order, edges, known_hamiltonian=True)))


def scan_answer(max_order):
    def check(a):
        p = a.payload
        if p.get("params") != {"k": 3, "layers": 8, "max_order": max_order, "start_index": 0}:
            return f"scan params {p.get('params')!r}"
        if p.get("status") != "complete" or p.get("examined", 0) < 1:
            return f"scan status {p.get('status')!r} after {p.get('examined')} instances"
        if p.get("last_index") != p["examined"] - 1:
            return "scan last_index does not match the examined count"
        if any(cx.get("layers") != 8 for cx in p.get("counterexamples", [])):
            return "counterexample with a layer count other than 8"
        return None
    return check


def build(name: str, seed: int, work: str, boxham, tiny=False) -> list[Request]:
    rng = random.Random(seed)
    b = Builder(work)
    if name == "certify":
        certify(rng, b, boxham, tiny)
    else:
        WORKLOADS[name](rng, b, tiny)
    return b.requests


WORKLOADS = {"construct": construct, "decide": decide, "certify": certify, "scan": scan}


def warmup(work: str) -> list[Request]:
    """One tiny request per command, run before timing starts."""
    b = Builder(work, prefix="warmup")
    path = b.write(4, [(1, 2), (2, 3), (3, 4)])
    for argv in (["hamcycle", "--graph", path, "--n", "2"],
                 ["check", "--graph", path, "--n", "2"],
                 ["toughness", "--graph", path, "--one-tough"],
                 ["toughness", "--graph", path],
                 ["pathfactor", "--graph", path]):
        b.add(Request(argv[0], 0, argv, unchecked))
    return b.requests
