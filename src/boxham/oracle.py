"""Brute-force oracles, the product entry, named fixtures, canonical
forms, tree enumeration, and scanners.

The exhaustive Hamiltonicity search shares no code with the builders, so
it cross-checks everything the constructive pipeline claims.
:func:`find_product_cycle` is the one Hamiltonian-cycle entry, for
``check``, ``check --n``, both scanners and the cycle stage of
``toughness.is_one_tough``: it answers from the bipartite imbalance read
off the base's sides, from :func:`~boxham.cycles.splice_attempt`, the
splice builder run with no layer bound and unchecked, or from the
search, and every cycle it returns has passed
:func:`~boxham.cycles.verify_product_cycle` once, at its return.  The
check and the imbalance answer work from the base alone: the product
graph is built only when the search runs.  A plain graph that is a
product in layer-major ids, as ``boxham product`` writes it, is split
into its base and layers (:func:`~boxham.graphs.product_split`) and
spliced like one given with its layer count.
:func:`find_spanning_path` answers traceability by the same search on
the graph plus an apex vertex, and checks its path before returning it.
:func:`canonical_form` names the isomorphism class of a connected graph
with at most one cycle in linear-size AHU strings; it deduplicates the
enumerated trees and the scanners' bases, so no scan runs an
isomorphism search.
"""

from __future__ import annotations

import os
import time
from itertools import takewhile
from typing import Iterator, NamedTuple

from . import kernels
from .cycles import HamCycle, path_factor_min_layers, splice_attempt, verify_product_cycle
from .errors import BudgetExceededError, NotBipartiteError, PreconditionFailedError
from .factors import find_p23_factor
from .graphs import (
    Graph,
    bipartition,
    cartesian_product,
    degree_stats,
    is_bipartite,
    is_connected,
    path_graph,
    product_split,
)

# The cycle stage tries a splice from this many vertices on; below it the
# search is quicker: on random connected bases of order 4-8, at 16-23
# product vertices, its median time is 0.16 ms against 0.20 ms for a
# splice attempt.
SPLICE_MIN_ORDER = 24


class OracleResult(NamedTuple):
    status: str  # "found" | "none" | "unknown"
    cycle: HamCycle | None
    nodes: int
    decided_by: str = "search"  # or "bipartite_imbalance" | "splice"

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def verdict(self) -> str:
        """"hamiltonian", "non_hamiltonian" or "unknown"."""
        return _VERDICTS[self.status]


_VERDICTS = {"found": "hamiltonian", "none": "non_hamiltonian", "unknown": "unknown"}


class PathResult(NamedTuple):
    status: str
    path: tuple[int, ...] | None
    nodes: int


def _side_gap(g: Graph) -> int:
    """Size difference of the bipartition sides; 0 for a non-bipartite graph."""
    try:
        bip = bipartition(g)
    except NotBipartiteError:
        return 0
    return abs(len(bip.side_a) - len(bip.side_b))


def _product_side_gap(base: Graph, n: int) -> int:
    """:func:`_side_gap` of the n-layer product over ``base``, from the
    base alone: the layers alternate colours, so the product's sides
    differ by the base's when n is odd and not at all when n is even."""
    return _side_gap(base) if n % 2 else 0


def find_hamiltonian_cycle(g: Graph, *, deadline: float | None = None,
                           max_nodes: int | None = None) -> OracleResult:
    """:func:`find_product_cycle` on the one-layer product, which is ``g``:
    a layer-major product may answer from the splice, any other graph
    from the search."""
    return find_product_cycle(g, 1, deadline=deadline, max_nodes=max_nodes)


def find_product_cycle(base: Graph, n: int, *,
                       deadline: float | None = None,
                       max_nodes: int | None = None) -> OracleResult:
    """Hamiltonian cycle of the n-layer product over ``base``, with the
    stage that decided it in ``decided_by``.

    A bipartite product with unequal sides has none
    ("bipartite_imbalance", read off the base's sides).  From
    ``SPLICE_MIN_ORDER`` vertices and 4 layers on, a splice attempt
    answers "found" at 0 nodes; it gives None wherever its cycle does not
    close.  Otherwise the exhaustive search runs under the caps and builds
    the product graph (``base`` itself at n = 1).  At n = 1 the splice
    reads the base and layer count off ``base`` itself with
    :func:`product_split`; the ids of a split product already are the
    graph's, so its cycle comes back in the one-layer shape.  A cycle from
    either stage comes in the product's shape and is returned only once
    :func:`verify_product_cycle` accepts it on ``base`` and n.  A lone
    edge counts as the degenerate two-vertex cycle, matching the
    validators.
    """
    if n < 1:
        raise ValueError("layer count must be positive")
    order = n * base.order
    if order >= 3 and _product_side_gap(base, n) > 0:
        return OracleResult("none", None, 0, "bipartite_imbalance")
    h, m = product_split(base) if n == 1 and order >= SPLICE_MIN_ORDER else (base, n)
    cycle = splice_attempt(h, m) if order >= SPLICE_MIN_ORDER and m >= 4 else None
    if cycle is not None:
        res = OracleResult("found", HamCycle(n, base.order, cycle.seq), 0, "splice")
    else:
        product = base if n == 1 else cartesian_product(path_graph(n), base)
        status, seq, nodes = kernels.ham_cycle(
            product, max_nodes=max_nodes, deadline=deadline)
        res = OracleResult(status, HamCycle(n, base.order, seq) if seq else None, nodes)
    if res.found and not verify_product_cycle(base, n, res.cycle):
        raise AssertionError(f"{res.decided_by} cycle on {n} layers failed its check")
    return res


def find_spanning_path(g: Graph, *, deadline: float | None = None,
                       max_nodes: int | None = None) -> PathResult:
    """Exhaustive spanning path oracle (traceability): the cycle search on
    ``g`` plus an apex joined to every vertex, as vertex 1 (g's vertex v
    is v + 1), with the apex dropped from the cycle; ``nodes`` counts that
    search.  A bipartite graph whose sides differ by more than one answers
    "none" at 0 nodes.  A path it returns has visited every vertex once
    along edges of ``g``, or it raises ``AssertionError``."""
    if g.order >= 3 and _side_gap(g) > 1:
        return PathResult("none", None, 0)
    apexed = Graph(g.order + 1, tuple((1, v + 1) for v in g.vertices())
                   + tuple((u + 1, v + 1) for u, v in g.edges))
    status, cycle, nodes = kernels.ham_cycle(
        apexed, max_nodes=max_nodes, deadline=deadline)
    seq = None if cycle is None else tuple(v - 1 for v in cycle[1:])
    if seq is not None and (sorted(seq) != list(g.vertices())
                            or not all(map(g.has_edge, seq, seq[1:]))):
        raise AssertionError(f"search path on {g.order} vertices failed its check")
    return PathResult(status, seq, nodes)


# ---------------------------------------------------------------------------
# fixtures


class Fixtures(NamedTuple):
    """The three recurring test graphs.

    t1: the 8-vertex caterpillar (spine 1-2-3-4-5, legs at 2, 3, 4) whose
        4-layer product is the flagship 1-tough non-Hamiltonian instance.
    fig4: the 6-vertex caterpillar whose 5-layer product is Hamiltonian
        despite the odd layer count.
    fig1: a 7-vertex graph with toughness exactly 1 and no Hamiltonian
        cycle, the smallest such example we carry.
    """

    t1: Graph
    fig4: Graph
    fig1: Graph


_FIXTURES: Fixtures | None = None


def fixtures() -> Fixtures:
    """Named fixture graphs, re-verified once per process: fig1 was
    transcribed from a drawing, so the two claims that define it
    (toughness 1, no Hamiltonian cycle) are rechecked first."""
    global _FIXTURES
    if _FIXTURES is None:
        t1 = Graph.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 7), (4, 8)])
        fig4 = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6)])
        fig1 = Graph.from_edges(7, [(1, 2), (1, 3), (1, 7), (2, 3), (2, 4),
                                    (3, 5), (4, 6), (5, 6), (6, 7)])
        size, comps, _, _ = kernels.toughness_scan(fig1)
        if size != comps:
            raise AssertionError(f"fig1 transcription broken: toughness {size}/{comps}")
        if find_hamiltonian_cycle(fig1).status != "none":
            raise AssertionError("fig1 transcription broken: found a Hamiltonian cycle")
        _FIXTURES = Fixtures(t1, fig4, fig1)
    return _FIXTURES


# ---------------------------------------------------------------------------
# canonical forms and tree enumeration


def _rooted_canon(g: Graph, v: int, skip) -> str:
    """AHU string of the tree at ``v`` that leaves out the vertices in
    ``skip``: its children's strings, sorted, inside one pair of parentheses."""
    return "(" + "".join(sorted(_rooted_canon(g, w, (v,))
                                for w in g.neighbors(v) if w not in skip)) + ")"


def canonical_form(g: Graph) -> str:
    """Canonical string of a connected graph with at most one cycle.

    Leaves are pruned layer by layer down to the core: a tree's one or two
    centres, or the graph's cycle.  A tree's form is the AHU string rooted
    at its centre, or both centres' strings sorted and joined by "|".  A
    graph with one cycle gives the strings of the trees hanging off the
    cycle, read around it, and its form is their least concatenation over
    every rotation and reflection.  Raises ``ValueError`` for a
    disconnected graph or one with more edges than vertices.
    """
    if g.size > g.order or not is_connected(g):
        raise ValueError("a canonical form needs a connected graph with at most one cycle")
    deg = {v: g.degree(v) for v in g.vertices()}
    layer = [v for v in deg if deg[v] <= 1]
    core = set(deg)
    while layer and len(core) > 2:
        core.difference_update(layer)
        nxt = []
        for v in layer:
            for w in g.neighbors(v):
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    if g.size < g.order:
        return "|".join(sorted(_rooted_canon(g, c, core) for c in core))
    ring = [min(core)]
    while len(ring) < len(core):
        ring.append(next(w for w in g.neighbors(ring[-1])
                         if w in core and w not in ring[-2:]))
    hanging = [_rooted_canon(g, c, core) for c in ring]
    return min("".join(s[i:] + s[:i])
               for s in (hanging, hanging[::-1]) for i in range(len(s)))


def enumerate_trees(max_order: int) -> Iterator[Graph]:
    """One tree per isomorphism class, orders 2..max_order, deterministic.

    Grows trees by attaching a new leaf to every vertex of every smaller
    tree and deduplicates with the centroid-rooted canonical form.  Capped
    at order 12, which is plenty for desk-scale sweeps.
    """
    if max_order > 12:
        raise BudgetExceededError("tree enumeration capped at order 12")
    if max_order < 2:
        return
    seed = Graph.from_edges(2, [(1, 2)])
    level = {canonical_form(seed): seed}
    for canon in sorted(level):
        yield level[canon]
    order = 2
    while order < max_order:
        nxt: dict[str, Graph] = {}
        for canon in sorted(level):
            g = level[canon]
            for v in g.vertices():
                bigger = Graph.from_edges(g.order + 1, list(g.edges) + [(v, g.order + 1)])
                key = canonical_form(bigger)
                if key not in nxt:
                    nxt[key] = bigger
        order += 1
        for canon in sorted(nxt):
            yield nxt[canon]
        level = nxt


# ---------------------------------------------------------------------------
# scans


class ScanEntry(NamedTuple):
    key: str
    base: Graph
    layers: int
    verdict: str  # "hamiltonian" | "non_hamiltonian" | "unknown"
    in_range: bool  # inside the range the scanned claim actually covers


class ScanReport(NamedTuple):
    """A scan's instances and how far it got: "complete" or "truncated",
    and the index of the last instance examined."""

    kind: str
    params: dict
    entries: tuple[ScanEntry, ...]
    status: str
    last_index: int

    @property
    def instances_examined(self) -> int:
        return len(self.entries)

    @property
    def counterexamples(self) -> list[ScanEntry]:
        return [e for e in self.entries if e.verdict == "non_hamiltonian" and e.in_range]


def _graph_key(g: Graph) -> str:
    inner = ",".join(f"{u}-{v}" for u, v in g.edges)
    return f"n{g.order}:{inner}"


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _candidate_bases(max_order: int, *, degree: int | None = None,
                     bipartite_only: bool = False,
                     deadline: float | None = None) -> list[Graph]:
    """Connected graphs with a 2/3-path factor: trees first, then trees
    plus one extra edge, one per isomorphism class by :func:`canonical_form`.
    The enumeration stops, with the bases found so far, once the deadline
    has passed."""
    out: list[Graph] = []
    trees: list[Graph] = []
    for t in enumerate_trees(max_order):
        if _past(deadline):
            return out
        trees.append(t)
        if degree is not None and degree_stats(t).maximum != degree:
            continue
        if find_p23_factor(t) is None:
            continue
        out.append(t)
    forms: set[str] = set()
    for t in trees:
        if _past(deadline):
            return out
        existing = set(t.edges)
        for u in t.vertices():
            for v in range(u + 1, t.order + 1):
                if (u, v) in existing:
                    continue
                g = Graph.from_edges(t.order, list(t.edges) + [(u, v)])
                if degree is not None and degree_stats(g).maximum != degree:
                    continue
                if bipartite_only and not is_bipartite(g):
                    continue
                form = canonical_form(g)
                if form in forms:
                    continue
                forms.add(form)
                if find_p23_factor(g) is not None:
                    out.append(g)
    return out


def _judge_instance(args) -> tuple[str, str] | None:
    """One job's (key, verdict); None past its deadline."""
    order, edges, layers, max_nodes, deadline = args
    base = Graph(order, edges)
    res = find_product_cycle(base, layers, deadline=deadline, max_nodes=max_nodes)
    if _past(deadline):
        return None
    return (_graph_key(base), res.verdict)


def _run_instances(instances, start_index: int, workers: int,
                   deadline: float | None, max_nodes: int | None):
    """Judge the (base, layers, in_range) instances from ``start_index``
    on, across at most ``workers`` processes, one per job and CPU: a pool
    forks all of its processes at the first submit.  Returns the report's
    (entries, status, last_index).

    Instances carry canonical keys and results are collected in submission
    order, so the entries are identical whatever order the workers finish
    in.  Every search takes the scan's one deadline, which workers share;
    a scan that the deadline cuts short is "truncated" before the first
    late verdict, or before the first instance when the deadline passed
    during the enumeration, which may then be incomplete.
    """
    instances = instances[start_index:]
    jobs = [(g.order, g.edges, layers, max_nodes, deadline) for g, layers, _ in instances]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    late = _past(deadline)
    if late:
        verdicts = []
    elif workers > 1:
        # the pool's import is paid only by a scan that asks for workers
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            verdicts = list(takewhile(bool, pool.map(_judge_instance, jobs)))
    else:
        verdicts = list(takewhile(bool, map(_judge_instance, jobs)))
    entries = tuple(ScanEntry(key, g, layers, verdict, in_range)
                    for (g, layers, in_range), (key, verdict) in zip(instances, verdicts))
    status = "truncated" if late or len(verdicts) < len(instances) else "complete"
    return entries, status, start_index + len(verdicts) - 1


def scan_below_layer_bound(k: int, max_order: int, *,
                           deadline: float | None = None,
                           max_nodes_per_instance: int | None = None,
                           workers: int = 1,
                           start_index: int = 0) -> ScanReport:
    """Hunt for a non-Hamiltonian product with 4k-4 layers over a base of
    maximum degree k that has a path factor.

    The proven guarantee needs 4k-2 layers; a verified hit here shows the
    two-step gap is real for this k.  Bases are trees first, then trees
    plus one edge.  The enumeration and every search stop at the caller's
    ``deadline``, a ``time.monotonic()`` value; a truncated report records
    the last examined index so long hunts can resume with ``start_index``,
    which may not be negative (``ValueError``).
    """
    if k < 3:
        raise PreconditionFailedError("the gap question starts at degree 3")
    if start_index < 0:
        raise ValueError(f"start_index must be non-negative, got {start_index}")
    layers = path_factor_min_layers(k) - 2
    instances = [(g, layers, True)
                 for g in _candidate_bases(max_order, degree=k, deadline=deadline)]
    return ScanReport("below_layer_bound", {
        "k": k, "layers": layers, "max_order": max_order, "start_index": start_index,
    }, *_run_instances(instances, start_index, workers, deadline, max_nodes_per_instance))


def scan_balanced_odd(max_h_order: int, max_n: int, *,
                      deadline: float | None = None,
                      max_nodes_per_instance: int | None = None,
                      workers: int = 1,
                      start_index: int = 0) -> ScanReport:
    """Test balanced bipartite products with an odd layer count.

    An odd layer count keeps the product balanced exactly when the base's
    own sides are balanced, and those are the products the even-layer
    guarantee says nothing about.  Entries with at least 4*max_degree - 2
    layers are in the claimed range (a verified non-Hamiltonian one would
    refute it); smaller odd products are included as exploratory entries
    because they are where the interesting behavior starts.  The scan
    stops at the caller's ``deadline`` and resumes from ``start_index``,
    as :func:`scan_below_layer_bound` does.
    """
    if start_index < 0:
        raise ValueError(f"start_index must be non-negative, got {start_index}")
    instances = []
    for g in _candidate_bases(max_h_order, bipartite_only=True, deadline=deadline):
        bip = bipartition(g)
        if len(bip.side_a) != len(bip.side_b):
            continue
        bound = path_factor_min_layers(degree_stats(g).maximum)
        instances += [(g, n, n >= bound) for n in range(3, max_n + 1, 2)]
    return ScanReport("balanced_odd", {
        "max_h_order": max_h_order, "max_n": max_n, "start_index": start_index,
    }, *_run_instances(instances, start_index, workers, deadline, max_nodes_per_instance))


def format_scan_report(report: ScanReport) -> str:
    """Line-oriented log plus a summary tail; stable across runs."""
    out = [f"scan {report.kind}"]
    for key in sorted(report.params):
        out.append(f"param {key} = {report.params[key]}")
    for e in report.entries:
        flag = "in-range" if e.in_range else "exploratory"
        out.append(f"instance {e.key} layers={e.layers} {flag} verdict={e.verdict}")
    out.append(f"examined {report.instances_examined}")
    out.append(f"counterexamples {len(report.counterexamples)}")
    out.append(f"status {report.status}")
    out.append(f"last_index {report.last_index}")
    return "\n".join(out) + "\n"


__all__ = [
    "Fixtures",
    "OracleResult",
    "PathResult",
    "ScanEntry",
    "ScanReport",
    "canonical_form",
    "enumerate_trees",
    "find_hamiltonian_cycle",
    "find_product_cycle",
    "find_spanning_path",
    "fixtures",
    "format_scan_report",
    "scan_balanced_odd",
    "scan_below_layer_bound",
]
