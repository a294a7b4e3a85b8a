"""Exact toughness and 1-toughness decisions at desk scale.

Toughness is the minimum of |S| / c(G - S) over cut sets S (sets whose
removal leaves at least two components), kept as an exact Fraction so the
t >= 1 boundary is crisp; complete graphs have no cut set and report an
infinite value.

The 1-toughness decision tries three polynomial certificates before any
search, each a cut S with c(G - S) > |S| that answers "no" with no search:

* a bipartite graph with unequal sides: removing the smaller side
  isolates every vertex of the larger one;
* a graph without a perfect matching: the failed blossom search leaves a
  barrier S with more than |S| odd components in G - S (Tutte), which is
  a cut whenever S is not empty (Chvatal: a 1-tough graph of even order
  has a perfect matching);
* a cut vertex, or a pair of vertices leaving three components, found by
  DFS lowpoint sweeps.

Everything else is decided exactly by maximizing c(G - S) - |S|.  A
dynamic program walks a vertex order and keeps states over its frontier
(the processed vertices with an unprocessed neighbour); its cost is linear
in the order and exponential only in the frontier width.  In layer-major
ids the n-layer product over G has width at most |G|, so the 32-vertex
flagship takes a fraction of a second.  Graphs with no narrow order among
the two tried go to the branch-and-bound search; recognizing tough graphs
is NP-hard in general, so both stay exact.

The module also builds the two explicit non-1-tough witnesses the cycle
pipeline is contrasted against: products over a bipartite base without a
path factor, and products whose base tree out-degrees the path factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import BudgetExceededError, NotBipartiteError, PreconditionFailedError
from .factors import MatchingBarrier, one_sided_obstruction, perfect_matching_or_barrier
from .graphs import (
    Graph,
    bipartition,
    cartesian_product,
    degree_stats,
    is_connected,
    path_graph,
    product_id,
    split_counts,
)

# The frontier DP decides 1-toughness up to this frontier width, past which
# its state count (about Bell(width + 1)) hands over to the branch and
# bound: the flagship P4 □ T1 has width 8, K_{10,10} width 10.
_FRONTIER_MAX_WIDTH = 9


@dataclass(frozen=True)
class CutWitness:
    """A vertex set whose removal leaves more components than its size."""

    cut: frozenset[int]
    components: int

    def format(self) -> str:
        inner = ",".join(str(v) for v in sorted(self.cut))
        return f"S = {{{inner}}}; c(G-S) = {self.components}; |S| = {len(self.cut)}"


@dataclass(frozen=True)
class ToughnessResult:
    """Exact toughness; ``value`` is None exactly for complete graphs.

    ``nodes`` is the number of vertex sets whose components the scan
    counted (0 for complete graphs, which are not scanned).
    """

    value: Fraction | None
    witness: CutWitness | None
    nodes: int

    @property
    def is_infinite(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class OneToughResult:
    verdict: str  # "yes" | "no" | "unknown"
    witness: CutWitness | None
    nodes: int
    # "trivial" | "bipartite_imbalance" | "matching_barrier" | "small_cut"
    # | "frontier_dp" | "search"
    decided_by: str


def removal_stats(g: Graph, s) -> tuple[int, int]:
    """(component count, isolated count) of the graph minus the vertex set."""
    s = frozenset(s)
    for v in s:
        if not 1 <= v <= g.order:
            raise ValueError(f"vertex {v} not in the graph")
    return (kernels.count_components_after(g, s),
            kernels.count_isolated_after(g, s))


def is_complete(g: Graph) -> bool:
    return g.size == g.order * (g.order - 1) // 2


def toughness_exact(g: Graph, max_order: int = 20) -> ToughnessResult:
    """Exact toughness by a scan over vertex sets S by increasing |S|.

    The scan stops before the first size s at which s / (n - s), a lower
    bound on the ratio of every set of size s or more, reaches the best
    ratio found; on a graph of low toughness that is after a few sizes.
    Capped at ``max_order`` because the worst case is still exponential:
    on a 1-tough graph the scan visits about half of the 2^n subsets.

    The witness is the lexicographically least minimizer of smallest
    cardinality.
    """
    if g.order > max_order:
        raise BudgetExceededError(f"order {g.order} above the scan cap {max_order}")
    if is_complete(g):
        return ToughnessResult(None, None, 0)
    best = kernels.toughness_scan(g)
    assert best is not None, "non-complete graph must have a cut set"
    size, comps, cut, subsets = best
    return ToughnessResult(Fraction(size, comps), CutWitness(cut, comps), subsets)


def is_one_tough(g: Graph, budget_seconds: float | None = None,
                 max_nodes: int | None = None) -> OneToughResult:
    """Decide |S| >= c(G - S) for every cut set S.

    Disconnected and complete graphs are settled outright ("trivial").
    Three polynomial pre-checks can then answer "no" with 0 nodes, each
    with a cut recounted by the kernel:

    * "bipartite_imbalance": the smaller side of an unbalanced bipartition;
    * "matching_barrier": the odd vertices of the frustrated tree left by
      a failed perfect-matching search, when there are any;
    * "small_cut": a cut vertex, or a pair leaving three components.

    Otherwise c - |S| is maximized exactly, and a cut reaching
    c - |S| >= 1 answers "no" with that cut recounted:

    * "frontier_dp": the frontier DP, along the identity order or the BFS
      order from vertex 1, whichever is narrower (identity on a tie), when
      that width is at most ``_FRONTIER_MAX_WIDTH``; ``nodes`` counts the
      states it expanded;
    * "search": the scattering branch-and-bound with the pruning floor at
      zero, for wider graphs; ``nodes`` counts its search nodes.

    "unknown" only appears when a budget is set and runs out: ``max_nodes``
    caps the states or nodes of the stage that runs, and ``budget_seconds``
    covers the pair pass of "small_cut" too.  A budget spent before the
    exact stage starts gives "unknown" at 0 nodes, labelled with the stage
    that would have run next.
    """
    if not is_connected(g):
        # the empty set already separates the graph
        comps = kernels.count_components_after(g, frozenset())
        return OneToughResult("no", CutWitness(frozenset(), comps), 0, "trivial")
    if is_complete(g):
        return OneToughResult("yes", None, 0, "trivial")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    try:
        bip = bipartition(g)
    except NotBipartiteError:
        bip = None
    if bip is not None and len(bip.side_a) != len(bip.side_b):
        return _certified_no(g, min(bip.side_a, bip.side_b, key=len),
                             "bipartite_imbalance")
    found = perfect_matching_or_barrier(g)
    if isinstance(found, MatchingBarrier) and found.witness:
        return _certified_no(g, found.witness, "matching_barrier")
    cut = _small_cut(g, deadline)
    if cut is not None:
        return _certified_no(g, cut, "small_cut")
    order, width = _narrow_order(g)
    decided_by = "frontier_dp" if width <= _FRONTIER_MAX_WIDTH else "search"
    if deadline is not None:
        budget_seconds = deadline - time.monotonic()
        if budget_seconds <= 0:
            return OneToughResult("unknown", None, 0, decided_by)
    if decided_by == "frontier_dp":
        status, value, cut, nodes = frontier_scattering(
            g, order, max_nodes=max_nodes, budget_seconds=budget_seconds)
    else:
        status, value, cut, nodes = kernels.scattering_max(
            g, prune_at=0, stop_above=0,
            max_nodes=max_nodes, budget_seconds=budget_seconds)
    if status == "unknown":
        return OneToughResult("unknown", None, nodes, decided_by)
    if value is not None and value > 0:
        return _certified_no(g, cut, decided_by, nodes, value)
    return OneToughResult("yes", None, nodes, decided_by)


def _certified_no(g: Graph, cut: frozenset[int], decided_by: str,
                  nodes: int = 0, value: int | None = None) -> OneToughResult:
    """A "no" whose cut is recounted by the kernel; ``value``, when given,
    is the c(G - S) - |S| that the deciding stage claims for the cut."""
    comps = kernels.count_components_after(g, cut)
    if comps <= len(cut) or value not in (None, comps - len(cut)):
        raise AssertionError(f"{decided_by} cut failed its recount")
    return OneToughResult("no", CutWitness(cut, comps), nodes, decided_by)


def _small_cut(g: Graph, deadline: float | None) -> frozenset[int] | None:
    """A cut vertex of the connected graph, else a pair {u, v} with
    c(G - {u, v}) >= 3, else None; also None once ``deadline`` passes.

    Without a cut vertex, each of three components left by a pair is
    joined to both ends of it, so both ends have degree at least 3: the
    pair pass sweeps G - u only for those u, and a pair is met from its
    smaller end.
    """
    pieces = split_counts(g)
    for v in g.vertices():
        if pieces[v] >= 2:
            return frozenset((v,))
    for u in g.vertices():
        if g.degree(u) < 3:
            continue
        if deadline is not None and time.monotonic() > deadline:
            return None
        pieces = split_counts(g, u)
        for v in range(u + 1, g.order + 1):
            if pieces[v] >= 3:
                return frozenset((u, v))
    return None


# ---------------------------------------------------------------------------
# frontier dynamic program


def frontier_width(g: Graph, order) -> int:
    """The most vertices that, after some step of ``order``, are processed
    and still have an unprocessed neighbour."""
    last = _last_steps(g, order)
    leaving = [0] * g.order  # leaving[t]: frontier vertices whose last neighbour is order[t]
    width = live = 0
    for t, v in enumerate(order):
        if last[v] > t:
            live += 1
            leaving[last[v]] += 1
        live -= leaving[t]
        width = max(width, live)
    return width


def _last_steps(g: Graph, order) -> list[int]:
    """Per vertex, the step of ``order`` that processes its last neighbour,
    or the vertex itself when that comes later."""
    if sorted(order) != list(g.vertices()):
        raise ValueError("order must list every vertex exactly once")
    pos = [0] * (g.order + 1)
    for t, v in enumerate(order):
        pos[v] = t
    return [0] + [max([pos[v]] + [pos[u] for u in g.neighbors(v)]) for v in g.vertices()]


def _bfs_order(g: Graph) -> list[int]:
    """Breadth-first order from vertex 1, neighbours in ascending order; it
    lists every vertex of a connected graph."""
    seen = [False] * (g.order + 1)
    seen[1] = True
    out = [1]
    for v in out:
        for u in g.neighbors(v):
            if not seen[u]:
                seen[u] = True
                out.append(u)
    return out


def _narrow_order(g: Graph) -> tuple[list[int], int]:
    """The identity order or the BFS order of a connected graph, whichever
    has the smaller frontier width (identity on a tie), with that width."""
    identity = list(g.vertices())
    bfs = _bfs_order(g)
    identity_width, bfs_width = frontier_width(g, identity), frontier_width(g, bfs)
    return (bfs, bfs_width) if bfs_width < identity_width else (identity, identity_width)


def frontier_scattering(g: Graph, order, *, max_nodes: int | None = None,
                        budget_seconds: float | None = None):
    """Maximize c(G - S) - |S| over non-empty S by a dynamic program along
    ``order``; exact whenever the maximum exceeds 0.

    The frontier after a step is the processed vertices that still have an
    unprocessed neighbour.  A state gives each frontier vertex a label, 0
    for "in S" or the canonical number of its block of kept vertices
    connected so far, plus a flag saying whether S is non-empty; its value
    is the closed components (blocks with no member left on the frontier)
    minus |S|, maximized per state.  A state is dropped once value + open
    blocks + unprocessed vertices <= 0, as no completion can then exceed 0.
    One parent map per step rebuilds S.  The cost grows linearly in the
    order and about as Bell(width + 1) in the frontier width.

    Returns (status, value, cut, states).  ``status`` is "complete", or
    "unknown" when ``max_nodes`` states have been expanded and another is
    due, or when ``budget_seconds`` (checked between vertices) has run
    out.  ``value`` and ``cut`` are the maximum and a set attaining it, or
    None when no non-empty S exceeds 0.  ``states`` counts the states
    expanded, so it never passes ``max_nodes``.
    """
    last = _last_steps(g, order)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    frontier: list[int] = []
    layer = {(False, ()): 0}
    parents = []
    nodes = 0
    for t, v in enumerate(order):
        if deadline is not None and time.monotonic() > deadline:
            return "unknown", None, None, nodes
        adjacent = set(g.neighbors(v))
        slots = [i for i, u in enumerate(frontier) if u in adjacent]
        frontier.append(v)
        stays = [i for i, u in enumerate(frontier) if last[u] > t]
        leaves = [i for i, u in enumerate(frontier) if last[u] <= t]
        frontier = [frontier[i] for i in stays]
        unprocessed = g.order - t - 1
        nxt: dict = {}
        back: dict = {}
        for key, value in layer.items():
            if nodes == max_nodes:
                return "unknown", None, None, nodes
            nodes += 1
            flag, labels = key
            joined = {labels[i] for i in slots}
            joined.discard(0)
            if joined:
                b = min(joined)
                grown = tuple([b if x in joined else x for x in labels]) + (b,)
            else:
                grown = labels + (max(labels, default=0) + 1,)
            for in_s, ext, val in ((True, labels + (0,), value - 1), (False, grown, value)):
                kept = [ext[i] for i in stays]
                if leaves:
                    closed = {ext[i] for i in leaves}.difference(kept)
                    closed.discard(0)
                    val += len(closed)
                relabel = {0: 0}
                canon = tuple([relabel.setdefault(b, len(relabel)) for b in kept])
                if val + len(relabel) - 1 + unprocessed <= 0:
                    continue
                new = (flag or in_s, canon)
                if new not in nxt or val > nxt[new]:
                    nxt[new] = val
                    back[new] = (key, in_s)
        layer = nxt
        parents.append(back)
    key = (True, ())
    if key not in layer:
        return "complete", None, None, nodes
    value = layer[key]
    cut = set()
    for t in range(g.order - 1, -1, -1):
        key, in_s = parents[t][key]
        if in_s:
            cut.add(order[t])
    return "complete", value, frozenset(cut), nodes


# ---------------------------------------------------------------------------
# explicit witnesses for product graphs


def _verify_witness(product: Graph, cut: frozenset[int]) -> CutWitness:
    comps, _ = removal_stats(product, cut)
    if comps <= len(cut) or comps < 2:
        raise AssertionError("constructed witness failed independent recount")
    return CutWitness(cut, comps)


def product_cut_from_bipartite(n: int, h: Graph) -> CutWitness:
    """Cut showing the n-layer product over h is not 1-tough, for bipartite
    h without a path factor.

    Take a one-sided obstruction S of h with isolated set I.  If the
    product bipartition is unbalanced, the smaller side already works:
    removing it isolates every vertex of the larger side.  If it is
    balanced, shift the side not containing layer-1 copies of S by adding
    1_S and dropping 1_I; the isolated layer-1 vertices can then only pair
    upward, which caps how much the components can merge.

    For disconnected h the product is disconnected and the empty cut
    certifies the claim directly.
    """
    if n < 1:
        raise ValueError("layer count must be positive")
    product = cartesian_product(path_graph(n), h)
    if not is_connected(h):
        return _verify_witness(product, frozenset())
    if h.order < 2:
        # a single-vertex base gives the bare path, where the claim fails
        # for fewer than 3 layers and the shift construction degenerates
        raise PreconditionFailedError("connected base must have at least 2 vertices")
    cert = one_sided_obstruction(h, bipartition(h))  # HasPathFactorError if factored
    s_layer1 = frozenset(product_id(1, v, h.order) for v in sorted(cert.witness))
    bip = bipartition(product)
    side_a, side_b = bip.side_a, bip.side_b
    if len(side_a) == len(side_b):
        iso_h = [v for v in h.vertices()
                 if v not in cert.witness and not set(h.neighbors(v)) - cert.witness]
        i_layer1 = frozenset(product_id(1, v, h.order) for v in iso_h)
        y = side_a if s_layer1 <= side_a else side_b
        assert s_layer1 <= y, "one-sided witness split across product sides"
        x = side_b if y is side_a else side_a
        cut = frozenset((x | s_layer1) - i_layer1)
    else:
        cut = min((side_a, side_b), key=len)
    return _verify_witness(product, cut)


def product_cut_from_high_degree(g1: Graph, t: Graph) -> CutWitness:
    """Cut for the product of a connected graph with a tree whose maximum
    degree exceeds the graph's order: remove one whole column.

    The column of a maximum-degree vertex v has |V(g1)| vertices and its
    removal splits the product into degree(v) branch blocks.
    """
    stats = degree_stats(t)
    if stats.maximum <= g1.order:
        raise PreconditionFailedError(
            f"max degree {stats.maximum} does not exceed order {g1.order}")
    if not is_connected(g1):
        raise PreconditionFailedError("first factor must be connected")
    v = min(u for u in t.vertices() if t.degree(u) == stats.maximum)
    product = cartesian_product(g1, t)
    cut = frozenset(product_id(i, v, t.order) for i in g1.vertices())
    witness = _verify_witness(product, cut)
    assert witness.components == stats.maximum
    return witness


__all__ = [
    "CutWitness",
    "OneToughResult",
    "ToughnessResult",
    "frontier_scattering",
    "frontier_width",
    "is_complete",
    "is_one_tough",
    "product_cut_from_bipartite",
    "product_cut_from_high_degree",
    "removal_stats",
    "toughness_exact",
]
