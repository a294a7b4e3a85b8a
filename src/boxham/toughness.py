"""Exact toughness and 1-toughness decisions at desk scale.

Toughness is the minimum of |S| / c(G - S) over cut sets S (sets whose
removal leaves at least two components), kept as an exact Fraction so the
t >= 1 boundary is crisp; complete graphs have no cut set and report an
infinite value.

The 1-toughness decision tries polynomial certificates before any
search.  Two of them are cuts S with c(G - S) > |S| that answer "no":

* a graph without a perfect matching: the failed blossom search leaves a
  barrier S with more than |S| odd components in G - S (Tutte), which is
  a cut whenever S is not empty (Chvatal: a 1-tough graph of even order
  has a perfect matching).  On a connected bipartite graph with unequal
  sides no blossom forms, so every neighbour of the failed root is an
  odd tree vertex and the barrier is never empty;
* a cut vertex, or a pair of vertices leaving three components, found by
  DFS lowpoint sweeps.

Between the cut-vertex sweep and the pair pass, a Hamiltonian cycle
answers "yes": a Hamiltonian graph is 1-tough, as removing S cuts the
cycle into at most |S| arcs.  The cycle comes from
``oracle.find_product_cycle`` at one layer, the entry that ``check``
runs: a graph that is a product in layer-major ids is spliced, any other
searched under a node cap, and the cycle is checked before it returns.

Everything else is decided exactly by looking for a cut set S with
c(G - S) - |S| > 0.  A dynamic program walks a vertex order and keeps
states over its frontier, each carrying a cut that attains its value.
Its time is linear in the order, its memory follows the widest layer of
states, and both are exponential only in the frontier width, so the
order is the narrowest of a greedy one that keeps the frontier small at
each step, the identity and a BFS order.  In layer-major ids the n-layer
product over G has width at most |G|; the greedy order puts the
32-vertex flagship at width 5-6 in its own ids and in shuffled ones.
Wider graphs go to a branch and bound that stops at the first such S;
recognizing tough graphs is NP-hard, so both stay exact.

The module also builds the two explicit non-1-tough witnesses the cycle
pipeline is contrasted against: products over a bipartite base without a
path factor, and products whose base tree out-degrees the path factor.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, NamedTuple

from . import kernels
from .errors import BudgetExceededError, PreconditionFailedError
from .factors import MatchingBarrier, one_sided_obstruction, perfect_matching_or_barrier
from .graphs import (
    Graph,
    bipartition,
    cartesian_product,
    components,
    is_connected,
    max_degree,
    path_graph,
    product_id,
    split_counts,
)
from .oracle import find_product_cycle

if TYPE_CHECKING:  # imported at run time by toughness_exact alone, to keep cold start cheap
    from fractions import Fraction

# The frontier DP decides 1-toughness up to this frontier width, past which
# its state count (about Bell(width + 1)) hands over to the branch and
# bound: the flagship P4 □ T1 has width 6 (8 in its own ids), K_{10,10}
# width 10 under every order.
_FRONTIER_MAX_WIDTH = 9

_SCAN_MAX_ORDER = 20  # the largest order that ``toughness_exact`` scans

# The Hamiltonian-cycle stage searches at most this many nodes per vertex.
# On random products of 10-21 vertices it finds a cycle in almost every
# Hamiltonian one; a graph it misses goes on to the exact stages.
_CYCLE_NODES_PER_VERTEX = 32


class CutWitness(NamedTuple):
    """A vertex set whose removal leaves more components than its size."""

    cut: frozenset[int]
    components: int

    def format(self) -> str:
        inner = ",".join(str(v) for v in sorted(self.cut))
        return f"S = {{{inner}}}; c(G-S) = {self.components}; |S| = {len(self.cut)}"


class ToughnessResult(NamedTuple):
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


class OneToughResult(NamedTuple):
    verdict: str  # "yes" | "no" | "unknown"
    witness: CutWitness | None
    nodes: int
    # "trivial" | "matching_barrier" | "small_cut" | "hamiltonian_cycle"
    # | "frontier_dp" | "search"
    decided_by: str
    # the verified Hamiltonian cycle, as a vertex tuple, exactly when
    # decided_by is "hamiltonian_cycle"
    cycle: tuple[int, ...] | None = None


def is_complete(g: Graph) -> bool:
    return g.size == g.order * (g.order - 1) // 2


def toughness_exact(g: Graph) -> ToughnessResult:
    """Exact toughness by a scan over vertex sets S by increasing |S|.

    The scan stops before the first size s at which s / (n - s), a lower
    bound on the ratio of every set of size s or more, reaches the best
    ratio found; on a graph of low toughness that is after a few sizes.
    Capped at ``_SCAN_MAX_ORDER`` because on a 1-tough graph the scan
    still visits about half of the 2^n subsets.

    The witness is the lexicographically least minimizer of smallest
    cardinality.
    """
    if g.order > _SCAN_MAX_ORDER:
        raise BudgetExceededError(f"order {g.order} above the scan cap {_SCAN_MAX_ORDER}")
    if is_complete(g):
        return ToughnessResult(None, None, 0)
    best = kernels.toughness_scan(g)
    if best is None:
        raise AssertionError("non-complete graph must have a cut set")
    size, comps, cut, subsets = best
    # fractions, with decimal and numbers, is imported by this entry alone
    from fractions import Fraction
    return ToughnessResult(Fraction(size, comps), CutWitness(cut, comps), subsets)


def is_one_tough(g: Graph, deadline: float | None = None,
                 max_nodes: int | None = None) -> OneToughResult:
    """Decide |S| >= c(G - S) for every cut set S.

    Disconnected and complete graphs are settled outright ("trivial").
    The stages below then run in turn, each at most once; each "no" among
    them comes at 0 nodes with a cut recounted by the kernel:

    * "matching_barrier": the odd vertices of the frustrated tree left by
      a failed perfect-matching search, when there are any; on a
      connected bipartite graph with unequal sides there always are;
    * "small_cut": a cut vertex;
    * "hamiltonian_cycle": "yes" with a checked Hamiltonian cycle from
      ``oracle.find_product_cycle`` at one layer; ``cycle`` holds it.  A
      layer-major product of ``oracle.SPLICE_MIN_ORDER`` or more vertices
      is spliced at 0 nodes; otherwise the search stops after
      ``_CYCLE_NODES_PER_VERTEX`` nodes per vertex;
    * "small_cut": a pair of vertices leaving three components.

    Otherwise an exact stage looks for a cut set S with c - |S| >= 1: one
    it finds answers "no" with that cut recounted, and none answers "yes":

    * "frontier_dp": the frontier DP, along the greedy smallest-frontier
      order, the identity order or the BFS order from vertex 1, whichever
      is narrowest (in that order on a tie), when that width is at most
      ``_FRONTIER_MAX_WIDTH``; ``nodes`` counts the states it expanded;
    * "search": the scattering branch-and-bound, which stops at the first
      such S, for wider graphs; ``nodes`` counts its search nodes.

    ``nodes`` is the count of the stage that decided.  "unknown" only
    appears when a budget is set and runs out: ``max_nodes`` caps the
    nodes of the cycle search (below its own cap) and the states or nodes
    of the exact stage, and every stage takes the caller's ``deadline``, a
    ``time.monotonic()`` value, as it is.  A deadline passed before the
    exact stage starts gives "unknown" at 0 nodes, labelled with the stage
    that would have run next.
    """
    if not is_connected(g):
        # the empty set already separates the graph
        return _certified_no(g, frozenset(), "trivial")
    if is_complete(g):
        return OneToughResult("yes", None, 0, "trivial")
    found = perfect_matching_or_barrier(g)
    if isinstance(found, MatchingBarrier) and found.witness:
        return _certified_no(g, found.witness, "matching_barrier")
    cut = _cut_vertex(g)
    if cut is not None:
        return _certified_no(g, cut, "small_cut")
    cap = _CYCLE_NODES_PER_VERTEX * g.order
    ham = find_product_cycle(
        g, 1, max_nodes=cap if max_nodes is None else min(cap, max_nodes),
        deadline=deadline)
    if ham.found:
        return OneToughResult("yes", None, ham.nodes, "hamiltonian_cycle", ham.cycle.seq)
    cut = _separating_pair(g, deadline)
    if cut is not None:
        return _certified_no(g, cut, "small_cut")
    order, width = _narrow_order(g)
    decided_by = "frontier_dp" if width <= _FRONTIER_MAX_WIDTH else "search"
    if deadline is not None and time.monotonic() >= deadline:
        return OneToughResult("unknown", None, 0, decided_by)
    if decided_by == "frontier_dp":
        status, value, cut, nodes = frontier_scattering(
            g, order, max_nodes=max_nodes, deadline=deadline)
    else:
        status, value, cut, nodes = kernels.scattering_max(
            g, max_nodes=max_nodes, deadline=deadline)
    if cut is not None:
        return _certified_no(g, cut, decided_by, nodes, value)
    verdict = "yes" if status == "complete" else "unknown"
    return OneToughResult(verdict, None, nodes, decided_by)


def _certified_no(g: Graph, cut: frozenset[int], decided_by: str,
                  nodes: int = 0, value: int | None = None) -> OneToughResult:
    """A "no" whose cut is recounted by :func:`_recounted`; ``value``, when
    given, is the c(G - S) - |S| that the deciding stage claims for the
    cut."""
    witness = _recounted(g, cut, f"{decided_by} cut")
    if value not in (None, witness.components - len(cut)):
        raise AssertionError(f"{decided_by} cut failed its recount")
    return OneToughResult("no", witness, nodes, decided_by)


def _recounted(g: Graph, cut: frozenset[int], what: str) -> CutWitness:
    """``cut`` with c(G - cut) counted by the kernel, the one recount of
    the cuts of the 1-toughness decision and the product constructions;
    raises unless that count is at least 2 and above |cut|."""
    comps = kernels.count_components_after(g, cut)
    if comps <= max(len(cut), 1):
        raise AssertionError(f"{what} failed its recount")
    return CutWitness(cut, comps)


def _cut_vertex(g: Graph) -> frozenset[int] | None:
    """The smallest cut vertex of the connected graph, or None."""
    pieces = split_counts(g)
    for v in g.vertices():
        if pieces[v] >= 2:
            return frozenset((v,))
    return None


def _separating_pair(g: Graph, deadline: float | None) -> frozenset[int] | None:
    """A pair {u, v} with c(G - {u, v}) >= 3 in a graph with no cut
    vertex, the first by (u, v), else None; also None once ``deadline``
    passes.

    Each of three components left by such a pair is joined to both ends
    of it, so both ends have degree at least 3: the pass sweeps G - u only
    for those u, and a pair is met from its smaller end.
    """
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


def _greedy_order(g: Graph) -> list[int] | None:
    """A vertex order of a connected graph that keeps its frontier small,
    or None once its frontier passes ``_FRONTIER_MAX_WIDTH``.

    It starts at the smallest vertex of least degree; each step takes the
    unprocessed neighbour of the processed vertices that leaves the fewest
    frontier vertices, then the one with the fewest unprocessed
    neighbours, then the smallest.  A frontier vertex leaves when its last
    unprocessed neighbour is taken, and the taken vertex joins unless all
    its neighbours are processed.
    """
    todo = [0] + [g.degree(v) for v in g.vertices()]  # unprocessed neighbours
    done = [False] * (g.order + 1)
    start = min(g.vertices(), key=lambda v: (todo[v], v))

    def growth(v):
        leaving = sum(1 for u in g.neighbors(v) if done[u] and todo[u] == 1)
        return (todo[v] > 0) - leaving, todo[v], v

    order, candidates, live = [], {start}, 0
    while candidates:
        step, _, v = min(map(growth, candidates))
        live += step
        if live > _FRONTIER_MAX_WIDTH:
            return None
        candidates.remove(v)
        done[v] = True
        order.append(v)
        for u in g.neighbors(v):
            todo[u] -= 1
            if not done[u]:
                candidates.add(u)
    return order


def _narrow_order(g: Graph) -> tuple[list[int], int]:
    """The greedy, identity or BFS order of a connected graph, whichever
    has the smallest frontier width (in that order on a tie), with that
    width.  The greedy order is left out when it passes the DP's cap."""
    orders = [o for o in (_greedy_order(g), list(g.vertices()), components(g)[0])
              if o is not None]
    return min(((o, frontier_width(g, o)) for o in orders), key=lambda ow: ow[1])


def frontier_scattering(g: Graph, order, *, max_nodes: int | None = None,
                        deadline: float | None = None):
    """Maximize c(G - S) - |S| over non-empty S by a dynamic program along
    ``order``; exact whenever the maximum exceeds 0.

    The frontier after a step is the processed vertices that still have an
    unprocessed neighbour.  A state gives each frontier vertex a label, 0
    for "in S" or the canonical number of its block of kept vertices
    connected so far, plus a flag saying whether S is non-empty; its value
    is the closed components (blocks with no member left on the frontier)
    minus |S|, maximized per state, and it carries a bitmask of an S
    attaining that value.  A state is dropped once value + open blocks +
    unprocessed vertices <= 0, as no completion can then exceed 0.  Only
    the current layer of states is kept, so memory follows the widest
    layer, not the order; time grows linearly in the order and about as
    Bell(width + 1) in the frontier width.

    Returns (status, value, cut, states).  ``status`` is "complete", or
    "unknown" when ``max_nodes`` states have been expanded and another is
    due, or once ``deadline``, a ``time.monotonic()`` value checked
    between vertices, has passed.  ``value`` and ``cut`` are the maximum
    and a set attaining it, or None when no non-empty S exceeds 0.
    ``states`` counts the states expanded, so it never passes
    ``max_nodes``.
    """
    last = _last_steps(g, order)
    frontier: list[int] = []
    layer = {(False, ()): (0, 0)}
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
        bit = 1 << v
        nxt: dict = {}
        for (flag, labels), (value, cut) in layer.items():
            if max_nodes is not None and nodes >= max_nodes:
                return "unknown", None, None, nodes
            nodes += 1
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
                if new not in nxt or val > nxt[new][0]:
                    nxt[new] = (val, cut | bit if in_s else cut)
        layer = nxt
    if (True, ()) not in layer:
        return "complete", None, None, nodes
    value, cut = layer[True, ()]
    return "complete", value, frozenset(v for v in order if cut >> v & 1), nodes


# ---------------------------------------------------------------------------
# explicit witnesses for product graphs


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
        return _recounted(product, frozenset(), "constructed witness")
    if h.order < 2:
        # a single-vertex base gives the bare path, where the claim fails
        # for fewer than 3 layers and the shift construction degenerates
        raise PreconditionFailedError("connected base must have at least 2 vertices")
    bip = bipartition(h)
    cert = one_sided_obstruction(h, bip)  # PreconditionFailedError if factored
    s_layer1 = frozenset(product_id(1, v, h.order) for v in sorted(cert.witness))
    # the layers alternate colours: (i, v) is on the product's side a
    # exactly when v is on h's side a and i is odd, or neither
    side_a, side_b = (frozenset(product_id(i, v, h.order) for i in range(1, n + 1)
                                for v in (first if i % 2 else second))
                      for first, second in (bip, bip[::-1]))
    if len(side_a) == len(side_b):
        iso_h = [v for v in h.vertices()
                 if v not in cert.witness and not set(h.neighbors(v)) - cert.witness]
        i_layer1 = frozenset(product_id(1, v, h.order) for v in iso_h)
        x = side_b if cert.witness <= bip.side_a else side_a
        cut = frozenset((x | s_layer1) - i_layer1)
    else:
        cut = min((side_a, side_b), key=len)
    return _recounted(product, cut, "constructed witness")


def product_cut_from_high_degree(g1: Graph, t: Graph) -> CutWitness:
    """Cut for the product of a connected graph with a tree whose maximum
    degree exceeds the graph's order: remove one whole column.

    The column of a maximum-degree vertex v has |V(g1)| vertices and its
    removal splits the product into degree(v) branch blocks.
    """
    dmax = max_degree(t)
    if dmax <= g1.order:
        raise PreconditionFailedError(f"max degree {dmax} does not exceed order {g1.order}")
    if not is_connected(g1):
        raise PreconditionFailedError("first factor must be connected")
    v = min(u for u in t.vertices() if t.degree(u) == dmax)
    product = cartesian_product(g1, t)
    cut = frozenset(product_id(i, v, t.order) for i in g1.vertices())
    witness = _recounted(product, cut, "constructed witness")
    if witness.components != dmax:
        raise AssertionError("column cut left a component count other than the degree")
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
    "toughness_exact",
]
