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

Everything else goes to the exact branch-and-bound search that maximizes
c(G - S) - |S|, which is what makes 32-vertex flagship instances
tractable; recognizing tough graphs is NP-hard in general, so the search
stays exact.

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
    """Exact toughness; ``value`` is None exactly for complete graphs."""

    value: Fraction | None
    witness: CutWitness | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class OneToughResult:
    verdict: str  # "yes" | "no" | "unknown"
    witness: CutWitness | None
    nodes: int
    # "trivial" | "bipartite_imbalance" | "matching_barrier" | "small_cut"
    # | "search"
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
    """Exact toughness by full subset scan; capped because it is 2^n.

    The witness is the lexicographically least minimizer of smallest
    cardinality.
    """
    if g.order > max_order:
        raise BudgetExceededError(f"order {g.order} above the scan cap {max_order}")
    if is_complete(g):
        return ToughnessResult(None, None)
    best = kernels.toughness_scan(g)
    assert best is not None, "non-complete graph must have a cut set"
    size, comps, cut = best
    return ToughnessResult(Fraction(size, comps), CutWitness(cut, comps))


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

    Otherwise the scattering branch-and-bound runs with the pruning floor
    at zero ("search"): any cut reaching c - |S| >= 1 settles "no"
    immediately, and exhausting the space settles "yes".  "unknown" only
    appears when a budget is set and runs out; the pair pass of
    "small_cut" checks ``budget_seconds`` too, and the search does not
    start once it is spent.
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
    if deadline is not None:
        budget_seconds = deadline - time.monotonic()
        if budget_seconds <= 0:
            return OneToughResult("unknown", None, 0, "search")
    status, value, cut, nodes = kernels.scattering_max(
        g, prune_at=0, stop_above=0,
        max_nodes=max_nodes, budget_seconds=budget_seconds)
    if status == "unknown":
        return OneToughResult("unknown", None, nodes, "search")
    if value is not None and value > 0:
        comps = kernels.count_components_after(g, cut)
        assert comps - len(cut) == value
        return OneToughResult("no", CutWitness(cut, comps), nodes, "search")
    return OneToughResult("yes", None, nodes, "search")


def _certified_no(g: Graph, cut: frozenset[int], decided_by: str) -> OneToughResult:
    comps = kernels.count_components_after(g, cut)
    if comps <= len(cut):
        raise AssertionError(f"{decided_by} cut failed its recount")
    return OneToughResult("no", CutWitness(cut, comps), 0, decided_by)


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
    "is_complete",
    "is_one_tough",
    "product_cut_from_bipartite",
    "product_cut_from_high_degree",
    "removal_stats",
    "toughness_exact",
]
