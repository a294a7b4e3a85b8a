"""Simple undirected graphs on vertices 1..n and deterministic operations.

The :class:`Graph` value is the universal carrier for the whole package:
immutable, hashable, with neighbor iteration always in ascending vertex
order so that every search built on top of it is reproducible.

Cartesian products use the fixed vertex encoding

    id(i, v) = (i - 1) * base_order + v

where ``i`` is the vertex of the first factor (the "layer") and ``v`` a
vertex of the second factor, so certificates and cycle files are portable.
Isomorphism is not decided here: ``oracle.canonical_form`` names the
classes the scanners need, and the tests keep a backtracking search as
its second opinion.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import (
    CyclicSeedError,
    DisconnectedError,
    MalformedGraphError,
    NotBipartiteError,
    NotSubgraphError,
)

Edge = tuple[int, int]


def canon_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph on vertices 1..order.

    ``edges`` is a sorted tuple of ``(u, v)`` pairs with ``u < v``.  Use
    :meth:`from_edges` to build one from arbitrary pair iterables; the
    direct constructor insists on canonical input.  A graph is immutable:
    assigning to ``order`` or ``edges`` raises ``AttributeError``, and two
    graphs are equal, and hash alike, when their orders and edges are.
    """

    order: int
    edges: tuple[Edge, ...]

    def __init__(self, order: int, edges: tuple[Edge, ...] = ()):
        # the one edge validator: every edge in range with u < v, and the
        # tuple strictly increasing, so sorted and free of duplicates
        if order < 1:
            raise ValueError("graph order must be positive")
        prev = (0, 0)
        for e in edges:
            u, v = e
            if not 1 <= u < v <= order:
                if u == v:
                    raise ValueError(f"loop at vertex {u}")
                raise ValueError(f"edge {e} not canonical for order {order}")
            if e <= prev:
                raise ValueError(f"duplicate edge {e}" if e == prev
                                 else "edges must be sorted")
            prev = e
        # written past __setattr__, into the __dict__ the cached properties use
        self.__dict__.update(order=order, edges=edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Graph is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.order == other.order and self.edges == other.edges

    def __hash__(self):
        return hash((self.order, self.edges))

    def __repr__(self):
        return f"Graph(order={self.order!r}, edges={self.edges!r})"

    @staticmethod
    def from_edges(order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        canon = sorted({canon_edge(u, v) for u, v in edges})
        return Graph(order, tuple(canon))

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.order + 1)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.order + 1)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        # the edges are strictly increasing, so every list comes out
        # ascending: v's lower neighbours u arrive in edges (u, v), in
        # order of u and before every edge (v, w), which come in order of w
        return tuple(map(tuple, nbrs))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return canon_edge(u, v) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks, 0-indexed; the kernel input format."""
        masks = [0] * self.order
        for u, v in self.edges:
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return tuple(masks)


class DegreeStats(NamedTuple):
    maximum: int
    minimum: int
    degrees: dict[int, int]


class Bipartition(NamedTuple):
    """Deterministic 2-coloring: each component's smallest vertex is in side_a."""

    side_a: frozenset[int]
    side_b: frozenset[int]


# ---------------------------------------------------------------------------
# constructors


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(1, n) for v in range(u + 1, n + 1)))


def star_graph(leaves: int) -> Graph:
    """Star with center labeled 1 and leaves 2..leaves+1."""
    return Graph.from_edges(leaves + 1, ((1, v) for v in range(2, leaves + 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)))


# ---------------------------------------------------------------------------
# structural predicates


def components(g: Graph, removed: Iterable[int] = ()) -> list[list[int]]:
    """The components of G minus ``removed``, listed by smallest vertex.

    Each is the breadth-first order from its smallest vertex, neighbours
    in ascending order.
    """
    adj = g._adjacency
    seen = [False] * (g.order + 1)
    for v in removed:
        seen[v] = True
    parts = []
    for root in g.vertices():
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        parts.append(queue)
    return parts


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def is_tree(g: Graph) -> bool:
    return g.size == g.order - 1 and is_connected(g)


def degree_stats(g: Graph) -> DegreeStats:
    degrees = list(map(len, g._adjacency))[1:]  # entry 0 is no vertex
    return DegreeStats(max(degrees), min(degrees), dict(zip(g.vertices(), degrees)))


def bipartition(g: Graph) -> Bipartition:
    """2-color the graph, rooting each component at its smallest vertex.

    Raises :class:`NotBipartiteError` when an odd cycle exists.
    """
    color: dict[int, int] = {}
    for root in g.vertices():
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise NotBipartiteError(f"odd cycle through edge ({u}, {w})")
    side_a = frozenset(v for v, c in color.items() if c == 0)
    side_b = frozenset(v for v, c in color.items() if c == 1)
    return Bipartition(side_a, side_b)


def is_bipartite(g: Graph) -> bool:
    try:
        bipartition(g)
    except NotBipartiteError:
        return False
    return True


def split_counts(g: Graph, without: int = 0) -> list[int]:
    """For each vertex v of G - without, the number of components that
    v's component of G - without falls into when v is removed as well.

    Indexed by vertex; entry 0 and the entry of ``without`` (0 for none)
    are 0.  A cut vertex of a connected graph has a count of at least 2,
    and a pair {u, v} leaves ``split_counts(g, u)[v]`` components of a
    graph that stays connected without u.

    One iterative DFS lowpoint sweep (Tarjan): a vertex splits into the
    DFS children whose subtrees cannot climb above it, plus, unless it is
    a root, the part that holds its parent.
    """
    disc = [0] * (g.order + 1)  # 0: not yet reached; times start at 1
    low = [0] * (g.order + 1)
    pieces = [0] * (g.order + 1)
    counter = 0
    for root in g.vertices():
        if disc[root] or root == without:
            continue
        # iterative DFS; (vertex, parent, neighbor iterator)
        counter += 1
        disc[root] = low[root] = counter
        stack = [(root, 0, iter(g.neighbors(root)))]
        while stack:
            u, parent, it = stack[-1]
            for w in it:
                if w == without:
                    continue
                if not disc[w]:
                    counter += 1
                    disc[w] = low[w] = counter
                    pieces[w] = 1  # the part above w
                    stack.append((w, u, iter(g.neighbors(w))))
                    break
                if w != parent and disc[w] < low[u]:
                    low[u] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:
                        pieces[p] += 1
    return pieces


# ---------------------------------------------------------------------------
# Cartesian product


def product_id(layer: int, base: int, base_order: int) -> int:
    """Encode a product vertex; bijection from (1..n) x (1..base_order)."""
    return (layer - 1) * base_order + base


def product_label(pid: int, base_order: int) -> tuple[int, int]:
    """Inverse of :func:`product_id`: returns (layer, base)."""
    return (pid - 1) // base_order + 1, (pid - 1) % base_order + 1


def format_label(layer: int, base: int) -> str:
    return f"{layer}_{base}"


_LABEL_RE = re.compile(r"^(\d+)_(\d+)$")


def parse_label(token: str) -> tuple[int, int]:
    m = _LABEL_RE.match(token)
    if not m:
        raise MalformedGraphError(f"bad vertex label {token!r}")
    return int(m.group(1)), int(m.group(2))


def cartesian_product(g1: Graph, h: Graph) -> Graph:
    """Cartesian product with g1 supplying layers and h the base.

    Vertex count is ``g1.order * h.order``; an edge joins two vertices
    when they agree in one coordinate and are adjacent in the other, so
    the edge count is ``g1.order * h.size + h.order * g1.size``.
    """
    k = h.order
    edges: list[Edge] = []
    for i in g1.vertices():
        for u, w in h.edges:
            edges.append((product_id(i, u, k), product_id(i, w, k)))
    for i, j in g1.edges:
        for v in h.vertices():
            edges.append((product_id(i, v, k), product_id(j, v, k)))
    return Graph.from_edges(g1.order * k, edges)


def product_split(g: Graph) -> tuple[Graph, int]:
    """(H, n) with n >= 4 layers and H of at least 2 vertices such that
    ``g`` is ``cartesian_product(path_graph(n), H)`` edge for edge in its
    own ids; ``(g, 1)`` when there is none.

    There is at most one such split, so its n is the most layers: a split
    at base order k needs every edge (v, v + k), and one at a larger k'
    has no edge from id k' to id k' + k.  Layer 1 is ids 1..k, so H is
    read off the edges inside it.  Then g has ``n * |E(H)| + (n - 1) * k``
    edges, every vertical edge (v, v + k) is present, and every other
    edge lies inside a layer and repeats an edge of H.  A graph that
    differs from the product fails one of these tests, most often the
    edge count or an early vertical edge.
    """
    total, edges = g.order, g._edge_set
    for k in range(2, total // 4 + 1):
        n, rest = total // k, g.size - (total - k)
        if total % k or rest < 0 or rest % n:
            continue
        if not all((v, v + k) in edges for v in range(1, total - k + 1)):
            continue
        base = tuple(e for e in g.edges if e[1] <= k)
        if len(base) * n != rest:
            continue
        inside = frozenset(base)
        if all(b - a == k or ((a - 1) // k == (b - 1) // k
                              and ((a - 1) % k + 1, (b - 1) % k + 1) in inside)
               for a, b in g.edges):
            return Graph(k, base), n
    return g, 1


# ---------------------------------------------------------------------------
# spanning trees


def spanning_tree_containing(g: Graph, seed: Iterable[tuple[int, int]]) -> Graph:
    """Deterministic spanning tree of ``g`` containing every seed edge.

    The seed forest is completed by scanning the remaining edges ordered
    by (larger endpoint, smaller endpoint), which pins a unique result.
    """
    seed_edges = [canon_edge(u, v) for u, v in seed]
    for e in seed_edges:
        if e not in g._edge_set:
            raise NotSubgraphError(f"seed edge {e} not in the graph")
    parent = list(range(g.order + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: set[Edge] = set()
    for u, v in sorted(set(seed_edges)):
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CyclicSeedError("seed edges contain a cycle")
        parent[ru] = rv
        chosen.add((u, v))
    for u, v in sorted(g.edges, key=itemgetter(1, 0)):
        if len(chosen) == g.order - 1:
            break
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add((u, v))
    # the scan takes every edge that joins two union-find classes, so the
    # forest spans g exactly when it reaches order - 1 edges
    if len(chosen) != g.order - 1:
        raise DisconnectedError("cannot span a disconnected graph")
    return Graph.from_edges(g.order, chosen)


# ---------------------------------------------------------------------------
# text formats


def parse_graph(text: str) -> Graph:
    """Read the edge-list format: header "order edgecount", then "u v" lines.

    The edges are checked by :class:`Graph`, whose ``ValueError`` comes
    out as :class:`MalformedGraphError`.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedGraphError("empty input")
    try:
        order, count = map(int, lines[0].split())
    except ValueError:
        raise MalformedGraphError(f"bad header {lines[0]!r}") from None
    if len(lines) - 1 != count:
        raise MalformedGraphError(f"expected {count} edge lines, found {len(lines) - 1}")
    edges: list[Edge] = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise MalformedGraphError(f"bad edge line {ln!r}") from None
        edges.append(canon_edge(u, v))
    edges.sort()
    try:
        return Graph(order, tuple(edges))
    except ValueError as exc:
        raise MalformedGraphError(str(exc)) from None


def format_graph(g: Graph) -> str:
    """Canonical edge-list text; parse(format(g)) == g."""
    out = [f"{g.order} {g.size}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def to_dot(g: Graph, *, layers: int | None = None,
           bold: Iterable[tuple[int, int]] = ()) -> str:
    """DOT text for an undirected graph.

    With ``layers`` set, vertices are labeled "i_v" under the fixed
    product encoding; edges in ``bold`` (e.g. a constructed cycle) are
    drawn with style=bold.
    """
    if layers is not None:
        if g.order % layers:
            raise ValueError("order not divisible by layer count")
        base = g.order // layers

        def label(v: int) -> str:
            return format_label(*product_label(v, base))
    else:
        def label(v: int) -> str:
            return str(v)

    bold_set = {canon_edge(u, v) for u, v in bold}
    out = ["graph G {"]
    for v in g.vertices():
        out.append(f'  "{label(v)}";')
    for u, v in g.edges:
        attr = " [style=bold]" if (u, v) in bold_set else ""
        out.append(f'  "{label(u)}" -- "{label(v)}"{attr};')
    out.append("}")
    return "\n".join(out) + "\n"


__all__ = [
    "Bipartition",
    "DegreeStats",
    "Edge",
    "Graph",
    "bipartition",
    "canon_edge",
    "cartesian_product",
    "complete_bipartite",
    "complete_graph",
    "components",
    "cycle_graph",
    "degree_stats",
    "format_graph",
    "format_label",
    "is_bipartite",
    "is_connected",
    "is_tree",
    "parse_graph",
    "parse_label",
    "path_graph",
    "product_id",
    "product_label",
    "product_split",
    "spanning_tree_containing",
    "split_counts",
    "star_graph",
    "to_dot",
]
