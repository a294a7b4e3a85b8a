"""Shared instance generators for the test suite."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from boxham._pykernels import _Budget, _OutOfBudget, count_components
from boxham.graphs import Graph, is_connected, isomorphic


def random_connected_graph(rng: random.Random, min_order: int = 2,
                           max_order: int = 10) -> Graph:
    """Random tree by attachment plus random extra edges; always connected.

    The extra-edge probability is itself random per graph, so the sample
    mixes trees, sparse graphs, and fairly dense ones.
    """
    n = rng.randint(min_order, max_order)
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    extra_p = rng.random() * 0.6
    for u in range(1, n):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def caterpillar(spine: int, legs: int) -> Graph:
    """Path 1..spine with ``legs`` leaves on every spine vertex."""
    edges = [(v, v + 1) for v in range(1, spine)]
    for v in range(1, spine + 1):
        edges += [(v, spine + (v - 1) * legs + i) for i in range(1, legs + 1)]
    return Graph.from_edges(spine * (1 + legs), edges)


def random_connected_bipartite(rng: random.Random, min_order: int = 2,
                               max_order: int = 10) -> Graph:
    n = rng.randint(min_order, max_order)
    a = rng.randint(1, n - 1)
    left = list(range(1, a + 1))
    right = list(range(a + 1, n + 1))
    # spanning skeleton first, then random cross edges
    edges = set()
    for v in right:
        edges.add((rng.choice(left), v))
    for u in left[1:]:
        if not any(e[0] == u for e in edges):
            edges.add((u, rng.choice(right)))
    for u in left:
        for v in right:
            if rng.random() < 0.3:
                edges.add((u, v))
    g = Graph.from_edges(n, edges)
    if not is_connected(g):
        # rare when several left vertices share no right partner; just retry
        return random_connected_bipartite(rng, min_order, max_order)
    return g


def _degree_profile(g: Graph) -> tuple:
    degs = {v: g.degree(v) for v in g.vertices()}
    return tuple(sorted(
        (degs[v], tuple(sorted(degs[w] for w in g.neighbors(v))))
        for v in g.vertices()))


@lru_cache(maxsize=None)
def connected_bipartite_up_to_iso(max_order: int) -> tuple[Graph, ...]:
    """Every connected bipartite graph with 2..max_order vertices, one per
    isomorphism class.

    Enumerates subgraphs of K_{a,b} over all splits a <= b, filters to
    connected, and deduplicates with profile buckets plus the exact
    backtracking test.  Sized for max_order around 7.
    """
    assert max_order <= 8, "labeled enumeration blows up beyond order 8"
    found: list[Graph] = []
    buckets: dict[tuple, list[Graph]] = {}
    for n in range(2, max_order + 1):
        for a in range(1, n // 2 + 1):
            b = n - a
            cross = [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1)]
            for bits in range(1 << len(cross)):
                edges = [cross[i] for i in range(len(cross)) if bits >> i & 1]
                if len(edges) < n - 1:
                    continue
                g = Graph.from_edges(n, edges)
                if not is_connected(g):
                    continue
                key = (n, g.size, _degree_profile(g))
                bucket = buckets.setdefault(key, [])
                if any(isomorphic(g, h) for h in bucket):
                    continue
                bucket.append(g)
                found.append(g)
    return tuple(found)


def all_pairs(items):
    return itertools.combinations(items, 2)


def _bits(mask):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b


def recursive_ham_cycle(n, adj, max_nodes=None, deadline=None):
    """Reference for ``_pykernels.ham_cycle``: the same search written as
    plain recursion that rescans every unvisited vertex and BFSes the whole
    unvisited region at each node.  It must give the same (status, order,
    nodes) on every input; its depth grows with the path, so keep inputs
    well under the recursion limit."""
    if n == 1:
        return ("none", None, 0)
    if n == 2:
        if adj[0] & 2:
            return ("found", (0, 1), 0)
        return ("none", None, 0)
    full = (1 << n) - 1
    deg = [a.bit_count() for a in adj]
    if min(deg) < 2:
        return ("none", None, 0)
    # forced[v]: neighbors of v of degree 2, whose edges every cycle uses
    forced = [sum(b for b in _bits(a) if deg[b.bit_length() - 1] == 2) for a in adj]
    if max(f.bit_count() for f in forced) > 2:
        return ("none", None, 0)

    def connected(region, start_bit):
        seen = frontier = start_bit
        while frontier:
            nxt = 0
            for b in _bits(frontier):
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & region & ~seen
            seen |= frontier
        return seen & region == region

    budget = _Budget(max_nodes, deadline)
    path = [0]

    def extend(u, visited, prev):
        budget.charge()
        rest = full & ~visited
        if not rest:
            return bool(adj[u] & 1
                        and not forced[u] & ~((1 << prev) | 1)
                        and not forced[0] & ~((1 << path[1]) | (1 << u)))
        for b in _bits(rest):
            aw = adj[b.bit_length() - 1]
            if (aw & rest).bit_count() + ((aw >> u) & 1) + (aw & 1) < 2:
                return False
        if not adj[0] & rest or not connected(rest | (1 << u), 1 << u):
            return False
        for b in _bits(adj[u] & rest):
            if prev >= 0 and forced[u] & ~((1 << prev) | b):
                continue
            path.append(b.bit_length() - 1)
            if extend(b.bit_length() - 1, visited | b, u):
                return True
            path.pop()
        return False

    try:
        found = extend(0, 1, -1)
    except _OutOfBudget:
        return ("unknown", None, budget.nodes)
    return ("found", tuple(path), budget.nodes) if found else ("none", None, budget.nodes)


def recursive_ham_path(n, adj, max_nodes=None, deadline=None):
    """Reference for ``_pykernels.ham_path``: the same search written as
    plain recursion that rescans every unvisited vertex and BFSes the whole
    unvisited region at each node.  It must give the same (status, order,
    nodes) on every input; keep inputs well under the recursion limit."""
    if n == 1:
        return ("found", (0,), 0)
    full = (1 << n) - 1
    deg = [a.bit_count() for a in adj]
    if min(deg) == 0:
        return ("none", None, 0)
    ones = [v for v in range(n) if deg[v] == 1]
    if len(ones) > 2:
        return ("none", None, 0)
    starts = [ones[0]] if ones else list(range(n))

    def connected(region, start_bit):
        seen = frontier = start_bit
        while frontier:
            nxt = 0
            for b in _bits(frontier):
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & region & ~seen
            seen |= frontier
        return seen & region == region

    budget = _Budget(max_nodes, deadline)
    path = []

    def extend(u, visited):
        budget.charge()
        rest = full & ~visited
        if not rest:
            return True
        # every unvisited vertex needs a live connection; at most one may
        # rely on a single connection (it must then end the path)
        weak = 0
        for b in _bits(rest):
            aw = adj[b.bit_length() - 1]
            avail = (aw & rest).bit_count() + ((aw >> u) & 1)
            if avail == 0:
                return False
            weak += avail == 1
            if weak > 1:
                return False
        if not connected(rest | (1 << u), 1 << u):
            return False
        for b in _bits(adj[u] & rest):
            path.append(b.bit_length() - 1)
            if extend(b.bit_length() - 1, visited | b):
                return True
            path.pop()
        return False

    try:
        for s in starts:
            path[:] = [s]
            if extend(s, 1 << s):
                return ("found", tuple(path), budget.nodes)
    except _OutOfBudget:
        return ("unknown", None, budget.nodes)
    return ("none", None, budget.nodes)


def _lex_smaller(a: int, b: int) -> bool:
    """Order on equal-size vertex sets: ascending-tuple lexicographic."""
    if a == b:
        return False
    diff = a ^ b
    return bool(a & (diff & -diff))


def full_toughness_scan(n, adj):
    """Reference for ``_pykernels.toughness_scan``: every one of the 2^n
    subsets in numeric order, with no stop.  Returns (size, components,
    mask) for the best cut, preferring smaller |S| and then the
    lexicographically least set on ties; None when no cut set exists."""
    best = None  # (size, comps, mask)
    for mask in range(1 << n):
        alive = ((1 << n) - 1) & ~mask
        if not alive:
            continue
        c = count_components(adj, alive)
        if c < 2:
            continue
        size = mask.bit_count()
        if best is None:
            best = (size, c, mask)
            continue
        bs, bc, bm = best
        # size/c < bs/bc  <=>  size*bc < bs*c
        lhs = size * bc
        rhs = bs * c
        if lhs < rhs or (lhs == rhs and (size < bs or (size == bs and _lex_smaller(mask, bm)))):
            best = (size, c, mask)
    return best
