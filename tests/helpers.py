"""Shared instance generators for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from functools import lru_cache

from boxham import kernels
from boxham._pykernels import _Budget, _OutOfBudget, _greedy_matching, count_components
from boxham.cycles import _COMPONENT_ROLES
from boxham.factors import _canon_factor, _cut_run
from boxham.graphs import Graph, format_label, is_connected
from boxham.toughness import _last_steps


def removal_stats(g: Graph, s) -> tuple[int, int]:
    """(component count, isolated count) of the graph minus the vertex set."""
    s = frozenset(s)
    for v in s:
        if not 1 <= v <= g.order:
            raise ValueError(f"vertex {v} not in the graph")
    return (kernels.count_components_after(g, s),
            kernels.count_isolated_after(g, s))


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


def apexed(g: Graph) -> Graph:
    """g plus an apex joined to every vertex, as vertex 1; g's vertex v is
    v + 1.  It has a Hamiltonian cycle exactly when g has a spanning path."""
    return Graph(g.order + 1, tuple((1, v + 1) for v in g.vertices())
                 + tuple((u + 1, v + 1) for u, v in g.edges))


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


def random_scan_base(rng: random.Random, order: int, chords: int) -> Graph:
    """Random base of the gap scanner's family: maximum degree 3 and a
    {P2,P3}-factor.

    Shuffled labels are cut into paths of 2 and 3 vertices (the factor),
    each path after the first is joined to an earlier one by one edge,
    and ``chords`` more edges are added; draws repeat until the maximum
    degree is exactly 3.
    """
    while True:
        labels = list(range(1, order + 1))
        rng.shuffle(labels)
        comps, i = [], 0
        while i < order:
            size = 2 if order - i in (2, 4) else rng.choice((2, 3))
            comps.append(labels[i:i + size])
            i += size
        g = joined_paths(rng, comps, chords)
        if max(g.degree(v) for v in g.vertices()) == 3:
            return g


def factor_tree(rng: random.Random, sizes, chords: int) -> Graph:
    """Shuffled labels cut into paths of the given sizes, joined as in
    :func:`joined_paths`: a tree with ``chords`` extra edges."""
    labels = list(range(1, sum(sizes) + 1))
    rng.shuffle(labels)
    comps, i = [], 0
    for size in sizes:
        comps.append(labels[i:i + size])
        i += size
    return joined_paths(rng, comps, chords)


def joined_paths(rng: random.Random, comps, chords: int) -> Graph:
    """The paths ``comps`` (label lists covering 1..order), each after the
    first joined to an earlier one by one edge, plus ``chords`` random
    extra edges."""
    order = sum(map(len, comps))
    edges = {tuple(sorted(e)) for c in comps for e in zip(c, c[1:])}
    for j in range(1, len(comps)):
        u, v = rng.choice(comps[j]), rng.choice(comps[rng.randrange(j)])
        edges.add(tuple(sorted((u, v))))
    missing = [(u, v) for u in range(1, order) for v in range(u + 1, order + 1)
               if (u, v) not in edges]
    edges.update(rng.sample(missing, chords))
    return Graph.from_edges(order, edges)


PETERSEN_EDGES = (
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7), (3, 8),
    (4, 9), (5, 10), (6, 8), (8, 10), (10, 7), (7, 9), (9, 6))


def petersen_necklace(m: int) -> Graph:
    """m copies of the Petersen graph minus its edge 1-2, ids 10i+1..10i+10,
    with vertex 2 of each copy joined to vertex 1 of the next, cyclically.

    Cubic, 1-tough, and non-Hamiltonian: a cycle crosses each copy's two
    outside edges once each, so it would hold a Hamiltonian 1-2 path of
    the copy, which with the edge 1-2 would be a Hamiltonian cycle of the
    Petersen graph.  The identity order has frontier width 7.
    """
    edges = []
    for i in range(m):
        edges += [(u + 10 * i, v + 10 * i) for u, v in PETERSEN_EDGES[1:]]
        edges.append((2 + 10 * i, 1 + 10 * ((i + 1) % m)))
    return Graph.from_edges(10 * m, edges)


def with_petersen_fragment(g: Graph, a: int, b: int) -> Graph:
    """The Petersen graph minus its edge 1-2 on ids 1..10, and ``g`` on ids
    11 on, joined by the edges 1 - (a + 10) and 2 - (b + 10).

    No Hamiltonian cycle, for the reason given at ``petersen_necklace``.
    """
    edges = list(PETERSEN_EDGES[1:]) + [(u + 10, v + 10) for u, v in g.edges]
    return Graph.from_edges(10 + g.order, edges + [(1, a + 10), (2, b + 10)])


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by backtracking, for small orders: the tests'
    second opinion on ``oracle.canonical_form``."""
    if g1.order != g2.order or g1.size != g2.size:
        return False
    n = g1.order
    deg1 = sorted(g1.degree(v) for v in g1.vertices())
    deg2 = sorted(g2.degree(v) for v in g2.vertices())
    if deg1 != deg2:
        return False
    # map vertices of g1 (in decreasing degree order) onto g2
    order1 = sorted(g1.vertices(), key=lambda v: (-g1.degree(v), v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        u = order1[idx]
        for w in g2.vertices():
            if w in used or g2.degree(w) != g1.degree(u):
                continue
            # edges and non-edges to the mapped vertices must both carry over
            if any(g1.has_edge(x, u) != g2.has_edge(y, w) for x, y in mapping.items()):
                continue
            mapping[u] = w
            used.add(w)
            if extend(idx + 1):
                return True
            del mapping[u]
            used.remove(w)
        return False

    return extend(0)


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


def reference_format_cycle(cycle) -> str:
    """Reference for ``cycles.format_cycle``: decode every id of the
    sequence to its (layer, base) label and format the labels one by one."""
    tokens = " ".join(format_label(i, v) for i, v in cycle.labels())
    return f"{cycle.layers} {cycle.order}\n{tokens}\n"


def reference_column_template(n: int, k: int, size: int, patterns) -> tuple:
    """Reference for ``cycles._column_template``: link the column cycle
    edge by edge into a neighbour map keyed by (layer - 1, position) and
    read the entries off in sorted order."""
    if size == 2:
        crossings = [(1, n)]
    else:
        crossings = [{1, n} | {i for i in range(1, n + 1) if i % 4 in (2, 3)},
                     {n} | {i for i in range(1, n + 1) if i % 4 in (0, 1)}]
    nbrs = defaultdict(list)

    def link(a, b):
        nbrs[a].append(b)
        nbrs[b].append(a)

    for pos, role in enumerate(_COMPONENT_ROLES[size]):
        for i in patterns[role]:
            link((i - 1, pos), (i, pos))
    for pos, layers in enumerate(crossings):
        for i in layers:
            link((i - 1, pos), (i - 1, pos + 1))
    if len(nbrs) != n * size or any(len(ends) != 2 for ends in nbrs.values()):
        raise AssertionError(f"the {size}-column cycle at n = {n} leaves a vertex "
                             "without two neighbours")
    return tuple((layer * k, pos, a * k, pa, b * k, pb)
                 for (layer, pos), ((a, pa), (b, pb)) in sorted(nbrs.items()))


def forged_assembly(assemble, i, j):
    """A stand-in for ``cycles._assemble`` whose cycle takes a 2-opt swap
    of steps i and j: the run between them is reversed.  On two steps in
    one layer every column keeps its vertical edges, so the column
    contract still holds while the new steps need not be edges."""
    def forging(*args):
        cycle, roles = assemble(*args)
        seq = cycle.seq
        seq = seq[:i + 1] + seq[i + 1:j + 1][::-1] + seq[j + 1:]
        return type(cycle)(cycle.layers, cycle.base_order, seq), roles
    return forging


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
        # below the root the start has one cycle edge left, so at most one
        # vertex may have a single usable connection other than the start
        weak = 0
        for b in _bits(rest):
            aw = adj[b.bit_length() - 1]
            s = (aw & rest).bit_count() + ((aw >> u) & 1)
            if s + (aw & 1) < 2:
                return False
            weak += prev >= 0 and s == 1
        if weak > 1:
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


def recursive_scattering_max(n, adj, max_nodes=None, deadline=None):
    """Reference for ``_pykernels.scattering_max``: the same branch and
    bound written as plain recursion.  It must give the same (status,
    value, mask, nodes) on every input; its depth grows with n, so keep
    inputs well under the recursion limit."""
    full = (1 << n) - 1
    budget = _Budget(max_nodes, deadline)

    def rec(idx, s_mask, kept):
        budget.charge()
        if idx == n:
            c = count_components(adj, kept)
            val = c - s_mask.bit_count()
            return (val, s_mask) if c >= 2 and val > 0 else None
        undecided = full & ~((1 << idx) - 1)
        if (count_components(adj, kept)
                + undecided.bit_count() - _greedy_matching(adj, undecided)
                - s_mask.bit_count()) <= 0:
            return None
        bit = 1 << idx
        if not adj[idx] & (full & ~s_mask & ~bit):
            return rec(idx + 1, s_mask, kept | bit)
        return rec(idx + 1, s_mask | bit, kept) or rec(idx + 1, s_mask, kept | bit)

    try:
        found = rec(0, 0, 0)
    except _OutOfBudget:
        return ("unknown", None, None, budget.nodes)
    value, mask = found or (None, None)
    return ("complete", value, mask, budget.nodes)


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


def reference_factor_from_picks(g: Graph, pick: list[int]):
    """Reference for ``factors._factor_from_picks``: the same read-off,
    with every vertex taken as a cycle start, a finished one giving an
    empty cycle and an empty run."""
    indeg = [0] * (g.order + 1)
    for v in g.vertices():
        indeg[pick[v]] += 1
    leaves: list[list[int]] = [[] for _ in range(g.order + 1)]
    done = [False] * (g.order + 1)
    queue = [v for v in g.vertices() if indeg[v] == 0]
    for v in queue:
        done[v] = True
        if not leaves[v]:
            leaves[pick[v]].append(v)
        indeg[pick[v]] -= 1
        if indeg[pick[v]] == 0:
            queue.append(pick[v])
    comps = []
    for start in g.vertices():
        cycle, v = [], start
        while not done[v]:
            done[v] = True
            cycle.append(v)
            v = pick[v]
        cut = next((i + 1 for i, c in enumerate(cycle) if leaves[c]), 0)
        run: list[int] = []
        for c in cycle[cut:] + cycle[:cut]:
            if not leaves[c]:
                run.append(c)
            elif len(run) == 1:
                leaves[c].append(run.pop())
            else:
                comps += _cut_run(run)
                run = []
        comps += _cut_run(run)
    comps += [(ls[0], c, *ls[1:]) for c, ls in enumerate(leaves) if ls]
    return _canon_factor(comps)


def reference_matching_search(g: Graph):
    """Reference for ``factors._matching_search``: the same greedy pass and
    blossom searches, with fresh tree arrays of the whole order for every
    free root.  Returns (mate, odd vertex set of the failed tree or None)."""
    mate = [0] * (g.order + 1)
    for v in g.vertices():
        if not mate[v]:
            for w in g.neighbors(v):
                if not mate[w]:
                    mate[v], mate[w] = w, v
                    break
    for root in g.vertices():
        if not mate[root]:
            odd = _reference_augment(g, mate, root)
            if odd is not None:
                return mate, odd
    return mate, None


def _reference_augment(g: Graph, mate: list[int], root: int):
    n = g.order
    parent = [0] * (n + 1)
    base = list(range(n + 1))
    even = [False] * (n + 1)
    even[root] = True
    queue = [root]

    def lca(a, b):
        on_path = [False] * (n + 1)
        while True:
            a = base[a]
            on_path[a] = True
            if a == root:
                break
            a = parent[mate[a]]
        while not on_path[base[b]]:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v, top, child, blossom):
        while base[v] != top:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:
        for w in g.neighbors(v):
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] and parent[mate[w]]):
                top = lca(v, w)
                blossom = [False] * (n + 1)
                mark(v, top, w, blossom)
                mark(w, top, v, blossom)
                for x in g.vertices():
                    if blossom[base[x]]:
                        base[x] = top
                        if not even[x]:
                            even[x] = True
                            queue.append(x)
            elif not parent[w]:
                parent[w] = v
                if not mate[w]:
                    while w:
                        u = parent[w]
                        nxt = mate[u]
                        mate[w], mate[u] = u, w
                        w = nxt
                    return None
                even[mate[w]] = True
                queue.append(mate[w])
    return frozenset(x for x in g.vertices() if parent[x] and not even[x])


def reference_frontier_scattering(g: Graph, order, *, max_nodes=None):
    """Reference for ``toughness.frontier_scattering`` without a time
    budget: the same dynamic program, but it stores one parent map per
    step and walks the maximizing state back through them to rebuild S.
    It must give the same (status, value, cut, states) on every input."""
    last = _last_steps(g, order)
    frontier: list[int] = []
    layer = {(False, ()): 0}
    parents = []
    nodes = 0
    for t, v in enumerate(order):
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
