"""Path factors, perfect matchings, and non-existence certificates.

A factor here is a spanning collection of vertex-disjoint paths with two
or three vertices each; a factor made of two-vertex paths only is a
perfect matching.  Both searches are polynomial augmenting-path
algorithms, for graphs of any order:

* perfect matchings by Edmonds' blossom algorithm;
* 2/3-path factors through a *pick map*, in which every vertex picks a
  neighbor and no vertex is picked more than twice.  Such a map exists
  exactly when a factor does, and the factor is read off the map.

When no factor exists the obstruction is a vertex set S whose removal
isolates more than 2|S| vertices (Amahashi-Kano); the pick-map search
that fails yields one directly.  For bipartite graphs such a set can
always be pushed into a single side.  When no perfect matching exists
the blossom search that fails yields a *barrier*: a set S whose removal
leaves more than |S| components of odd order (Tutte).  With S non-empty
that is also a cut showing the graph is not 1-tough.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionFailedError
from .graphs import Bipartition, Graph, components
from .kernels import count_isolated_after

Component = tuple[int, ...]


class PathFactor(NamedTuple):
    """Vertex-disjoint paths of 2 or 3 vertices covering the whole graph.

    Components are canonical: pairs sorted ascending, triples stored as
    (end, middle, end) with the smaller end first; the component list is
    sorted.
    """

    components: tuple[Component, ...]

    @property
    def is_perfect_matching(self) -> bool:
        return all(len(c) == 2 for c in self.components)


class FactorCertificate(NamedTuple):
    """Witness that no path factor exists: isolating more than 2|S| vertices."""

    witness: frozenset[int]
    isolated_count: int

    def format(self) -> str:
        inner = ",".join(str(v) for v in sorted(self.witness))
        return f"S = {{{inner}}}; i(G-S) = {self.isolated_count}; 2|S| = {2 * len(self.witness)}"


class MatchingBarrier(NamedTuple):
    """Witness that no perfect matching exists: removing S leaves more
    components of odd order than |S| (Tutte)."""

    witness: frozenset[int]
    odd_components: int

    def format(self) -> str:
        inner = ",".join(str(v) for v in sorted(self.witness))
        return f"S = {{{inner}}}; odd(G-S) = {self.odd_components}; |S| = {len(self.witness)}"


def _canon_component(comp: Component) -> Component:
    if len(comp) == 2:
        a, b = comp
        return (a, b) if a < b else (b, a)
    a, m, b = comp
    return (a, m, b) if a < b else (b, m, a)


def _canon_factor(comps) -> PathFactor:
    return PathFactor(tuple(sorted(_canon_component(c) for c in comps)))


def validate_path_factor(g: Graph, factor: PathFactor) -> bool:
    """Independent validator: disjoint, covering, adjacent, sizes 2 or 3."""
    seen: set[int] = set()
    for comp in factor.components:
        if len(comp) not in (2, 3):
            return False
        for v in comp:
            if v in seen or not (1 <= v <= g.order):
                return False
            seen.add(v)
        for a, b in zip(comp, comp[1:]):
            if b not in g.neighbors(a):
                return False
    return len(seen) == g.order


# ---------------------------------------------------------------------------
# perfect matching


def find_perfect_matching(g: Graph) -> PathFactor | None:
    """Perfect matching by Edmonds' blossom algorithm, or None."""
    if g.order % 2:
        return None
    mate, barrier = _matching_search(g)
    return None if barrier is not None else _matching_factor(g, mate)


def perfect_matching_or_barrier(g: Graph) -> PathFactor | MatchingBarrier:
    """One blossom search, giving either a perfect matching or a witness
    that none exists.

    The search that fails leaves a frustrated alternating tree.  Each of
    its even blossoms is a whole odd component of G - A, where A is the
    set of the tree's odd vertices, and there is one blossom more than
    there are odd vertices, so odd(G - A) > |A| (Tutte).  On odd order A
    may be empty.  The count is taken afresh by :func:`components`, which
    does not read the blossom state.
    """
    mate, barrier = _matching_search(g)
    if barrier is None:
        return _matching_factor(g, mate)
    odd = sum(len(c) % 2 for c in components(g, barrier))
    if odd <= len(barrier):
        raise AssertionError("failed blossom search without a barrier")
    return MatchingBarrier(barrier, odd)


def _matching_factor(g: Graph, mate: list[int]) -> PathFactor:
    return _canon_factor((v, mate[v]) for v in g.vertices() if v < mate[v])


def _matching_search(g: Graph) -> tuple[list[int], frozenset[int] | None]:
    """Edmonds' search for a perfect matching.

    A greedy pass pairs each vertex, ascending, with its smallest free
    neighbor; then one augmenting search runs from every vertex still
    free.  A perfect matching would give every free vertex an augmenting
    path, so the first root without one ends the search.  Returns
    ``(mate, None)`` when the matching is perfect, else the partial
    matching and the odd vertex set of the tree that failed.

    The tree arrays are allocated once here and shared by every root:
    each search leaves them clean, so a short augmenting path costs time
    in proportion to its own tree, not to the order.
    """
    n = g.order
    mate = [0] * (n + 1)  # 0: free
    for v in g.vertices():
        if not mate[v]:
            for w in g.neighbors(v):
                if not mate[w]:
                    mate[v], mate[w] = w, v
                    break
    tree = ([0] * (n + 1), list(range(n + 1)), [False] * (n + 1), [False] * (n + 1))
    for root in g.vertices():
        if not mate[root]:
            odd = _augment_matching(g, mate, root, tree)
            if odd is not None:
                return mate, odd
    return mate, None


def _augment_matching(g: Graph, mate: list[int], root: int,
                      tree: tuple[list[int], list[int], list[bool], list[bool]]
                      ) -> frozenset[int] | None:
    """Grow an alternating tree from a free root, contracting blossoms,
    and flip the first augmenting path found: return None.  When there
    is none, return the tree's odd vertices.

    ``tree`` holds four arrays over the vertices, clean on entry and left
    clean on return.  ``parent`` links each odd vertex to the even vertex
    that reached it; ``base`` maps each vertex to the base of its
    contracted blossom (clean: itself); ``even`` marks the even vertices;
    ``flag`` is scratch for the walk to the root and the blossom bases.
    Only vertices of the tree change, and ``reached`` lists them.
    """
    parent, base, even, flag = tree
    even[root] = True
    queue = [root]
    reached = [root]

    def lca(a: int, b: int) -> int:
        on_path = []
        while True:
            a = base[a]
            flag[a] = True
            on_path.append(a)
            if a == root:
                break
            a = parent[mate[a]]
        while not flag[base[b]]:
            b = parent[mate[base[b]]]
        for x in on_path:
            flag[x] = False
        return base[b]

    def mark(v: int, top: int, child: int, bases: list[int]) -> None:
        while base[v] != top:
            bases += (base[v], base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    def finish(result: frozenset[int] | None) -> frozenset[int] | None:
        for x in reached:
            parent[x], base[x], even[x] = 0, x, False
        return result

    for v in queue:
        for w in g.neighbors(v):
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] and parent[mate[w]]):
                # w is even too: the edge closes an odd cycle
                top = lca(v, w)
                bases: list[int] = []
                mark(v, top, w, bases)
                mark(w, top, v, bases)
                for x in bases:
                    flag[x] = True
                # ascending, so the queue grows in vertex order
                members = sorted(x for x in reached if flag[base[x]])
                for x in bases:
                    flag[x] = False
                for x in members:
                    base[x] = top
                    if not even[x]:
                        even[x] = True
                        queue.append(x)
            elif not parent[w]:
                parent[w] = v
                reached.append(w)
                if not mate[w]:
                    while w:
                        u = parent[w]
                        nxt = mate[u]
                        mate[w], mate[u] = u, w
                        w = nxt
                    return finish(None)
                even[mate[w]] = True
                queue.append(mate[w])
                reached.append(mate[w])
    # frustrated: blossom vertices got a parent too, but they are even
    return finish(frozenset(x for x in reached if parent[x] and not even[x]))


# ---------------------------------------------------------------------------
# factors with paths of 2 or 3 vertices, through pick maps


def _pick_map(g: Graph) -> tuple[list[int], list[int] | None]:
    """Search for a pick map: every vertex picks a neighbor, none is
    picked more than twice.

    This is a bipartite assignment with capacity 2 on the picked side.  A
    greedy pass lets each vertex, ascending, pick its smallest neighbor
    with room; then one augmenting search runs from every vertex still
    without a pick.  Returns ``(pick, None)`` on success, else the partial
    map and the vertex set reached by the search that failed.
    """
    pick = [0] * (g.order + 1)  # 0: no pick yet
    pickers: list[list[int]] = [[] for _ in range(g.order + 1)]
    for v in g.vertices():
        for w in g.neighbors(v):
            if len(pickers[w]) < 2:
                pick[v] = w
                pickers[w].append(v)
                break
    for root in g.vertices():
        if not pick[root]:
            stuck = _augment_picks(g, pick, pickers, root)
            if stuck is not None:
                return pick, stuck
    return pick, None


def _augment_picks(g: Graph, pick: list[int], pickers: list[list[int]],
                   root: int) -> list[int] | None:
    """Breadth-first search for a chain of re-picks that makes room for
    the root: apply it and return None, or return the set X it reached.
    Every neighbor of that X is picked twice from inside X, so
    |X| = 2|N(X)| + 1 and no pick map exists.
    """
    prev = {root: 0}  # who takes over a reached vertex's current pick
    reached = [root]
    full: set[int] = set()
    for x in reached:
        for w in g.neighbors(x):
            if w in full:
                continue
            if len(pickers[w]) < 2:
                while x:
                    old = pick[x]
                    pick[x] = w
                    pickers[w].append(x)
                    if old:
                        pickers[old].remove(x)
                    w, x = old, prev[x]
                return None
            full.add(w)
            for y in pickers[w]:
                if y not in prev:
                    prev[y] = x
                    reached.append(y)
    return reached


def _factor_from_picks(g: Graph, pick: list[int]) -> PathFactor:
    """Read a 2/3-path factor off a complete pick map.

    Vertices nobody picks are peeled first, in topological order: one
    that no peeled vertex joined joins its own pick as a leaf, which makes
    that pick a *centre* of a star with at most two leaves.  What remains
    are the cycles of the map.  Their free vertices fall into runs between
    centres; a run of two or more is cut into 2- and 3-paths along the
    cycle, and a single vertex hangs on its pick, the next centre, which
    has room because its cycle predecessor is one of its two pickers.
    """
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
    comps: list[Component] = []
    for start in g.vertices():
        if done[start]:
            continue
        cycle, v = [], start
        while not done[v]:
            done[v] = True
            cycle.append(v)
            v = pick[v]
        cut = next((i + 1 for i, c in enumerate(cycle) if leaves[c]), 0)
        run: list[int] = []
        for c in cycle[cut:] + cycle[:cut]:  # ends at a centre, if any
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


def _cut_run(run: list[int]) -> list[Component]:
    """Consecutive 2-paths along a run, the last one a 3-path if it is odd."""
    cuts = list(range(0, len(run) - 1, 2)) + [len(run)]
    return [tuple(run[i:j]) for i, j in zip(cuts, cuts[1:])]


def find_p23_factor(g: Graph) -> PathFactor | None:
    """Factor into paths of 2 or 3 vertices, or None when none exists."""
    found = p23_factor_or_obstruction(g)
    return found if isinstance(found, PathFactor) else None


# ---------------------------------------------------------------------------
# obstruction certificates


def factor_obstruction(g: Graph) -> FactorCertificate | None:
    """A witness that no factor exists, or None when one does."""
    found = p23_factor_or_obstruction(g)
    return found if isinstance(found, FactorCertificate) else None


def p23_factor_or_obstruction(g: Graph) -> PathFactor | FactorCertificate:
    """One pick-map search, giving either a 2/3-path factor or a witness
    that none exists.

    The search that fails reaches a set X with |X| > 2|N(X)|.  Then
    S = N(X) - X isolates every vertex of X - N(X), which is more than
    2|S| vertices.  S need not be a minimum witness; its count is taken
    afresh by the kernel.
    """
    pick, stuck = _pick_map(g)
    if stuck is None:
        return _factor_from_picks(g, pick)
    s = frozenset(w for v in stuck for w in g.neighbors(v)) - set(stuck)
    iso = count_isolated_after(g, s)
    if iso <= 2 * len(s):
        raise AssertionError("failed pick-map search without an obstruction")
    return FactorCertificate(s, iso)


def one_sided_obstruction(h: Graph, bip: Bipartition) -> FactorCertificate:
    """Obstruction lying entirely inside one side of a bipartition.

    Splits a general witness S into its side-a and side-b parts; every
    vertex isolated by S is isolated by one of the parts, so the counts
    add up and at least one part violates the bound on its own.
    """
    general = factor_obstruction(h)
    if general is None:
        raise PreconditionFailedError("graph has a path factor; no obstruction exists")
    for side in (bip.side_a, bip.side_b):
        part = general.witness & side
        iso = count_isolated_after(h, part)
        if iso > 2 * len(part):
            return FactorCertificate(frozenset(part), iso)
    raise AssertionError("split witness lost its excess: counting argument violated")


__all__ = [
    "FactorCertificate",
    "MatchingBarrier",
    "PathFactor",
    "factor_obstruction",
    "find_p23_factor",
    "find_perfect_matching",
    "one_sided_obstruction",
    "p23_factor_or_obstruction",
    "perfect_matching_or_barrier",
    "validate_path_factor",
]
