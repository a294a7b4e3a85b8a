"""Pure-Python search kernels over bitmask adjacency.

This is the only implementation of every search.  Vertices are
0-indexed bit positions here; wrappers in :mod:`boxham.kernels` translate
from the 1-indexed Graph world.

All searches are deterministic: candidates are visited in ascending bit
order and budgets are checked at fixed points.  A search stops before it
counts a node past ``max_nodes``, so one that the cap stops reports
exactly the cap.
"""

from __future__ import annotations

import time
from itertools import combinations

_TIME_CHECK_STRIDE = 4096


class _OutOfBudget(Exception):
    pass


def _reaches_all(adj, region: int, start_bit: int, targets: int) -> bool:
    """True when a BFS from start_bit inside region reaches every bit of
    ``targets``; it stops as soon as they are all seen."""
    seen = start_bit
    frontier = start_bit
    while targets & ~seen:
        if not frontier:
            return False
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & region & ~seen
        seen |= frontier
    return True


def _connected_within(adj, region: int, start_bit: int) -> bool:
    """True when every bit of ``region`` is reachable from start_bit inside region."""
    return _reaches_all(adj, region, start_bit, region)


def count_components(adj, alive: int) -> int:
    count = 0
    rest = alive
    while rest:
        seed = rest & -rest
        seen = seed
        frontier = seed
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & alive & ~seen
            seen |= frontier
        rest &= ~seen
        count += 1
    return count


def count_isolated(adj, alive: int) -> int:
    count = 0
    m = alive
    while m:
        b = m & -m
        m ^= b
        if not adj[b.bit_length() - 1] & alive:
            count += 1
    return count


class _Budget:
    __slots__ = ("nodes", "max_nodes", "deadline", "next_check")

    def __init__(self, max_nodes, deadline):
        self.nodes = 0
        self.max_nodes = max_nodes
        self.deadline = deadline
        self.next_check = _TIME_CHECK_STRIDE

    def charge(self):
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            raise _OutOfBudget
        self.nodes += 1
        if self.deadline is not None and self.nodes >= self.next_check:
            self.next_check = self.nodes + _TIME_CHECK_STRIDE
            if time.monotonic() > self.deadline:
                raise _OutOfBudget


# ---------------------------------------------------------------------------
# Hamiltonian cycle


def ham_cycle(n, adj, max_nodes=None, deadline=None):
    """Exhaustive Hamiltonian cycle search from vertex 0.

    Returns (status, order, nodes) with status "found" | "none" | "unknown".
    A 2-vertex graph with an edge counts as the degenerate closed walk
    [0, 1]; callers that reject it must do so themselves.

    Pruning: every unvisited vertex must keep two usable connections (to
    the unvisited region, the path head or the start vertex), the start
    vertex must keep an unvisited neighbour, the unvisited region must
    stay connected through the path head, and edges forced by degree-2
    vertices must be respected.  Below the root at most one unvisited
    vertex may keep a single usable connection besides the start: it
    must take the start's closing edge.  Candidates are tried in
    ascending order and every node is charged to the budget before it is
    pruned.

    At the root the degree check already gives the first two conditions
    (the head is the start vertex, so an edge to it counts twice) and one
    full BFS checks the region; below it all checks are incremental and
    exact.  Moving the head from u to w removes w from the unvisited
    region and makes w the head, so the usable connections of an
    unvisited vertex v drop by one exactly when v is adjacent to u, and
    only the unvisited neighbours of u are rechecked.  The new region is
    the parent's connected region minus u, and each of its components
    holds a neighbour of u; it is connected exactly when the BFS from w
    reaches every neighbour of u in it, so that BFS stops once they are
    all seen.  The search keeps an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit.
    """
    if n == 1:
        return ("none", None, 0)
    if n == 2:
        if adj[0] & 2:
            return ("found", (0, 1), 0)
        return ("none", None, 0)
    deg = [a.bit_count() for a in adj]
    if min(deg) < 2:
        return ("none", None, 0)
    # forced[v]: neighbors of v of degree 2; both of a degree-2 vertex's
    # edges lie on every Hamiltonian cycle
    forced = [0] * n
    for v in range(n):
        f = 0
        m = adj[v]
        while m:
            b = m & -m
            m ^= b
            if deg[b.bit_length() - 1] == 2:
                f |= b
        if f.bit_count() > 2:
            return ("none", None, 0)
        forced[v] = f

    budget = _Budget(max_nodes, deadline)
    try:
        path = _cycle_search(n, adj, forced, budget.charge)
    except _OutOfBudget:
        return ("unknown", None, budget.nodes)
    if path is None:
        return ("none", None, budget.nodes)
    return ("found", tuple(path), budget.nodes)


def _cycle_search(n, adj, forced, charge):
    """The search of ``ham_cycle`` for n >= 3: the cycle as a vertex list,
    or None when there is none."""
    full = (1 << n) - 1
    charge()
    rest = full & ~1
    if not _connected_within(adj, full, 1):
        return None
    # one frame per path vertex: its visited set, its weak set (the
    # unvisited vertices left to close on the start) and untried candidates
    path = [0]
    visited_at = [1]
    weak_at = [0]
    untried = [adj[0] & rest]
    start_adj = adj[0]
    while path:
        cands = untried[-1]
        if not cands:
            path.pop()
            visited_at.pop()
            weak_at.pop()
            untried.pop()
            continue
        b = cands & -cands
        untried[-1] = cands ^ b
        u = path[-1]
        w = b.bit_length() - 1
        charge()
        visited = visited_at[-1] | b
        rest = full & ~visited
        aw = adj[w]
        if not rest:
            if (aw & 1 and not forced[w] & ~((1 << u) | 1)
                    and not forced[0] & ~((1 << path[1]) | b)):
                path.append(w)
                return path
            continue
        if not start_adj & rest:
            continue
        near = adj[u] & rest
        # a weak neighbour of u loses its one other connection and fails below
        weak = weak_at[-1] & rest
        m = near
        while m:
            c = m & -m
            av = adj[c.bit_length() - 1]
            s = (av & rest).bit_count() + ((av >> w) & 1)
            if s + (av & 1) < 2:
                break
            if s == 1:
                weak |= c
            m ^= c
        if m or weak & (weak - 1) or not _reaches_all(adj, rest, b, near):
            continue
        cands = aw & rest
        need = forced[w] & ~(1 << u)
        if need:
            cands &= need if not need & (need - 1) else 0
        path.append(w)
        visited_at.append(visited)
        weak_at.append(weak)
        untried.append(cands)
    return None


# ---------------------------------------------------------------------------
# scattering branch and bound


def _greedy_matching(adj, alive: int) -> int:
    size = 0
    avail = alive
    while avail:
        b = avail & -avail
        avail ^= b
        cand = adj[b.bit_length() - 1] & avail
        if cand:
            avail ^= cand & -cand
            size += 1
    return size


def scattering_max(n, adj, max_nodes=None, deadline=None):
    """Find a cut set S with c(G - S) - |S| > 0, the 1-toughness question.

    Returns (status, value, mask, nodes).  Status "complete" means the
    search ran to its end, "unknown" that the budget ran out.  ``value``
    and ``mask`` are c(G - S) - |S| and S for the first such S found, or
    None when there is none (always None on "unknown").

    Vertices are decided in ascending order, "in S" first.  A subtree is
    dropped once its bound is at most 0, and the search stops at the
    first leaf with at least two components and a value above 0.  The
    bound: putting every undecided vertex back can add at most one
    component each, tempered by a greedy matching on the undecided part
    (two matched vertices cannot both open new components).  The search
    keeps an explicit stack, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    full = (1 << n) - 1
    budget = _Budget(max_nodes, deadline)
    # pending nodes (idx, s_mask, kept); the S branch is pushed last, so
    # nodes come off in the preorder of the recursive search
    stack = [(0, 0, 0)]
    try:
        while stack:
            idx, s_mask, kept = stack.pop()
            budget.charge()
            if idx == n:
                c = count_components(adj, kept)
                val = c - s_mask.bit_count()
                if c >= 2 and val > 0:
                    return ("complete", val, s_mask, budget.nodes)
                continue
            undecided = full & ~((1 << idx) - 1)
            if (count_components(adj, kept)
                    + undecided.bit_count() - _greedy_matching(adj, undecided)
                    - s_mask.bit_count()) <= 0:
                continue
            bit = 1 << idx
            stack.append((idx + 1, s_mask, kept | bit))
            # with all its neighbors already removed, keeping idx is free
            # and adds a component, so the S branch is dominated
            if adj[idx] & (full & ~s_mask & ~bit):
                stack.append((idx + 1, s_mask | bit, kept))
    except _OutOfBudget:
        return ("unknown", None, None, budget.nodes)
    return ("complete", None, None, budget.nodes)


# ---------------------------------------------------------------------------
# exact toughness scan


def toughness_scan(n, adj):
    """Minimize |S| / c(G - S) over the cut sets S, by increasing |S|.

    Since c(G - S) <= n - |S|, no set of size s or more can beat the ratio
    s / (n - s), which only grows with s; the scan stops before the first
    size s with s * best_c >= best_s * (n - s).  Within one size the sets
    come in ascending-tuple lexicographic order and only a strictly
    smaller ratio replaces the best, so ties go to the smaller |S| and
    then to the lexicographically least set.

    Returns (size, components, mask, subsets) for the best cut, where
    subsets is the number of sets S whose components were counted; None
    when no cut set exists.
    """
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    best = None  # (size, comps, mask)
    subsets = 0
    for size in range(n):  # S = V leaves nothing to count
        if best is not None and size * best[1] >= best[0] * (n - size):
            break
        for combo in combinations(bits, size):
            mask = sum(combo)
            subsets += 1
            c = count_components(adj, full & ~mask)
            # size/c < bs/bc  <=>  size*bc < bs*c
            if c >= 2 and (best is None or size * best[1] < best[0] * c):
                best = (size, c, mask)
    if best is None:
        return None
    return (*best, subsets)
