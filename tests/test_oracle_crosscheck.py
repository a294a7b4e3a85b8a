"""Second-opinion oracles: subset dynamic programming, sharing nothing
with the pruned backtracking search, must agree with it on existence.

The backtracker's forced-edge and availability pruning is exactly the
kind of code that can silently over-prune, so this is the guard."""

import random

from boxham.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from boxham.oracle import (
    enumerate_trees,
    find_hamiltonian_cycle,
    fixtures,
)
from helpers import random_connected_graph, spanning_path


def ham_exists_dp(g) -> bool:
    """Held-Karp style reachability anchored at vertex 1."""
    n = g.order
    if n == 1:
        return False
    adj = list(g.adjacency_masks)
    if n == 2:
        return bool(adj[0] & 2)
    full = (1 << n) - 1
    reach = [0] * (1 << n)
    reach[1] = 1
    for mask in sorted(range(1 << n), key=lambda m: m.bit_count()):
        ends = reach[mask]
        if not ends or not mask & 1:
            continue
        m = ends
        while m:
            b = m & -m
            m ^= b
            cand = adj[b.bit_length() - 1] & ~mask
            while cand:
                w = cand & -cand
                cand ^= w
                reach[mask | w] |= w
    ends = reach[full]
    m = ends
    while m:
        b = m & -m
        m ^= b
        if adj[b.bit_length() - 1] & 1:
            return True
    return False


def trace_exists_dp(g) -> bool:
    n = g.order
    if n == 1:
        return True
    adj = list(g.adjacency_masks)
    reach = [0] * (1 << n)
    for s in range(n):
        reach[1 << s] |= 1 << s
    for mask in sorted(range(1 << n), key=lambda m: m.bit_count()):
        m = reach[mask]
        while m:
            b = m & -m
            m ^= b
            cand = adj[b.bit_length() - 1] & ~mask
            while cand:
                w = cand & -cand
                cand ^= w
                reach[mask | w] |= w
    return reach[(1 << n) - 1] != 0


def population():
    rng = random.Random(4242)
    out = [random_connected_graph(rng, 2, 11) for _ in range(250)]
    out += [cycle_graph(k) for k in range(3, 12)]
    out += [complete_graph(k) for k in range(2, 9)]
    out += [star_graph(k) for k in range(2, 9)]
    out += [fixtures().fig1, fixtures().t1, fixtures().fig4]
    out += [cartesian_product(path_graph(a), path_graph(b))
            for a in (2, 3) for b in (2, 3, 4)]
    out += list(enumerate_trees(9))
    return [g for g in out if g.order <= 12]


def test_ham_oracle_matches_subset_dp():
    for g in population():
        assert ham_exists_dp(g) == find_hamiltonian_cycle(g).found, g.edges


def test_traceable_oracle_matches_subset_dp():
    for g in population():
        assert trace_exists_dp(g) == (spanning_path(g)[0] == "found"), g.edges


def test_traceable_oracle_matches_subset_dp_on_random_graphs():
    # disconnected graphs and isolated vertices included; a found path is
    # checked edge by edge here too
    rng = random.Random(108)
    statuses = set()
    for _ in range(1000):
        n = rng.randint(1, 14)
        p = rng.uniform(0.1, 0.8)
        g = Graph.from_edges(n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
                                 if rng.random() < p])
        status, path, _ = spanning_path(g)
        assert status == ("found" if trace_exists_dp(g) else "none"), g.edges
        if path is not None:
            assert sorted(path) == list(g.vertices())
            assert all(map(g.has_edge, path, path[1:])), g.edges
        statuses.add(status)
    assert statuses == {"found", "none"}
