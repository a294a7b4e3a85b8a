"""Seeded input generators for the benchmark.

Every graph is a pair ``(order, edges)`` on vertices 1..order with
``edges`` a sorted list of ``(u, v)``, ``u < v``.  Nothing here imports
``boxham``: the program under test sees only the files written by
:func:`write_graph`, in its edge-list format.

Sizes are stratified, not drawn freely: request ``i`` of ``k`` takes the
middle of the ``i``-th of ``k`` equal slices of the range as its size.
Two seeds then get different graphs of the same sizes, which keeps
per-run percentiles steady across seeds: a random offset inside each
slice moved construct's median latency by 9% between seeds.
"""

from __future__ import annotations

import random


def write_graph(path, order, edges) -> None:
    lines = [f"{order} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def stratified(rng: random.Random, count: int, lo: float, hi: float, *, log=False):
    """``count`` values, the middle of each equal slice of [lo, hi], shuffled."""
    out = []
    for i in range(count):
        t = (i + 0.5) / count
        out.append(lo * (hi / lo) ** t if log else lo + (hi - lo) * t)
    rng.shuffle(out)
    return out


def _canon(u, v):
    return (u, v) if u < v else (v, u)


def relabel(rng: random.Random, order: int, edges):
    """The same graph under a random vertex permutation."""
    perm = list(range(1, order + 1))
    rng.shuffle(perm)
    return sorted(_canon(perm[u - 1], perm[v - 1]) for u, v in edges)


def max_degree(order: int, edges) -> int:
    deg = [0] * (order + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg)


def factor_graph(rng: random.Random, sizes, cap: int, extra: int = 0):
    """Random connected graph with a {P2,P3}-factor whose components have
    ``sizes``; a tree when ``extra`` is 0.

    Each component is a path; component i > 0 hangs from one earlier vertex
    by a single edge, then ``extra`` chords are added.  No vertex gets
    degree above ``cap`` (at least 3).  Components keep consecutive labels
    in creation order and the ends of a triple stay leaves, so the
    program's smallest-vertex-first factor searches succeed without
    backtracking; random labels make them exponential even when a factor
    exists.
    """
    deg = [0]
    edges = set()
    ports: list[int] = []  # vertices that may take more edges
    hosts: list[int] = []  # every vertex that is not the end of a triple
    order = 0
    for idx, size in enumerate(sizes):
        comp = list(range(order + 1, order + size + 1))
        order += size
        deg.extend([1] * size)
        for a, b in zip(comp, comp[1:]):
            edges.add((a, b))
        own = comp if size == 2 else [comp[1]]
        if size == 3:
            deg[comp[1]] = 2
        if idx:
            x = rng.choice(own)
            if ports:
                j = rng.randrange(len(ports))
                y = ports[j]
            else:  # every port is full: exceed the cap once
                j, y = -1, rng.choice(hosts)
            edges.add((y, x))
            deg[x] += 1
            deg[y] += 1
            if j >= 0 and deg[y] >= cap:
                ports[j] = ports[-1]
                ports.pop()
        ports.extend(v for v in own if deg[v] < cap)
        hosts.extend(own)
    for _ in range(20 * extra):
        if not extra or len(ports) < 2:
            break
        i, j = rng.sample(range(len(ports)), 2)
        u, v = _canon(ports[i], ports[j])
        if (u, v) in edges:
            continue
        edges.add((u, v))
        extra -= 1
        for k in sorted((i, j), reverse=True):
            w = ports[k]
            deg[w] += 1
            if deg[w] >= cap:
                ports[k] = ports[-1]
                ports.pop()
    return order, sorted(edges)


def component_sizes(rng: random.Random, order: int, *, triples: int):
    """Component sizes summing to ``order`` with exactly ``triples`` threes."""
    pairs, rem = divmod(order - 3 * triples, 2)
    if rem or pairs < 0:
        raise ValueError("order and triple count do not fit")
    sizes = [2] * pairs + [3] * triples
    rng.shuffle(sizes)
    return sizes


def matching_graph(rng, order: int, cap: int, extra: int = 0):
    return factor_graph(rng, [2] * (order // 2), cap, extra)


def p23_graph(rng, order: int, cap: int, extra: int = 0):
    """Graph with a {P2,P3}-factor made of pairs and about order/15 triples.

    It has no perfect matching: the middle of each triple has two leaves.
    """
    triples = max(1, round(order / 15))
    if (order - 3 * triples) % 2:
        triples += 1
    return factor_graph(rng, component_sizes(rng, order, triples=triples), cap, extra)


def no_factor_graph(rng: random.Random, order: int, kind: str):
    """Connected graph of ``order`` with no {P2,P3}-factor, and its witness.

    A set S of s vertices gets 2s+1 pendant neighbours, so removing S
    isolates more than 2|S| vertices (Amahashi-Kano).  S and the remaining
    vertices form a random tree; ``bipartite`` adds chords that keep the
    2-colouring and ``general`` adds chords that close odd cycles, both
    away from the pendants.  Returns (order, edges, witness).
    """
    s = 1 if order < 12 else 2
    core = [v for v in range(1, order + 1) if v <= s or v > 3 * s + 1]
    pendants = range(s + 1, 3 * s + 2)
    edges = {(1 + i % s, p) for i, p in enumerate(pendants)}
    depth = {core[0]: 0}
    for i, v in enumerate(core[1:], 1):
        y = core[rng.randrange(i)]
        edges.add(_canon(v, y))
        depth[v] = depth[y] + 1
    want = 0 if kind == "tree" else max(1, order // 5)
    for _ in range(200):
        if not want:
            break
        u, v = rng.sample(core, 2)
        e = _canon(u, v)
        odd = (depth[u] + depth[v]) % 2
        if e in edges or odd != (kind == "bipartite"):
            continue
        edges.add(e)
        want -= 1
    perm = list(range(1, order + 1))
    rng.shuffle(perm)
    out = sorted(_canon(perm[u - 1], perm[v - 1]) for u, v in edges)
    return order, out, frozenset(perm[v - 1] for v in range(1, s + 1))


def is_connected(order: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(order + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == order


def random_connected(rng: random.Random, order: int, extra: int):
    """Random tree on ``order`` vertices plus ``extra`` chords."""
    edges = set()
    for v in range(2, order + 1):
        edges.add((rng.randrange(1, v), v))
    cap = order * (order - 1) // 2
    extra = min(extra, cap - len(edges))
    while extra:
        u, v = rng.sample(range(1, order + 1), 2)
        e = _canon(u, v)
        if e not in edges:
            edges.add(e)
            extra -= 1
    return order, relabel(rng, order, sorted(edges))


def product(n: int, order: int, edges):
    """P_n x G under the id (layer - 1) * order + v, as (order, edges)."""
    out = []
    for i in range(n):
        off = i * order
        out.extend((off + u, off + v) for u, v in edges)
        if i + 1 < n:
            out.extend((off + v, off + order + v) for v in range(1, order + 1))
    return n * order, sorted(out)


def ladder(length: int):
    """P_length x K2 as a base-free product: (order, edges)."""
    return product(length, 2, [(1, 2)])

