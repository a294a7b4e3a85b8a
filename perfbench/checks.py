"""Answer checkers that share no code with ``boxham``.

Each checker takes the benchmark's own copy of the input (an edge list it
generated) and the program's answer, and returns ``None`` when the answer
holds or a one-line reason when it does not.  Everything is iterative, so
no checker can hit the recursion limit on large inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction


def adjacency(order: int, edges):
    adj: list[list[int]] = [[] for _ in range(order + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def removal_counts(order: int, edges, removed) -> tuple[int, int]:
    """(components, isolated vertices) of G - removed, by BFS."""
    removed = set(removed)
    adj = adjacency(order, edges)
    seen = set(removed)
    comps = isolated = 0
    for root in range(1, order + 1):
        if root in seen:
            continue
        comps += 1
        seen.add(root)
        queue = [root]
        size = 0
        while queue:
            u = queue.pop()
            size += 1
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if size == 1:
            isolated += 1
    return comps, isolated


def bipartite_sides(order: int, edges):
    """(side sizes) of a 2-colouring, or None when an odd cycle exists."""
    adj = adjacency(order, edges)
    colour = [-1] * (order + 1)
    sides = [0, 0]
    for root in range(1, order + 1):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        sides[0] += 1
        queue = [root]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[u]
                    sides[colour[w]] += 1
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return None
    return tuple(sides)


def parse_json_object(stdout: str):
    """The one JSON object on stdout, or a reason string when not exactly one."""
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        return None, f"stdout has {stdout.count(chr(10))} lines, want one JSON object"
    try:
        obj = json.loads(stdout)
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"
    if not isinstance(obj, dict):
        return None, "stdout JSON is not an object"
    return obj, None


def check_cycle(text: str, layers: int, base_order: int, base_edges) -> str | None:
    """A Hamiltonian cycle of P_layers x G, checked by coordinate arithmetic.

    Every step stays in one layer along a base edge, or in one column
    between adjacent layers.
    """
    lines = text.split("\n", 1)
    head = lines[0].split()
    if len(head) != 2 or head != [str(layers), str(layers * base_order)]:
        return f"cycle header {lines[0]!r}, want '{layers} {layers * base_order}'"
    tokens = lines[1].split() if len(lines) > 1 else []
    if len(tokens) != layers * base_order:
        return f"cycle has {len(tokens)} vertices, want {layers * base_order}"
    coords = []
    for tok in tokens:
        i, sep, v = tok.partition("_")
        if not (sep and i.isdigit() and v.isdigit()):
            return f"bad cycle label {tok!r}"
        i, v = int(i), int(v)
        if not (1 <= i <= layers and 1 <= v <= base_order):
            return f"cycle label {tok!r} out of range"
        coords.append((i, v))
    if len(set(coords)) != len(coords):
        return "cycle repeats a vertex"
    edges = {(u, v) if u < v else (v, u) for u, v in base_edges}
    for (i, v), (j, w) in zip(coords, coords[1:] + coords[:1]):
        if i == j and ((v, w) if v < w else (w, v)) in edges:
            continue
        if v == w and abs(i - j) == 1:
            continue
        return f"cycle step {i}_{v} -> {j}_{w} is not an edge"
    return None


def check_cut(order: int, edges, cut, components) -> str | None:
    """A cut witness: c(G - S) > |S|, equal to the reported count."""
    if any(not 1 <= v <= order for v in cut) or len(set(cut)) != len(cut):
        return "cut has bad or repeated vertices"
    c, _ = removal_counts(order, edges, cut)
    if c != components:
        return f"cut leaves {c} components, answer says {components}"
    if c <= len(cut):
        return f"cut of size {len(cut)} leaves only {c} components"
    return None


def check_obstruction(order: int, edges, witness, isolated) -> str | None:
    """A {P2,P3}-factor obstruction: i(G - S) > 2|S|, equal to the report."""
    if any(not 1 <= v <= order for v in witness) or len(set(witness)) != len(witness):
        return "witness has bad or repeated vertices"
    _, i = removal_counts(order, edges, witness)
    if i != isolated:
        return f"witness isolates {i} vertices, answer says {isolated}"
    if i <= 2 * len(witness):
        return f"witness of size {len(witness)} isolates only {i}"
    return None


def check_toughness(order: int, edges, value: str, cut, components,
                    bound: Fraction | None = None) -> str | None:
    """Exact toughness: |S| / c(G - S) equals the value, and is no larger
    than ``bound``, the ratio of a cut the benchmark already knows."""
    num, sep, den = value.partition("/")
    if not (sep and num.isdigit() and den.isdigit() and int(den)):
        return f"bad toughness value {value!r}"
    c, _ = removal_counts(order, edges, cut)
    if c != components or c < 2:
        return f"toughness cut leaves {c} components, answer says {components}"
    t = Fraction(int(num), int(den))
    if Fraction(len(cut), c) != t:
        return f"|S|/c = {len(cut)}/{c}, answer says {value}"
    if bound is not None and t > bound:
        return f"toughness {value} above a known cut ratio {bound}"
    return None


def check_factor(order: int, edges, components) -> str | None:
    """A spanning set of disjoint 2- and 3-vertex paths of G."""
    es = {(u, v) if u < v else (v, u) for u, v in edges}
    seen = set()
    for comp in components:
        if len(comp) not in (2, 3):
            return f"factor component {comp} has {len(comp)} vertices"
        for a, b in zip(comp, comp[1:]):
            if ((a, b) if a < b else (b, a)) not in es:
                return f"factor component {comp} uses a non-edge"
        for v in comp:
            if v in seen or not 1 <= v <= order:
                return f"factor repeats or misplaces vertex {v}"
            seen.add(v)
    if len(seen) != order:
        return f"factor covers {len(seen)} of {order} vertices"
    return None


def has_hamiltonian_path(order: int, edges) -> bool:
    """Whether G has a Hamiltonian path, by exhaustive search (small G only).

    With one, P_n x G spans P_n x P_|G|, which is Hamiltonian whenever
    n >= 2 and n * |G| is even.
    """
    if order > 16:
        raise ValueError("has_hamiltonian_path is exhaustive; order is too large")
    adj = adjacency(order, edges)
    full = (1 << (order + 1)) - 2
    stack = [(v, 1 << v) for v in range(1, order + 1)]
    while stack:
        v, seen = stack.pop()
        if seen == full:
            return True
        stack.extend((w, seen | 1 << w) for w in adj[v] if not seen >> w & 1)
    return False
