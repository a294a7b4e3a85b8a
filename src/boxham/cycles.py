"""Hamiltonian cycle construction in products of a path with a tree.

The pipeline mirrors an inductive argument: :func:`build_cycle` finds a
factor and a spanning tree that contains it, the factor is peeled leaf by
leaf from the contracted tree of its components, each component gets a
"column cycle" in the product, and the cycles are merged by a two-edge
splice across the tree edge the peel recorded.  Every splice removes one
vertical (within-column) edge per side (:func:`verify_column_contract`).
A builder returns a cycle only once :func:`verify_product_cycle` accepts it.

The cycle under construction lives in one place: two neighbour slots per
product id ``(layer - 1) * base_order + v``.  A column cycle fills slots
from a template of its shape, made once per build; a splice replaces four
slots in place, and one walk from the smallest id reads the finished
cycle off.

Column conventions, for n layers and base vertex v:

* index i in 1..n-1 names the vertical edge between layers i and i+1;
* a vertex's *role* inside its factor component decides which vertical
  indices its column may use: ``pair`` members use every index, while the
  three columns of a triple use the residue patterns (mod 4) left
  {0,1,3}, mid {0,2}, right {1,2,3}.
"""

from __future__ import annotations

import heapq
from typing import Literal, NamedTuple

from .errors import (
    DisconnectedError,
    InvalidFactorError,
    LayerBoundError,
    MalformedGraphError,
    NoFactorError,
    NotTreeError,
    OddLayersError,
    SpliceStockError,
)
from .factors import (
    FactorCertificate,
    MatchingBarrier,
    PathFactor,
    find_perfect_matching,
    p23_factor_or_obstruction,
    perfect_matching_or_barrier,
    validate_path_factor,
)
from .graphs import (
    Graph,
    canon_edge,
    degree_stats,
    is_connected,
    is_tree,
    parse_label,
    product_id,
    product_label,
    spanning_tree_containing,
)

Role = Literal["pair", "left", "mid", "right"]

_ROLE_RESIDUES: dict[Role, tuple[int, ...]] = {
    "pair": (0, 1, 2, 3),
    "left": (0, 1, 3),
    "mid": (0, 2),
    "right": (1, 2, 3),
}

# degree of a vertex inside its own factor component, by role
ROLE_COMPONENT_DEGREE: dict[Role, int] = {"pair": 1, "left": 1, "mid": 2, "right": 1}

# roles by position inside a canonical factor component (pairs sorted,
# triples stored end, middle, end with the smaller end first)
_COMPONENT_ROLES: dict[int, tuple[Role, ...]] = {
    2: ("pair", "pair"),
    3: ("left", "mid", "right"),
}


def _pattern(role: Role, n: int) -> tuple[int, ...]:
    residues = _ROLE_RESIDUES[role]
    return tuple([i for i in range(1, n) if i % 4 in residues])


def used_column_indices(role: Role, n: int) -> frozenset[int]:
    """Vertical indices (subset of 1..n-1) a column of the given role may use."""
    return frozenset(_pattern(role, n))


_Template = tuple[tuple[int, int, int, int, int, int], ...]


class _LayerPlan(NamedTuple):
    """What depends on n, the base order and the factor's component sizes,
    computed once per build.

    ``patterns`` holds the vertical indices of those sizes' roles, sorted.
    ``columns`` holds the column cycle of a component of each size, one
    entry per vertex: the vertex and its two cycle neighbours, each as an
    id offset and a position in the component.  The product id is
    offset + component[position].
    """

    patterns: dict[Role, tuple[int, ...]]
    columns: dict[int, _Template]


def _layer_plan(n: int, k: int, sizes: set[int]) -> _LayerPlan:
    roles = {role for size in sizes for role in _COMPONENT_ROLES[size]}
    patterns = {role: _pattern(role, n) for role in roles}
    return _LayerPlan(patterns, {size: _column_template(n, k, size, patterns)
                                 for size in sizes})


def _column_template(n: int, k: int, size: int,
                     patterns: dict[Role, tuple[int, ...]]) -> _Template:
    """The column cycle of a component of ``size`` columns on base order k.

    Each column gets the vertical edges of its role pattern, and
    neighbouring columns cross at layers 1 and n (a pair) or along the
    snake of a triple.  At n = 1 a pair's two crossings are the doubled
    edge of the degenerate two-vertex cycle.
    """
    # 0-based crossing layers between positions pos and pos + 1; sets, as
    # the boundary layers overlap a triple's residue families
    if size == 2:
        crossings = [(0, n - 1)]
    else:
        crossings = [{0, n - 1, *range(1, n, 4), *range(2, n, 4)},
                     {n - 1, *range(0, n, 4), *range(3, n, 4)}]
    # vertex (layer, pos) is row layer * size + pos: its offset and position,
    # then its neighbours'
    rows = [[offset, pos] for offset in range(0, n * k, k) for pos in range(size)]
    for pos, role in enumerate(_COMPONENT_ROLES[size]):
        for i in patterns[role]:
            x = i * size + pos
            rows[x - size] += (i * k, pos)
            rows[x] += (i * k - k, pos)
    for pos, layers in enumerate(crossings):
        for layer in layers:
            x = layer * size + pos
            rows[x] += (layer * k, pos + 1)
            rows[x + 1] += (layer * k, pos)
    if set(map(len, rows)) != {6}:
        raise AssertionError(f"the {size}-column cycle at n = {n} leaves a vertex "
                             "without two neighbours")
    return tuple(map(tuple, rows))


def pattern_overlap_counts(n: int) -> tuple[int, int, int]:
    """Sizes of (left & right, right & mid, left & mid) index sets, by
    direct enumeration over 1..n-1; tests check the chain inequality and
    the closed form ceil((n-4)/4) of the last entry."""
    if n % 2:
        raise OddLayersError("overlap counts are defined for even layer counts")
    if n < 4:
        raise LayerBoundError("need at least 4 layers", 4)
    left = used_column_indices("left", n)
    mid = used_column_indices("mid", n)
    right = used_column_indices("right", n)
    return (len(left & right), len(right & mid), len(left & mid))


# ---------------------------------------------------------------------------
# cycles as values

Label = tuple[int, int]  # (layer, base vertex)


class HamCycle(NamedTuple):
    """A closed spanning walk given as a vertex sequence of product ids.

    ``layers`` and ``base_order`` fix the id encoding; an oracle cycle on
    an arbitrary graph uses the trivial shape layers=1, base_order=order.
    The degenerate two-vertex cycle (one edge traversed both ways) is a
    legal value; order checks live in the validators.
    """

    layers: int
    base_order: int
    seq: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.layers * self.base_order

    @property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(canon_edge, self.seq, self.seq[1:] + self.seq[:1]))

    def labels(self) -> tuple[Label, ...]:
        return tuple(product_label(v, self.base_order) for v in self.seq)


def format_cycle(cycle: HamCycle) -> str:
    """Cycle file: header "layers order", then the label tokens i_v, read
    off a table of the shape's labels by product id: no id is decoded."""
    seq = cycle.seq
    if seq and not (1 <= min(seq) and max(seq) <= cycle.order):
        raise ValueError("cycle ids must lie in 1..layers * base_order")
    columns = ["_" + str(v) for v in range(1, cycle.base_order + 1)]
    table = [""]  # index 0 unused: ids start at 1
    for i in range(1, cycle.layers + 1):
        layer = str(i)
        table += [layer + c for c in columns]
    tokens = " ".join(map(table.__getitem__, seq))
    return f"{cycle.layers} {cycle.order}\n{tokens}\n"


def parse_cycle(text: str) -> HamCycle:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedGraphError("empty cycle file")
    try:  # two integers, or a ValueError
        layers, order = map(int, lines[0].split())
    except ValueError:
        raise MalformedGraphError(f"bad cycle header {lines[0]!r}") from None
    if layers < 1 or order < 1 or order % layers:
        raise MalformedGraphError(f"bad cycle header {lines[0]!r}")
    base = order // layers
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != order:
        raise MalformedGraphError(f"expected {order} vertices, found {len(tokens)}")
    seq = []
    for tok in tokens:
        i, v = parse_label(tok)
        if not (1 <= i <= layers and 1 <= v <= base):
            raise MalformedGraphError(f"label {tok!r} out of range")
        seq.append(product_id(i, v, base))
    return HamCycle(layers, base, tuple(seq))


# ---------------------------------------------------------------------------
# roles and peel order


def assign_roles(factor: PathFactor) -> dict[int, Role]:
    """Each vertex's role in its factor component.  The smaller end of a
    triple is left, which makes the whole pipeline reproducible (any
    consistent choice would do)."""
    return {v: role for comp in factor.components
            for v, role in zip(comp, _COMPONENT_ROLES[len(comp)])}


class PeelOrder(NamedTuple):
    """Factor components in leaf-removal order of the contracted tree.

    ``links[i]`` is the tree edge (u, w) from ``components[i]``, which
    holds u, to its one neighbour left when it is removed; the last
    component has none.
    """

    components: tuple[tuple[int, ...], ...]
    links: tuple[tuple[int, int] | None, ...]


def component_peel_order(tree: Graph, factor: PathFactor) -> PeelOrder:
    """Peel order of the factor's components; checks the tree and the factor.

    With order - 1 edges and a valid factor, whose components are connected,
    the input is a tree exactly when the contracted component graph is one:
    it has one edge fewer than components and peels down to nothing.  So
    the contraction stands in for a separate connectivity search.
    """
    if tree.size != tree.order - 1:
        raise NotTreeError("not a tree")
    if not validate_path_factor(tree, factor):
        # a graph that is no tree is reported as such, whatever the factor
        if not is_tree(tree):
            raise NotTreeError("not a tree")
        raise InvalidFactorError("factor does not cover the tree")
    comps = factor.components
    owner = {v: idx for idx, comp in enumerate(comps) for v in comp}
    # adj[a][b] is a tree edge (u, w) with u in component a, w in b
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in comps]
    for u, v in tree.edges:
        a, b = owner[u], owner[v]
        if a != b:
            adj[a][b] = (u, v)
            adj[b][a] = (v, u)
    contracted_size = sum(map(len, adj)) // 2

    # current leaves keyed on their first vertex; a component enters the
    # heap once, as a leaf at the start or when it is down to one neighbour
    heap = [(comp[0], i) for i, comp in enumerate(comps) if len(adj[i]) <= 1]
    heapq.heapify(heap)
    order: list[int] = []
    links: list[tuple[int, int] | None] = []
    while heap:
        _, pick = heapq.heappop(heap)
        order.append(pick)
        links.append(next(iter(adj[pick].values()), None))
        for j in adj[pick]:
            del adj[j][pick]
            if len(adj[j]) == 1:
                heapq.heappush(heap, (comps[j][0], j))
    if contracted_size != len(comps) - 1 or len(order) != len(comps):
        raise NotTreeError("not a tree")
    return PeelOrder(tuple(comps[i] for i in order), tuple(links))


# ---------------------------------------------------------------------------
# column cycles on neighbour slots

class Slots(NamedTuple):
    """The two cycle neighbours of every product id, 0 for none; index 0
    is unused."""

    first: list[int]
    second: list[int]


def _empty_slots(size: int) -> Slots:
    return Slots([0] * (size + 1), [0] * (size + 1))


def _relink(slots: Slots, a: int, old: int, new: int) -> None:
    first, second = slots
    if first[a] == old:
        first[a] = new
    elif second[a] == old:
        second[a] = new
    else:
        raise AssertionError(f"{old} is not a cycle neighbour of {a}")


def _add_column_cycle(slots: Slots, comp: tuple[int, ...], plan: _LayerPlan) -> None:
    """Link the column cycle of one factor component from its template."""
    first, second = slots
    for offset, pos, a, pa, b, pb in plan.columns[len(comp)]:
        x = offset + comp[pos]
        first[x] = a + comp[pa]
        second[x] = b + comp[pb]


def _walk(slots: Slots, n: int, k: int) -> HamCycle:
    """Walk slots that should hold a single cycle into a HamCycle, from the
    smallest linked id towards its smaller neighbour."""
    first, second = slots
    linked = list(map(bool, first))
    if linked != list(map(bool, second)):
        x = next(x for x, (a, b) in enumerate(zip(first, second)) if bool(a) != bool(b))
        raise AssertionError(f"vertex {x} has degree 1 in the assembled cycle")
    start = linked.index(True)
    seq = [start]
    prev, cur = start, min(first[start], second[start])
    while cur != start:
        seq.append(cur)
        a = first[cur]
        prev, cur = cur, (second[cur] if a == prev else a)
    if len(seq) != linked.count(True):
        raise AssertionError("assembled edges are not a single cycle")
    return HamCycle(n, k, tuple(seq))


def _column_cycle(n: int, comp: tuple[int, ...], base_order: int | None) -> HamCycle:
    k = base_order if base_order is not None else max(comp)
    if len(set(comp)) != len(comp):
        raise ValueError("columns must differ")
    if not all(1 <= v <= k for v in comp):
        raise ValueError("columns must lie in 1..base_order")
    slots = _empty_slots(n * k)
    _add_column_cycle(slots, comp, _layer_plan(n, k, {len(comp)}))
    return _walk(slots, n, k)


def two_column_cycle(n: int, u: int = 1, w: int = 2,
                     base_order: int | None = None) -> HamCycle:
    """The ring around a 2-wide grid: up column u, across, down column w.

    Contains every vertical edge of both columns plus the two crossings at
    layers 1 and n.
    """
    if n < 2:
        raise LayerBoundError("two-column cycle needs at least 2 layers", 2)
    return _column_cycle(n, (u, w), base_order)


def three_column_cycle(n: int, u: int = 1, v: int = 2, w: int = 3,
                       base_order: int | None = None) -> HamCycle:
    """Snake cycle of a 3-wide grid on columns u - v - w, for even n >= 4.

    Vertical edges used are exactly the left pattern in column u, the mid
    pattern in column v and the right pattern in column w; at n = 2 the
    mid pattern is empty and the construction degenerates, so it is
    rejected.
    """
    if n % 2:
        raise OddLayersError("three-column cycle needs an even layer count")
    if n < 4:
        raise LayerBoundError("three-column cycle needs at least 4 layers", 4)
    return _column_cycle(n, (u, v, w), base_order)


# ---------------------------------------------------------------------------
# assembly


class BuildResult(NamedTuple):
    cycle: HamCycle
    roles: dict[int, Role]
    mode: str  # "matching" | "pathfactor"
    column_counts: dict[int, int]


def _assemble(n: int, tree: Graph, factor: PathFactor,
              peel: PeelOrder) -> tuple[HamCycle, dict[int, Role]]:
    """Splice the column cycles along the peel order's links, the last
    peeled component first; the cycle is unchecked."""
    k = tree.order
    roles = assign_roles(factor)
    plan = _layer_plan(n, k, {len(c) for c in factor.components})
    slots = _empty_slots(n * k)
    for comp, link in zip(reversed(peel.components), reversed(peel.links)):
        _add_column_cycle(slots, comp, plan)
        if link is None:
            continue
        u1, u2 = link
        # the first index of u1's pattern still linked in column u2
        for j in plan.patterns[roles[u1]]:
            q = (j - 1) * k + u2
            if q + k in (slots.first[q], slots.second[q]):
                break
        else:
            raise SpliceStockError(f"splice stock ran dry at tree edge {u1}-{u2}")
        # swap the two vertical edges at index j for the two crossings
        p = (j - 1) * k + u1
        _relink(slots, p, p + k, q)
        _relink(slots, q, q + k, p)
        _relink(slots, p + k, p, q + k)
        _relink(slots, q + k, q, p + k)
    return _walk(slots, n, k), roles


def path_factor_min_layers(dmax: int) -> int:
    """The path-factor route's layer bound 4 * dmax - 2: that slack keeps
    a compatible vertical index available at every splice."""
    return max(4 * dmax - 2, 2)


def _check_layers(route: str, n: int, dmax: int) -> None:
    """The layer rule of each route for maximum degree ``dmax``: n >= dmax
    for a perfect matching, an even n >= :func:`path_factor_min_layers`
    for a path factor."""
    if route == "matching":
        if n < dmax:
            raise LayerBoundError(f"matching route needs n >= {dmax}", dmax)
        return
    need = path_factor_min_layers(dmax)
    if n % 2:
        raise OddLayersError(f"path-factor route needs even n >= {need}")
    if n < need:
        raise LayerBoundError(f"path-factor route needs n >= {need}", need)


def _build(n: int, tree: Graph, factor: PathFactor, route: str,
           dmax: int | None) -> BuildResult:
    """Check the tree, the factor and the layer count for maximum degree
    ``dmax`` (None: the tree's), assemble the cycle, check it on the
    product over the tree, and count each column's vertical steps."""
    peel = component_peel_order(tree, factor)
    if route == "matching" and not factor.is_perfect_matching:
        raise InvalidFactorError("not a perfect matching of the tree")
    _check_layers(route, n, degree_stats(tree).maximum if dmax is None else dmax)
    cycle, roles = _assemble(n, tree, factor, peel)
    if not verify_product_cycle(tree, n, cycle):
        raise AssertionError(f"{route} cycle on {n} layers failed its check")
    k, seq = tree.order, cycle.seq
    counts = [0] * k  # column v at index v % k
    for a, b in zip(seq, seq[1:] + seq[:1]):
        if a - b == k or b - a == k:
            counts[a % k] += 1
    counts.append(counts.pop(0))
    return BuildResult(cycle, roles, route, dict(zip(tree.vertices(), counts)))


def build_cycle_matching(n: int, tree: Graph, matching: PathFactor, *,
                         max_degree: int | None = None) -> BuildResult:
    """Cycle in the n-layer product over a tree with the given perfect
    matching, for any n of at least ``max_degree``, by default the tree's
    maximum degree; the cycle uses exactly n - degree(v) vertical edges
    in every column v."""
    return _build(n, tree, matching, "matching", max_degree)


def build_cycle_path_factor(n: int, tree: Graph, factor: PathFactor, *,
                            max_degree: int | None = None) -> BuildResult:
    """Cycle in the n-layer product over a tree with the given 2/3-path
    factor, for an even n of at least :func:`path_factor_min_layers` of
    ``max_degree``, by default the tree's maximum degree."""
    return _build(n, tree, factor, "pathfactor", max_degree)


def _route(base: Graph, mode: str) -> tuple[str, PathFactor, Graph]:
    """The route ("matching" or "pathfactor"), factor and spanning tree
    that :func:`build_cycle` splices along: the one factor search of the
    pipeline, which certifies every "no" with :class:`NoFactorError`."""
    if not is_connected(base):
        raise DisconnectedError("base graph must be connected")
    factor = None
    if mode == "matching":
        factor = perfect_matching_or_barrier(base)
        if isinstance(factor, MatchingBarrier):
            raise NoFactorError("no perfect matching", factor)
    elif mode == "auto":
        factor = find_perfect_matching(base)
    route = "pathfactor" if factor is None else "matching"
    if factor is None:
        factor = p23_factor_or_obstruction(base)
        if isinstance(factor, FactorCertificate):
            raise NoFactorError("no path factor", factor)
    return route, factor, _spanning_tree(base, factor)


def _spanning_tree(base: Graph, factor: PathFactor) -> Graph:
    """The base if it is a tree (it is connected), else a spanning tree
    through the factor's edges."""
    if base.size == base.order - 1:
        return base
    return spanning_tree_containing(base, [e for c in factor.components for e in zip(c, c[1:])])


def build_cycle(n: int, base: Graph, mode: str = "auto") -> BuildResult:
    """Full pipeline: factor the base graph, extend the factor to a
    spanning tree (a tree base is its own), and hand both to the matching
    or path-factor builder, which checks the cycle before returning it.

    ``auto`` prefers the matching route (its layer requirement is weaker)
    and falls back to the path-factor route.  With no factor of the mode,
    NoFactorError carries the certificate: a Tutte barrier in ``matching``
    mode, else the {P2,P3}-factor obstruction.  The builder's layer check
    takes the base's maximum degree; it, the connectivity search and the
    peel order run once each.
    """
    if mode not in ("auto", "matching", "pathfactor"):
        raise ValueError(f"unknown mode {mode!r}")
    route, factor, tree = _route(base, mode)
    builder = build_cycle_matching if route == "matching" else build_cycle_path_factor
    return builder(n, tree, factor, max_degree=degree_stats(base).maximum)


def splice_attempt(base: Graph, n: int) -> HamCycle | None:
    """The cycle of ``build_cycle(n, base)`` with no layer bound and no
    check, or None.

    None when the base is disconnected or has no factor, when a triple
    meets an odd n or n < 4 (its snake does not close), or when the
    splice stock runs dry, which below the proven bound is no fault.
    Every other builder fault still raises; the caller checks the cycle.
    """
    try:
        route, factor, tree = _route(base, "auto")
    except (DisconnectedError, NoFactorError):
        return None
    if route == "pathfactor" and (n % 2 or n < 4):
        return None
    try:
        return _assemble(n, tree, factor, component_peel_order(tree, factor))[0]
    except SpliceStockError:
        return None


# ---------------------------------------------------------------------------
# validators


def verify_cycle(product: Graph, cycle: HamCycle) -> bool:
    """Independent cycle check: right vertex set, no repeats, all edges real.

    The two-vertex degenerate cycle passes when its single edge exists;
    everything longer must use distinct edges implicitly (distinct
    vertices make consecutive pairs distinct).
    """
    seq = cycle.seq
    if len(seq) != product.order or cycle.order != product.order:
        return False
    if len(set(seq)) != len(seq):
        return False
    if any(not (1 <= v <= product.order) for v in seq):
        return False
    return all(map(product.has_edge, seq, seq[1:] + seq[:1]))


def verify_product_cycle(base: Graph, n: int, cycle: HamCycle) -> bool:
    """The check of :func:`verify_cycle` on the n-layer product over
    ``base``, without building the product.

    Product id x sits at layer (x - 1) // k + 1 and column (x - 1) % k + 1
    for base order k.  A step of the cycle is a product edge when its ends
    share a layer and their columns are adjacent in the base, or share a
    column in adjacent layers, which makes their ids exactly k apart.
    """
    if n < 1:
        raise ValueError("layer count must be positive")
    k = base.order
    total = n * k
    seq = cycle.seq
    if len(seq) != total or cycle.order != total:
        return False
    if len(set(seq)) != total or min(seq) < 1 or max(seq) > total:
        return False
    for a, b in zip(seq, seq[1:] + seq[:1]):
        if a - b == k or b - a == k:
            continue
        # columns less 1; a - ca == b - cb exactly when the layers agree
        ca, cb = (a - 1) % k, (b - 1) % k
        if a - ca != b - cb or cb + 1 not in base.neighbors(ca + 1):
            return False
    return True


def verify_column_contract(cycle: HamCycle, tree: Graph, roles: dict[int, Role],
                           n: int) -> bool:
    """Check the per-column vertical-edge budget of a constructed cycle.
    It accepts some cycles that are not Hamiltonian, so the builders run
    :func:`verify_product_cycle` instead.

    The vertical edges of column v lie inside its role pattern and number
    |pattern| - degree(v) + (degree of v inside its own component).  For a
    pair the pattern is all of 1..n-1, so the count is n - degree(v).
    """
    used: dict[int, set[int]] = {v: set() for v in tree.vertices()}
    base = cycle.base_order
    seq = cycle.seq
    for a, b in zip(seq, seq[1:] + seq[:1]):
        # ids one base_order apart: same column, adjacent layers
        if abs(a - b) == base:
            low = min(a, b) - 1
            used[low % base + 1].add(low // base + 1)
    patterns = {role: used_column_indices(role, n) for role in _ROLE_RESIDUES}
    for v in tree.vertices():
        role = roles[v]
        pattern = patterns[role]
        if not used[v] <= pattern:
            return False
        if len(used[v]) != len(pattern) - tree.degree(v) + ROLE_COMPONENT_DEGREE[role]:
            return False
    return True


__all__ = [
    "BuildResult",
    "HamCycle",
    "PeelOrder",
    "Role",
    "ROLE_COMPONENT_DEGREE",
    "assign_roles",
    "build_cycle",
    "build_cycle_matching",
    "build_cycle_path_factor",
    "component_peel_order",
    "format_cycle",
    "parse_cycle",
    "path_factor_min_layers",
    "pattern_overlap_counts",
    "splice_attempt",
    "three_column_cycle",
    "two_column_cycle",
    "used_column_indices",
    "verify_column_contract",
    "verify_cycle",
    "verify_product_cycle",
]
