"""Hamiltonian cycle construction in products of a path with a tree.

The pipeline mirrors an inductive argument: a factor of the base tree is
peeled component by component from a contracted tree of components, each
component gets an explicit "column cycle" in the product, and cycles are
merged by a two-edge splice across a tree edge.  Every splice removes one
vertical (within-column) edge per side, so the construction keeps exact
per-column edge counts that :func:`verify_column_contract` checks
independently.

The cycle under construction lives in one place: two neighbour slots per
product id ``(layer - 1) * base_order + v``.  A column cycle fills slots,
a splice replaces four of them in place, and one walk from the smallest
id reads the finished cycle off.

Column conventions, for n layers and base vertex v:

* index i in 1..n-1 names the vertical edge between layers i and i+1;
* a vertex's *role* inside its factor component decides which vertical
  indices its column may use: ``pair`` members use every index, while the
  three columns of a triple use the residue patterns (mod 4) left
  {0,1,3}, mid {0,2}, right {1,2,3}.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

from .errors import (
    DisconnectedError,
    InvalidFactorError,
    LayerBoundError,
    MalformedGraphError,
    NoFactorError,
    NoP23FactorError,
    NoPerfectMatchingError,
    NotTreeError,
    OddLayersError,
    TooFewLayersError,
)
from .factors import (
    FactorCertificate,
    MatchingBarrier,
    PathFactor,
    find_p23_factor,
    find_perfect_matching,
    p23_factor_or_obstruction,
    perfect_matching_or_barrier,
    validate_path_factor,
)
from .graphs import (
    Graph,
    canon_edge,
    degree_stats,
    format_label,
    is_connected,
    is_tree,
    parse_label,
    product_id,
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


def used_column_indices(role: Role, n: int) -> frozenset[int]:
    """Vertical indices (subset of 1..n-1) a column of the given role may use."""
    residues = _ROLE_RESIDUES[role]
    return frozenset(i for i in range(1, n) if i % 4 in residues)


def pattern_overlap_counts(n: int) -> tuple[int, int, int]:
    """Sizes of (left & right, right & mid, left & mid) index sets.

    Computed by direct enumeration over 1..n-1; the chain inequality and
    the closed form ceil((n-4)/4) for the last entry are checked in tests,
    not assumed here.
    """
    if n % 2:
        raise OddLayersError("overlap counts are defined for even layer counts")
    if n < 4:
        raise TooFewLayersError("need at least 4 layers")
    left = used_column_indices("left", n)
    mid = used_column_indices("mid", n)
    right = used_column_indices("right", n)
    return (len(left & right), len(right & mid), len(left & mid))


# ---------------------------------------------------------------------------
# cycles as values

Label = tuple[int, int]  # (layer, base vertex)


@dataclass(frozen=True)
class HamCycle:
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

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        out = set()
        for a, b in zip(self.seq, self.seq[1:] + self.seq[:1]):
            out.add(canon_edge(a, b))
        return frozenset(out)

    def labels(self) -> tuple[Label, ...]:
        k = self.base_order
        return tuple(((v - 1) // k + 1, (v - 1) % k + 1) for v in self.seq)

    def with_shape(self, layers: int, base_order: int) -> "HamCycle":
        if layers * base_order != len(self.seq):
            raise ValueError("shape does not match the sequence length")
        return HamCycle(layers, base_order, self.seq)


def format_cycle(cycle: HamCycle) -> str:
    """Cycle file: header "layers order", then the label tokens i_v."""
    tokens = " ".join(format_label(i, v) for i, v in cycle.labels())
    return f"{cycle.layers} {cycle.order}\n{tokens}\n"


def parse_cycle(text: str) -> HamCycle:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedGraphError("empty cycle file")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedGraphError(f"bad cycle header {lines[0]!r}")
    try:
        layers, order = int(head[0]), int(head[1])
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


@dataclass(frozen=True)
class RoleAssignment:
    """Per-vertex role tags for a factor; ends of a triple get left/right.

    The smaller end of each triple is tagged left, which makes the whole
    pipeline reproducible (any consistent choice would do).
    """

    factor: PathFactor
    roles: tuple[tuple[int, Role], ...]

    @cached_property
    def _lookup(self) -> dict[int, Role]:
        return dict(self.roles)

    def role_of(self, v: int) -> Role:
        return self._lookup[v]


def assign_roles(factor: PathFactor) -> RoleAssignment:
    roles = [(v, role) for comp in factor.components
             for v, role in zip(comp, _COMPONENT_ROLES[len(comp)])]
    return RoleAssignment(factor, tuple(sorted(roles)))


@dataclass(frozen=True)
class PeelOrder:
    """Factor components in leaf-removal order of the contracted tree.

    ``contracted_edges`` are index pairs into the original component list;
    removing the components in order always detaches a current leaf.
    """

    components: tuple[tuple[int, ...], ...]
    contracted_edges: tuple[tuple[int, int], ...]


def component_peel_order(tree: Graph, factor: PathFactor) -> PeelOrder:
    if not is_tree(tree):
        raise NotTreeError("peel order needs a tree")
    if not validate_path_factor(tree, factor):
        raise InvalidFactorError("factor does not cover the tree")
    comps = factor.components
    owner = {v: idx for idx, comp in enumerate(comps) for v in comp}
    adj: list[set[int]] = [set() for _ in comps]
    edges: set[tuple[int, int]] = set()
    for u, v in tree.edges:
        a, b = owner[u], owner[v]
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
            edges.add(canon_edge(a, b))
    # contracting connected pieces of a tree yields a tree
    assert len(edges) == len(comps) - 1, "contracted component graph is not a tree"

    # current leaves keyed on their first vertex; a component enters the
    # heap once, as a leaf at the start or when it is down to one neighbour
    heap = [(comp[0], i) for i, comp in enumerate(comps) if len(adj[i]) <= 1]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, pick = heapq.heappop(heap)
        order.append(pick)
        for j in adj[pick]:
            adj[j].discard(pick)
            if len(adj[j]) == 1:
                heapq.heappush(heap, (comps[j][0], j))
    return PeelOrder(tuple(comps[i] for i in order), tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# column cycles on neighbour slots

Slots = list[list[int]]  # product id -> its cycle neighbours; index 0 unused


def _link(slots: Slots, a: int, b: int) -> None:
    slots[a].append(b)
    slots[b].append(a)


def _relink(slots: Slots, a: int, old: int, new: int) -> None:
    s = slots[a]
    s[s.index(old)] = new


def _add_column_cycle(slots: Slots, n: int, k: int, comp: tuple[int, ...]) -> None:
    """Link the column cycle of one factor component on base order k.

    Each column gets the vertical edges of its role pattern, and
    neighbouring columns cross at layers 1 and n (a pair) or along the
    snake of a triple.  At n = 1 a pair's two crossings are the doubled
    edge of the degenerate two-vertex cycle.
    """
    for v, role in zip(comp, _COMPONENT_ROLES[len(comp)]):
        for i in used_column_indices(role, n):
            _link(slots, (i - 1) * k + v, i * k + v)
    if len(comp) == 2:
        crossings = [(1, n)]
    else:
        # the boundary layers overlap the residue families at some layer
        # counts; the sets keep one crossing per layer
        crossings = [{1, n} | {i for i in range(1, n + 1) if i % 4 in (2, 3)},
                     {n} | {i for i in range(1, n + 1) if i % 4 in (0, 1)}]
    for (x, y), layers in zip(zip(comp, comp[1:]), crossings):
        for i in layers:
            _link(slots, (i - 1) * k + x, (i - 1) * k + y)


def _walk(slots: Slots, n: int, k: int) -> HamCycle:
    """Walk slots that should hold a single cycle into a HamCycle, from the
    smallest linked id towards its smaller neighbour."""
    linked = [x for x, s in enumerate(slots) if s]
    for x in linked:
        assert len(slots[x]) == 2, f"vertex {x} has degree {len(slots[x])} in the assembled cycle"
    start = linked[0]
    seq = [start]
    prev, cur = start, min(slots[start])
    while cur != start:
        seq.append(cur)
        a, b = slots[cur]
        prev, cur = cur, (b if a == prev else a)
    assert len(seq) == len(linked), "assembled edges are not a single cycle"
    return HamCycle(n, k, tuple(seq))


def _column_cycle(n: int, comp: tuple[int, ...], base_order: int | None) -> HamCycle:
    k = base_order if base_order is not None else max(comp)
    if not all(1 <= v <= k for v in comp):
        raise ValueError("columns must lie in 1..base_order")
    slots: Slots = [[] for _ in range(n * k + 1)]
    _add_column_cycle(slots, n, k, comp)
    return _walk(slots, n, k)


def two_column_cycle(n: int, u: int = 1, w: int = 2,
                     base_order: int | None = None) -> HamCycle:
    """The ring around a 2-wide grid: up column u, across, down column w.

    Contains every vertical edge of both columns plus the two crossings at
    layers 1 and n.
    """
    if n < 2:
        raise TooFewLayersError("two-column cycle needs at least 2 layers")
    if u == w:
        raise ValueError("columns must differ")
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
        raise TooFewLayersError("three-column cycle needs at least 4 layers")
    if len({u, v, w}) != 3:
        raise ValueError("columns must differ")
    return _column_cycle(n, (u, v, w), base_order)


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True)
class BuildResult:
    cycle: HamCycle
    tree: Graph
    roles: RoleAssignment
    mode: str  # "matching" | "pathfactor"
    column_counts: dict[int, int]


def _assemble(n: int, tree: Graph, roles: RoleAssignment, mode: str) -> BuildResult:
    k = tree.order
    slots: Slots = [[] for _ in range(n * k + 1)]
    placed: set[int] = set()
    for comp in reversed(component_peel_order(tree, roles.factor).components):
        _add_column_cycle(slots, n, k, comp)
        if placed:
            links = [(x, y) for x in comp for y in tree.neighbors(x) if y in placed]
            assert len(links) == 1, "peeled component must touch the rest by one tree edge"
            u1, u2 = links[0]
            # the first index of u1's pattern still linked in column u2
            j = next((j for j in sorted(used_column_indices(roles.role_of(u1), n))
                      if j * k + u2 in slots[(j - 1) * k + u2]), None)
            assert j is not None, "splice stock ran dry; layer bound accounting is wrong"
            # swap the two vertical edges at index j for the two crossings
            p, q = (j - 1) * k + u1, (j - 1) * k + u2
            _relink(slots, p, p + k, q)
            _relink(slots, q, q + k, p)
            _relink(slots, p + k, p, q + k)
            _relink(slots, q + k, q, p + k)
        placed.update(comp)
    counts = {v: sum(i * k + v in slots[(i - 1) * k + v] for i in range(1, n))
              for v in tree.vertices()}
    return BuildResult(_walk(slots, n, k), tree, roles, mode, counts)


def build_cycle_matching(n: int, tree: Graph,
                         matching: PathFactor | None = None) -> BuildResult:
    """Cycle in the n-layer product over a tree with a perfect matching.

    Works for any n at least the maximum degree of the tree; the cycle
    uses exactly n - degree(v) vertical edges in every column v.
    """
    if not is_tree(tree):
        raise NotTreeError("matching construction needs a tree")
    if matching is None:
        matching = find_perfect_matching(tree)
        if matching is None:
            raise NoPerfectMatchingError("tree has no perfect matching")
    else:
        if not (validate_path_factor(tree, matching) and matching.is_perfect_matching):
            raise InvalidFactorError("not a perfect matching of the tree")
    dmax = degree_stats(tree).maximum
    if n < dmax:
        raise TooFewLayersError(f"need at least {dmax} layers, got {n}")
    result = _assemble(n, tree, assign_roles(matching), "matching")
    assert verify_column_contract(result.cycle, tree, result.roles, n)
    return result


def build_cycle_path_factor(n: int, tree: Graph,
                            factor: PathFactor | None = None) -> BuildResult:
    """Cycle in the n-layer product over a tree with a 2/3-path factor.

    Needs an even n of at least 4 * max_degree - 2: that slack is what
    keeps a compatible vertical index available at every splice.
    """
    if not is_tree(tree):
        raise NotTreeError("path-factor construction needs a tree")
    if factor is None:
        factor = find_p23_factor(tree)
        if factor is None:
            raise NoP23FactorError("tree has no factor into 2- and 3-paths")
    elif not validate_path_factor(tree, factor):
        raise InvalidFactorError("not a valid factor of the tree")
    if n % 2:
        raise OddLayersError("path-factor construction needs an even layer count")
    dmax = degree_stats(tree).maximum
    need = max(4 * dmax - 2, 2)
    if n < need:
        raise TooFewLayersError(f"need at least {need} layers, got {n}")
    result = _assemble(n, tree, assign_roles(factor), "pathfactor")
    assert verify_column_contract(result.cycle, tree, result.roles, n)
    return result


def build_cycle(n: int, base: Graph, mode: str = "auto") -> BuildResult:
    """Full pipeline: factor the base graph, extend the factor to a
    spanning tree, dispatch to the matching or path-factor assembly, and
    validate the result before returning it.

    ``auto`` prefers the matching route (its layer requirement is weaker)
    and falls back to the path-factor route.  ``matching`` without a
    perfect matching raises NoFactorError with a Tutte barrier.
    """
    if mode not in ("auto", "matching", "pathfactor"):
        raise ValueError(f"unknown mode {mode!r}")
    if not is_connected(base):
        raise DisconnectedError("base graph must be connected")
    dmax = degree_stats(base).maximum

    factor = None
    if mode == "matching":
        factor = perfect_matching_or_barrier(base)
        if isinstance(factor, MatchingBarrier):
            raise NoFactorError("no perfect matching", factor)
    elif mode == "auto":
        factor = find_perfect_matching(base)
    if factor is not None:
        if n < dmax:
            raise LayerBoundError(f"matching route needs n >= {dmax}", dmax)
        builder = build_cycle_matching
    else:
        factor = p23_factor_or_obstruction(base)
        if isinstance(factor, FactorCertificate):
            raise NoFactorError("no path factor", factor)
        need = max(4 * dmax - 2, 2)
        if n % 2:
            raise OddLayersError(f"path-factor route needs even n >= {need}")
        if n < need:
            raise LayerBoundError(f"path-factor route needs n >= {need}", need)
        builder = build_cycle_path_factor
    tree = spanning_tree_containing(
        base, [e for c in factor.components for e in zip(c, c[1:])])
    result = builder(n, tree, factor)

    product_order = n * base.order
    assert len(result.cycle.seq) == product_order
    return result


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
    for a, b in zip(seq, seq[1:] + seq[:1]):
        if not product.has_edge(a, b):
            return False
    return True


def verify_column_contract(cycle: HamCycle, tree: Graph, roles: RoleAssignment,
                           n: int) -> bool:
    """Check the per-column vertical-edge budget of a constructed cycle.

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
        role = roles.role_of(v)
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
    "RoleAssignment",
    "assign_roles",
    "build_cycle",
    "build_cycle_matching",
    "build_cycle_path_factor",
    "component_peel_order",
    "format_cycle",
    "parse_cycle",
    "pattern_overlap_counts",
    "three_column_cycle",
    "two_column_cycle",
    "used_column_indices",
    "verify_column_contract",
    "verify_cycle",
]
