"""Hamiltonian cycle construction in products of a path with a tree.

The pipeline mirrors an inductive argument: a factor of the base tree is
peeled component by component from a contracted tree of components, each
component gets an explicit "column cycle" in the product, and cycles are
merged by a two-edge splice across a tree edge.  Every splice removes one
vertical (within-column) edge per side, so the construction keeps exact
per-column edge counts that :func:`verify_column_contract` checks
independently.

Column conventions, for n layers and base vertex v:

* index i in 1..n-1 names the vertical edge between layers i and i+1;
* a vertex's *role* inside its factor component decides which vertical
  indices its column may use: ``pair`` members use every index, while the
  three columns of a triple use the residue patterns (mod 4) left
  {0,1,3}, mid {0,2}, right {1,2,3}.
"""

from __future__ import annotations

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
    PathFactor,
    factor_obstruction,
    find_p23_factor,
    find_perfect_matching,
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
    roles: list[tuple[int, Role]] = []
    for comp in factor.components:
        if len(comp) == 2:
            roles.append((comp[0], "pair"))
            roles.append((comp[1], "pair"))
        else:
            a, m, b = comp
            roles.append((a, "left"))
            roles.append((m, "mid"))
            roles.append((b, "right"))
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
    owner: dict[int, int] = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            owner[v] = idx
    adj: dict[int, set[int]] = {i: set() for i in range(len(comps))}
    edges: set[tuple[int, int]] = set()
    for u, v in tree.edges:
        a, b = owner[u], owner[v]
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
            edges.add(canon_edge(a, b))
    # contracting connected pieces of a tree yields a tree
    assert len(edges) == len(comps) - 1, "contracted component graph is not a tree"

    remaining = set(range(len(comps)))
    order: list[int] = []
    while remaining:
        leaves = [i for i in remaining if len(adj[i]) <= 1]
        pick = min(leaves, key=lambda i: comps[i][0])
        order.append(pick)
        remaining.remove(pick)
        for j in adj[pick]:
            adj[j].discard(pick)
        adj[pick] = set()
    return PeelOrder(tuple(comps[i] for i in order), tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# column cycles

LabelEdge = tuple[Label, Label]


def _edge(a: Label, b: Label) -> LabelEdge:
    return (a, b) if a < b else (b, a)


def _vertical(i: int, v: int) -> LabelEdge:
    return ((i, v), (i + 1, v))


def _two_column_edges(n: int, u: int, w: int) -> set[LabelEdge]:
    edges = {_edge((1, u), (1, w)), _edge((n, u), (n, w))}
    for i in range(1, n):
        edges.add(_vertical(i, u))
        edges.add(_vertical(i, w))
    return edges


def _three_column_edges(n: int, u: int, v: int, w: int) -> set[LabelEdge]:
    edges: set[LabelEdge] = set()
    for i in used_column_indices("left", n):
        edges.add(_vertical(i, u))
    for i in used_column_indices("mid", n):
        edges.add(_vertical(i, v))
    for i in used_column_indices("right", n):
        edges.add(_vertical(i, w))
    # crossings between the columns; the explicit boundary edges overlap
    # the residue families at some layer counts and the union dedupes
    uv = {1, n} | {i for i in range(1, n + 1) if i % 4 in (2, 3)}
    vw = {n} | {i for i in range(1, n + 1) if i % 4 in (0, 1)}
    for i in uv:
        edges.add(_edge((i, u), (i, v)))
    for i in vw:
        edges.add(_edge((i, v), (i, w)))
    return edges


def _trace_cycle(edges: set[LabelEdge], n: int, base_order: int) -> HamCycle:
    """Walk an edge set that should be a single cycle into a HamCycle."""
    adj: dict[Label, list[Label]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for v, ns in adj.items():
        assert len(ns) == 2, f"vertex {v} has degree {len(ns)} in the assembled cycle"
        ns.sort()
    start = min(adj)
    seq = [start]
    prev: Label | None = None
    cur = start
    while True:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        seq.append(nxt)
        prev, cur = cur, nxt
    assert len(seq) == len(adj), "assembled edges are not a single cycle"
    ids = tuple(product_id(i, v, base_order) for i, v in seq)
    return HamCycle(n, base_order, ids)


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
    base = base_order if base_order is not None else max(u, w)
    return _trace_cycle(_two_column_edges(n, u, w), n, base)


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
    base = base_order if base_order is not None else max(u, v, w)
    return _trace_cycle(_three_column_edges(n, u, v, w), n, base)


# ---------------------------------------------------------------------------
# assembly


@dataclass(frozen=True)
class BuildResult:
    cycle: HamCycle
    tree: Graph
    roles: RoleAssignment
    mode: str  # "matching" | "pathfactor"
    column_counts: dict[int, int]


def _component_edges(n: int, comp: tuple[int, ...]) -> set[LabelEdge]:
    if len(comp) == 2:
        return _two_column_edges(n, comp[0], comp[1])
    a, m, b = comp
    return _three_column_edges(n, a, m, b)


def _assemble(n: int, tree: Graph, roles: RoleAssignment, mode: str) -> BuildResult:
    peel = component_peel_order(tree, roles.factor)
    stock: dict[int, set[int]] = {}
    edges: set[LabelEdge] = set()
    placed: set[int] = set()

    def add_fresh(comp: tuple[int, ...]) -> None:
        edges.update(_component_edges(n, comp))
        for col in comp:
            stock[col] = set(used_column_indices(roles.role_of(col), n))
        placed.update(comp)

    for comp in reversed(peel.components):
        if not placed:
            add_fresh(comp)
            continue
        links = [(x, y) for x in comp for y in tree.neighbors(x) if y in placed]
        assert len(links) == 1, "peeled component must touch the rest by one tree edge"
        u1, u2 = links[0]
        add_fresh(comp)
        allowed = stock[u2] & used_column_indices(roles.role_of(u1), n)
        assert allowed, "splice stock ran dry; layer bound accounting is wrong"
        j = min(allowed)
        edges.remove(_vertical(j, u1))
        edges.remove(_vertical(j, u2))
        edges.add(_edge((j, u1), (j, u2)))
        edges.add(_edge((j + 1, u1), (j + 1, u2)))
        stock[u1].discard(j)
        stock[u2].discard(j)

    cycle = _trace_cycle(edges, n, tree.order)
    counts = {v: len(stock[v]) for v in tree.vertices()}
    return BuildResult(cycle, tree, roles, mode, counts)


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
    if n == 1:
        # single layer over a single edge: the degenerate two-vertex cycle
        u, w = matching.components[0]
        seq = (product_id(1, u, tree.order), product_id(1, w, tree.order))
        cycle = HamCycle(1, tree.order, seq)
        counts = {v: 0 for v in tree.vertices()}
        return BuildResult(cycle, tree, assign_roles(matching), "matching", counts)
    result = _assemble(n, tree, assign_roles(matching), "matching")
    assert verify_column_contract(result.cycle, tree, result.roles, n, "matching")
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
    assert verify_column_contract(result.cycle, tree, result.roles, n, "pathfactor")
    return result


def build_cycle(n: int, base: Graph, mode: str = "auto") -> BuildResult:
    """Full pipeline: factor the base graph, extend the factor to a
    spanning tree, dispatch to the matching or path-factor assembly, and
    validate the result before returning it.

    ``auto`` prefers the matching route (its layer requirement is weaker)
    and falls back to the path-factor route.
    """
    if mode not in ("auto", "matching", "pathfactor"):
        raise ValueError(f"unknown mode {mode!r}")
    if not is_connected(base):
        raise DisconnectedError("base graph must be connected")
    dmax = degree_stats(base).maximum

    matching = find_perfect_matching(base) if mode in ("auto", "matching") else None
    if mode == "matching" and matching is None:
        raise NoFactorError("no perfect matching", factor_obstruction(base))
    if matching is not None:
        if n >= dmax:
            tree = spanning_tree_containing(base, matching.components)
            result = build_cycle_matching(n, tree, matching)
        elif mode == "matching":
            raise LayerBoundError(f"matching route needs n >= {dmax}", dmax)
        else:
            raise LayerBoundError(f"need n >= {dmax} for this base graph", dmax)
    else:
        factor = find_p23_factor(base)
        if factor is None:
            raise NoFactorError("no path factor", factor_obstruction(base))
        need = max(4 * dmax - 2, 2)
        if n % 2:
            raise OddLayersError(f"path-factor route needs even n >= {need}")
        if n < need:
            raise LayerBoundError(f"path-factor route needs n >= {need}", need)
        tree = spanning_tree_containing(base, [(c[0], c[1]) for c in factor.components]
                                        + [(c[1], c[2]) for c in factor.components if len(c) == 3])
        result = build_cycle_path_factor(n, tree, factor)

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
                           n: int, mode: str) -> bool:
    """Check the per-column vertical-edge budget of a constructed cycle.

    matching mode: column v holds exactly n - degree(v) vertical edges.
    pathfactor mode: the vertical edges lie inside the column's role
    pattern and number |pattern| - degree(v) + (degree of v inside its own
    component).
    """
    used: dict[int, set[int]] = {v: set() for v in tree.vertices()}
    base = cycle.base_order
    for a, b in cycle.edge_set:
        (ia, va) = (a - 1) // base + 1, (a - 1) % base + 1
        (ib, vb) = (b - 1) // base + 1, (b - 1) % base + 1
        if va == vb and ib == ia + 1:
            used[va].add(ia)
    for v in tree.vertices():
        deg = tree.degree(v)
        if mode == "matching":
            if len(used[v]) != n - deg:
                return False
        else:
            role = roles.role_of(v)
            pattern = used_column_indices(role, n)
            if not used[v] <= pattern:
                return False
            if len(used[v]) != len(pattern) - deg + ROLE_COMPONENT_DEGREE[role]:
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
