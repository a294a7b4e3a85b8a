"""Graph-level wrappers over the search kernels of ``boxham._pykernels``.

The hot search loops are the Hamiltonian cycle backtracking, which also
answers traceability through an apex vertex
(:func:`boxham.oracle.find_spanning_path`), the scattering
branch-and-bound, which looks for a cut set S with c(G - S) - |S| > 0
and stops at the first, and the exact toughness scan over vertex sets by
increasing size, which stops at the ratio bound.  They are pure Python,
so ``backend_name()`` is always ``"pure"``.  The two searches stop
with "unknown" at ``max_nodes`` nodes, reporting exactly that many, or
once ``deadline``, a ``time.monotonic()`` value read every 4,096 nodes,
has passed; None sets no limit.
"""

from __future__ import annotations

from . import _pykernels
from .graphs import Graph

# When set, a stand-in kernel module that the three searches dispatch to:
# perfbench reads this name, and its tracer test sets a stand-in here.
_fast = None


def backend_name() -> str:
    return "pure"


def ham_cycle(g: Graph, *, max_nodes=None, deadline=None):
    """(status, vertex tuple or None, nodes) on 1-indexed vertices."""
    status, order, nodes = (_fast or _pykernels).ham_cycle(
        g.order, g.adjacency_masks, max_nodes, deadline)
    if order is not None:
        order = tuple(v + 1 for v in order)
    return status, order, nodes


def scattering_max(g: Graph, *, max_nodes=None, deadline=None):
    """(status, value, cut frozenset, nodes) of the first cut set S found
    with c(G - S) - |S| > 0; value and cut are None when there is none."""
    status, val, mask, nodes = (_fast or _pykernels).scattering_max(
        g.order, g.adjacency_masks, max_nodes, deadline)
    cut = None if mask is None else _mask_to_set(mask)
    return status, val, cut, nodes


def toughness_scan(g: Graph):
    """(size, component count, cut frozenset, subsets counted) of the
    toughness minimizer, or None when the graph has no cut set."""
    best = (_fast or _pykernels).toughness_scan(g.order, g.adjacency_masks)
    if best is None:
        return None
    size, comps, mask, subsets = best
    return size, comps, _mask_to_set(mask), subsets


def count_components_after(g: Graph, removed: frozenset[int] | set[int]) -> int:
    alive = _set_to_alive_mask(g.order, removed)
    return _pykernels.count_components(g.adjacency_masks, alive)


def count_isolated_after(g: Graph, removed: frozenset[int] | set[int]) -> int:
    alive = _set_to_alive_mask(g.order, removed)
    return _pykernels.count_isolated(g.adjacency_masks, alive)


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length())
    return frozenset(out)


def _set_to_alive_mask(order: int, removed) -> int:
    mask = (1 << order) - 1
    for v in removed:
        mask &= ~(1 << (v - 1))
    return mask
