"""Kernel backend selection and Graph-level wrappers.

The hot search loops (Hamiltonian cycle and spanning-path backtracking,
the scattering branch-and-bound, which looks for a cut set S with
c(G - S) - |S| > 0 and stops at the first, and the exact toughness scan
over vertex sets by increasing size, which stops at the ratio bound)
exist twice: hand-written C in ``boxham._ckernels``
(``_ckernels.c``, built by ``setup.py`` when a C compiler is present) and
pure Python in ``boxham._pykernels``.  Both walk the same search trees,
node counts included.  The compiled module is used when it imported and
the instance fits in 64-bit masks; everything else runs on the pure
kernels, and ``backend_name()`` is ``"pure"`` when no module was built.
A search that ``max_nodes`` stops reports exactly that many nodes on
either backend.
The parity tests build the C from source and compare it with
``_pykernels`` directly.
"""

from __future__ import annotations

import time

from . import _pykernels
from .graphs import Graph

try:
    from . import _ckernels as _fast
except ImportError:
    _fast = None

BACKEND = "compiled" if _fast is not None else "pure"

_COMPILED_MAX_ORDER = 64


def _impl_for(order: int):
    if _fast is not None and order <= _COMPILED_MAX_ORDER:
        return _fast
    return _pykernels


def _deadline(budget_seconds):
    if budget_seconds is None:
        return None
    return time.monotonic() + budget_seconds


def backend_name() -> str:
    return BACKEND


def ham_cycle(g: Graph, *, max_nodes=None, budget_seconds=None):
    """(status, vertex tuple or None, nodes) on 1-indexed vertices."""
    impl = _impl_for(g.order)
    status, order, nodes = impl.ham_cycle(
        g.order, list(g.adjacency_masks),
        max_nodes, _deadline(budget_seconds))
    if order is not None:
        order = tuple(v + 1 for v in order)
    return status, order, nodes


def ham_path(g: Graph, *, max_nodes=None, budget_seconds=None):
    impl = _impl_for(g.order)
    status, order, nodes = impl.ham_path(
        g.order, list(g.adjacency_masks),
        max_nodes, _deadline(budget_seconds))
    if order is not None:
        order = tuple(v + 1 for v in order)
    return status, order, nodes


def scattering_max(g: Graph, *, max_nodes=None, budget_seconds=None):
    """(status, value, cut frozenset, nodes) of the first cut set S found
    with c(G - S) - |S| > 0; value and cut are None when there is none."""
    impl = _impl_for(g.order)
    status, val, mask, nodes = impl.scattering_max(
        g.order, list(g.adjacency_masks), max_nodes, _deadline(budget_seconds))
    cut = None if mask is None else _mask_to_set(mask)
    return status, val, cut, nodes


def toughness_scan(g: Graph):
    """(size, component count, cut frozenset, subsets counted) of the
    toughness minimizer, or None when the graph has no cut set."""
    impl = _impl_for(g.order)
    best = impl.toughness_scan(g.order, list(g.adjacency_masks))
    if best is None:
        return None
    size, comps, mask, subsets = best
    return size, comps, _mask_to_set(mask), subsets


def count_components_after(g: Graph, removed: frozenset[int] | set[int]) -> int:
    alive = _set_to_alive_mask(g.order, removed)
    return _pykernels.count_components(list(g.adjacency_masks), alive)


def count_isolated_after(g: Graph, removed: frozenset[int] | set[int]) -> int:
    alive = _set_to_alive_mask(g.order, removed)
    return _pykernels.count_isolated(list(g.adjacency_masks), alive)


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
