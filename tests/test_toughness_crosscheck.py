"""Second-opinion toughness: a from-scratch subset enumeration with
union-find components must reproduce toughness_exact (value, witness,
and tie-breaks), the branch and bound's answer to whether the scattering
maximum exceeds 0, and the frontier DP's maximum whenever it does.  The frontier DP must also give exactly
what the parent-map version in the helpers gives, node cap included."""

import itertools
import random
import tracemalloc
from fractions import Fraction

from boxham.graphs import (
    cartesian_product,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    path_graph,
    star_graph,
)
from boxham.kernels import scattering_max
from boxham.oracle import fixtures
from boxham.toughness import frontier_scattering, toughness_exact
from helpers import (
    petersen_necklace,
    random_connected_bipartite,
    random_connected_graph,
    reference_frontier_scattering,
)


def components_union_find(g, removed):
    parent = {v: v for v in g.vertices() if v not in removed}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return len({find(v) for v in parent})


def toughness_naive(g):
    """(value, witness) minimizing |S|/c, smaller |S| then lex on ties."""
    best = None
    verts = list(g.vertices())
    for size in range(g.order):
        for combo in itertools.combinations(verts, size):
            c = components_union_find(g, set(combo))
            if c < 2:
                continue
            value = Fraction(size, c)
            if best is None or value < best[0]:
                best = (value, combo)
    return best


def scattering_naive(g):
    best = None
    verts = list(g.vertices())
    for size in range(g.order):
        for combo in itertools.combinations(verts, size):
            c = components_union_find(g, set(combo))
            if c < 2:
                continue
            val = c - size
            if best is None or val > best:
                best = val
    return best


def population():
    rng = random.Random(777)
    out = [random_connected_graph(rng, 2, 9) for _ in range(120)]
    out += [path_graph(k) for k in range(2, 9)]
    out += [cycle_graph(k) for k in range(3, 9)]
    out += [star_graph(k) for k in range(2, 7)]
    out += [complete_graph(k) for k in range(2, 7)]
    out += [complete_bipartite(a, b) for a in (1, 2, 3) for b in (2, 3, 4)]
    return out


def test_toughness_matches_naive_enumeration():
    for g in population():
        naive = toughness_naive(g)
        fast = toughness_exact(g)
        if naive is None:
            assert fast.is_infinite, g.edges
            continue
        assert fast.value == naive[0], g.edges
        # combinations() scans small-then-lex, so the first optimum found
        # with a strict improvement test is exactly the pinned tie-break
        assert tuple(sorted(fast.witness.cut)) == naive[1], g.edges


def test_scattering_matches_naive_enumeration():
    positive = 0
    for g in population():
        naive = scattering_naive(g)
        status, val, cut, _ = scattering_max(g)
        assert status == "complete"
        assert (val is not None) == (naive is not None and naive > 0), g.edges
        assert (cut is None) == (val is None)
        if cut is not None:
            positive += 1
            c = components_union_find(g, set(cut))
            assert c >= 2 and c - len(cut) == val > 0
    assert positive >= 50


def test_frontier_dp_matches_naive_enumeration():
    rng = random.Random(4242)
    positive = 0
    for i in range(320):
        make = random_connected_bipartite if i % 2 else random_connected_graph
        g = make(rng, 2, 12)
        order = list(g.vertices())
        if i % 4 >= 2:
            rng.shuffle(order)
        status, value, cut, states = frontier_scattering(g, order)
        assert status == "complete" and states > 0
        naive = scattering_naive(g)
        if naive is not None and naive > 0:
            positive += 1
            assert value == naive, g.edges
            assert components_union_find(g, set(cut)) - len(cut) == value
        else:
            assert value is None and cut is None, g.edges
        _, bb_value, _, _ = scattering_max(g)
        assert (value is not None) == (bb_value is not None), g.edges
    assert 100 <= positive <= 270


def test_frontier_dp_matches_parent_map_reference():
    rng = random.Random(1212)
    capped = 0
    for _ in range(1000):
        g = random_connected_graph(rng, 2, 12)
        shuffled = list(g.vertices())
        rng.shuffle(shuffled)
        for order in (list(g.vertices()), components(g)[0], shuffled):
            for cap in (None, 0, 1, 7, 100):
                got = frontier_scattering(g, order, max_nodes=cap)
                assert got == reference_frontier_scattering(g, order, max_nodes=cap), \
                    (g.edges, order, cap)
                capped += got[0] == "unknown"
    assert capped >= 3000


def test_frontier_dp_matches_reference_on_the_flagship():
    flagship = cartesian_product(path_graph(4), fixtures().t1)
    order = list(flagship.vertices())
    got = frontier_scattering(flagship, order)
    assert got == reference_frontier_scattering(flagship, order) == ("complete", None, None, 22651)


def test_frontier_dp_memory_follows_the_layer_not_the_order():
    # 1200 vertices at width 6: the parent maps of the reference peak at
    # about 20 MiB here, the current layer alone at a fraction of one
    necklace = petersen_necklace(120)
    order = components(necklace)[0]
    want = reference_frontier_scattering(necklace, order)
    tracemalloc.start()
    try:
        got = frontier_scattering(necklace, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == ("complete", None, None, 93833)
    assert peak < 2 * 2**20, peak
