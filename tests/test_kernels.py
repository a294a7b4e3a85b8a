"""Backend parity: the compiled C kernels, built from source by the
``ckernels`` fixture, must match the pure kernels bit for bit, node counts
included; the Graph-level wrappers are tested on both backends."""

import random

import pytest

from boxham import _pykernels, kernels, oracle
from boxham.graphs import (
    Graph,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from helpers import full_toughness_scan, recursive_ham_cycle, recursive_ham_path


def random_masks(rng, max_order=9, density=0.45):
    n = rng.randint(1, max_order)
    edges = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
             if rng.random() < density]
    return n, list(Graph.from_edges(n, edges).adjacency_masks)


def no_factor_bases(rng):
    """Bases of order 8..16 with no {P2,P3}-factor, shaped like the
    certify workload's: s hubs share 2s + 1 pendants, so removing the hubs
    isolates more than 2s vertices; the hubs and the other vertices form a
    random tree, plus up to two chords, and the labels are shuffled."""
    out = []
    for order in range(8, 17):
        for s in (1, 2, 3):
            if 3 * s + 1 >= order:
                continue
            pendants = range(s + 1, 3 * s + 2)
            edges = {(1 + i % s, p) for i, p in enumerate(pendants)}
            core = [v for v in range(1, order + 1) if v <= s or v > 3 * s + 1]
            for i, v in enumerate(core[1:], 1):
                edges.add((core[rng.randrange(i)], v))
            for _ in range(rng.randint(0, 2)):
                u, v = rng.sample(core, 2)
                edges.add((min(u, v), max(u, v)))
            perm = list(range(1, order + 1))
            rng.shuffle(perm)
            out.append(Graph.from_edges(
                order, [(perm[u - 1], perm[v - 1]) for u, v in edges]))
    return out


def toughness_population():
    """Scan inputs of order 1..16: seeded random masks at densities
    0.1-0.8 (disconnected ones included), complete graphs, C16, K_{8,8}
    and the no-factor bases."""
    rng = random.Random(109)
    out = [random_masks(rng, 16, rng.uniform(0.1, 0.8)) for _ in range(600)]
    graphs = [complete_graph(k) for k in (1, 2, 5, 16)]
    graphs += [cycle_graph(16), complete_bipartite(8, 8)]
    graphs += no_factor_bases(random.Random(110))
    return out + [(g.order, list(g.adjacency_masks)) for g in graphs]


def scan_products():
    """The scanner's degree-3 bases of order 6..8 under 8 layers."""
    bases = [g for g in oracle._candidate_bases(8, degree=3) if g.order >= 6]
    assert len(bases) == 78
    return [(base, cartesian_product(path_graph(8), base)) for base in bases]


class TestParity:
    def test_ham_cycle(self, ckernels):
        rng = random.Random(101)
        for _ in range(250):
            n, adj = random_masks(rng)
            assert (ckernels.ham_cycle(n, adj, None, None)
                    == _pykernels.ham_cycle(n, adj, None, None))

    def test_ham_path(self, ckernels):
        rng = random.Random(102)
        for _ in range(250):
            n, adj = random_masks(rng)
            assert (ckernels.ham_path(n, adj, None, None)
                    == _pykernels.ham_path(n, adj, None, None))

    def test_scattering(self, ckernels):
        rng = random.Random(103)
        for _ in range(250):
            n, adj = random_masks(rng)
            for prune, stop in ((None, None), (0, 0)):
                assert (ckernels.scattering_max(n, adj, prune, stop, None, None)
                        == _pykernels.scattering_max(n, adj, prune, stop, None, None))

    def test_toughness(self, ckernels):
        rng = random.Random(104)
        for _ in range(200):
            n, adj = random_masks(rng)
            assert (ckernels.toughness_scan(n, adj)
                    == _pykernels.toughness_scan(n, adj))
        for n, adj in toughness_population():
            assert (ckernels.toughness_scan(n, adj)
                    == _pykernels.toughness_scan(n, adj)), (n, adj)

    def test_component_counts(self, ckernels):
        rng = random.Random(107)
        for _ in range(500):
            n, adj = random_masks(rng, 12)
            alive = rng.getrandbits(n)
            assert (ckernels.count_components(adj, alive)
                    == _pykernels.count_components(adj, alive))
            assert (ckernels.count_isolated(adj, alive)
                    == _pykernels.count_isolated(adj, alive))

    def test_budget_counts(self, ckernels):
        rng = random.Random(105)
        for _ in range(50):
            n, adj = random_masks(rng, 8)
            for cap in (1, 5, 50):
                assert (ckernels.ham_cycle(n, adj, cap, None)
                        == _pykernels.ham_cycle(n, adj, cap, None))
                assert (ckernels.ham_path(n, adj, cap, None)
                        == _pykernels.ham_path(n, adj, cap, None))
                assert (ckernels.scattering_max(n, adj, None, None, cap, None)
                        == _pykernels.scattering_max(n, adj, None, None, cap, None))

    def test_mask_boundary_64_vertices(self, ckernels):
        # exactly 64 vertices still rides the compiled path; the full-mask
        # computation must not shift a 64-bit word by 64
        from boxham.oracle import fixtures
        prod = cartesian_product(path_graph(8), fixtures().t1)
        assert prod.order == 64
        adj = list(prod.adjacency_masks)
        fast = ckernels.ham_cycle(64, adj, 2_000_000, None)
        pure = _pykernels.ham_cycle(64, adj, 2_000_000, None)
        assert fast == pure and fast[0] == "found"
        assert (ckernels.scattering_max(64, adj, 0, 0, 100_000, None)
                == _pykernels.scattering_max(64, adj, 0, 0, 100_000, None))
        # K_{2,62} with its hubs on the top bits: the scan runs every set of
        # size 1 and 2 up to the last one, which ends in bit 63, and stops
        adj = list(complete_bipartite(62, 2).adjacency_masks)
        want = (2, 62, 3 << 62, 1 + 64 + 64 * 63 // 2)
        assert ckernels.toughness_scan(64, adj) == _pykernels.toughness_scan(64, adj) == want

    def test_product_instances(self, ckernels):
        # mid-size real instances, not just random soup
        from boxham.oracle import fixtures
        cases = [
            cartesian_product(path_graph(2), fixtures().t1),    # 16 vertices
            cartesian_product(path_graph(2), fixtures().fig4),  # 12 vertices
            cartesian_product(path_graph(3), path_graph(5)),    # 15-vertex grid
        ]
        for g in cases:
            n, adj = g.order, list(g.adjacency_masks)
            assert (ckernels.ham_cycle(n, adj, None, None)
                    == _pykernels.ham_cycle(n, adj, None, None))
            assert (ckernels.scattering_max(n, adj, 0, 0, None, None)
                    == _pykernels.scattering_max(n, adj, 0, 0, None, None))
            assert (ckernels.toughness_scan(n, adj)
                    == _pykernels.toughness_scan(n, adj))
        # the toughness scan also on the orders 8..16 of the certify bases
        rng = random.Random(111)
        for g in [cycle_graph(16), complete_bipartite(8, 8), *no_factor_bases(rng)]:
            n, adj = g.order, list(g.adjacency_masks)
            assert (ckernels.toughness_scan(n, adj)
                    == _pykernels.toughness_scan(n, adj)), g.edges

    def test_scan_products(self, ckernels):
        outcomes = set()
        for base, prod in scan_products():
            n, adj = prod.order, list(prod.adjacency_masks)
            for search in ("ham_cycle", "ham_path"):
                got = getattr(ckernels, search)(n, adj, 1000, None)
                assert got == getattr(_pykernels, search)(n, adj, 1000, None), (
                    search, base.edges)
                outcomes.add(got[0])
        assert {"found", "unknown"} <= outcomes

    def test_rejects_input_outside_its_window(self, ckernels):
        with pytest.raises(ValueError):
            ckernels.ham_cycle(65, [0] * 65, None, None)
        with pytest.raises(ValueError):
            ckernels.count_components([0] * 65, 1)
        with pytest.raises(ValueError):
            ckernels.scattering_max(3, [6, 5], None, None, None, None)
        # alive is clipped to the order: no read past the adjacency list
        assert ckernels.count_components([0], 1 << 5) == 0
        assert ckernels.count_isolated([0], (1 << 5) | 1) == 1


class TestPureHamCycle:
    """The iterative pure search against its recursive reference: the same
    search tree, so the same cycle and node count, capped or not."""

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(106)
        outcomes = set()
        for _ in range(1000):
            n = rng.randint(1, 14)
            p = rng.uniform(0.2, 0.8)
            edges = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
                     if rng.random() < p]
            adj = list(Graph.from_edges(n, edges).adjacency_masks)
            for cap in (None, 0, 1, 10, 300):
                got = _pykernels.ham_cycle(n, adj, cap, None)
                assert got == recursive_ham_cycle(n, adj, cap, None), (n, edges, cap)
                outcomes.add(got[0])
        assert outcomes == {"found", "none", "unknown"}

    def test_matches_reference_on_scan_products(self):
        outcomes = set()
        for base, prod in scan_products():
            adj = list(prod.adjacency_masks)
            got = _pykernels.ham_cycle(prod.order, adj, 1000, None)
            assert got == recursive_ham_cycle(prod.order, adj, 1000, None), base.edges
            outcomes.add(got[0])
        assert {"found", "unknown"} <= outcomes

    def test_long_cycle_without_recursion(self):
        # one search node per vertex, far past the interpreter's recursion limit
        status, order, nodes = kernels.ham_cycle(cycle_graph(3000))
        assert (status, nodes) == ("found", 3000)
        assert order == tuple(range(1, 3001))


class TestPureHamPath:
    """The iterative pure spanning-path search against its recursive
    reference, as for the cycle search."""

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(108)
        outcomes = set()
        for _ in range(1000):
            n = rng.randint(1, 14)
            p = rng.uniform(0.1, 0.8)
            edges = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
                     if rng.random() < p]
            adj = list(Graph.from_edges(n, edges).adjacency_masks)
            for cap in (None, 0, 1, 10, 300):
                got = _pykernels.ham_path(n, adj, cap, None)
                assert got == recursive_ham_path(n, adj, cap, None), (n, edges, cap)
                outcomes.add(got[0])
        assert outcomes == {"found", "none", "unknown"}

    def test_matches_reference_on_scan_products(self):
        for base, prod in scan_products():
            adj = list(prod.adjacency_masks)
            got = _pykernels.ham_path(prod.order, adj, 1000, None)
            assert got == recursive_ham_path(prod.order, adj, 1000, None), base.edges

    def test_ladder_without_recursion(self):
        # 1200 path vertices, far past the interpreter's recursion limit
        ladder = cartesian_product(path_graph(600), path_graph(2))
        res = oracle.find_spanning_path(ladder)
        assert res.status == "found"
        assert sorted(res.path) == list(range(1, 1201))
        assert all(ladder.has_edge(u, v) for u, v in zip(res.path, res.path[1:]))


class TestPureToughnessScan:
    """The size-ordered scan that stops at the ratio bound against the full
    2^n scan it replaced: the same best cut and tie-break everywhere."""

    def test_matches_full_scan(self):
        outcomes = set()
        for n, adj in toughness_population():
            got = _pykernels.toughness_scan(n, adj)
            want = full_toughness_scan(n, adj)
            assert (got if got is None else got[:3]) == want, (n, adj)
            outcomes.add("no cut" if got is None
                         else "disconnected" if got[0] == 0 else "cut")
        assert outcomes == {"no cut", "disconnected", "cut"}

    def test_stops_at_the_ratio_bound(self):
        # P5: the sets of size 0 and 1 give 1/2, and 2 / (5 - 2) >= 1/2
        n, adj = 5, list(path_graph(5).adjacency_masks)
        assert _pykernels.toughness_scan(n, adj) == (1, 2, 0b10, 1 + 5)
        # K_{8,8}: only a whole side is a cut, so every set of size at most
        # 8 is counted (the sum of C(16, s) for s <= 8), and 9 / 7 >= 8 / 8
        # stops the scan; the side 1..8 is the lex-least of the best sets
        n, adj = 16, list(complete_bipartite(8, 8).adjacency_masks)
        assert _pykernels.toughness_scan(n, adj) == (8, 8, 0xFF, 39_203)
        # a complete graph has no cut: every proper subset is counted
        assert _pykernels.toughness_scan(6, list(complete_graph(6).adjacency_masks)) is None


class CallCounter:
    """A kernel module whose function calls are counted."""

    def __init__(self, module):
        self.module = module
        self.calls = 0

    def __getattr__(self, name):
        fn = getattr(self.module, name)

        def counted(*args):
            self.calls += 1
            return fn(*args)
        return counted


@pytest.fixture
def backends(ckernels_or_none, monkeypatch):
    """Point ``kernels._fast`` at each backend in turn: none (the pure
    kernels), then the compiled module when a compiler exists."""
    modules = [None] if ckernels_or_none is None else [None, ckernels_or_none]

    def each():
        for module in modules:
            monkeypatch.setattr(kernels, "_fast", module)
            yield module
    return each


class TestWrappers:
    """Each test runs once per backend, so the test ids stay one per check."""

    def test_vertex_translation(self, backends):
        for _ in backends():
            g = path_graph(4)
            status, order, _ = kernels.ham_path(g)
            assert status == "found" and order == (1, 2, 3, 4)
            status, order, _ = kernels.ham_cycle(cycle_graph(5))
            assert status == "found" and order == (1, 2, 3, 4, 5)

    def test_large_instances_fall_back_to_pure(self, backends, ckernels_or_none,
                                               monkeypatch):
        # 80 vertices exceeds the 64-bit compiled window
        big = cartesian_product(path_graph(10), path_graph(8))
        for _ in backends():
            status, order, _ = kernels.ham_cycle(big)
            assert status == "found"
            assert sorted(order) == list(range(1, 81))
        # without a compiler the counter wraps the pure module, which the
        # switch calls directly above 64 vertices all the same
        fast = CallCounter(ckernels_or_none or _pykernels)
        monkeypatch.setattr(kernels, "_fast", fast)
        assert kernels.ham_cycle(big)[0] == "found"
        assert fast.calls == 0
        assert kernels.ham_cycle(cartesian_product(path_graph(8), path_graph(8)))[0] == "found"
        assert fast.calls == 1

    def test_capped_search_reports_its_cap(self, backends):
        from boxham.oracle import fixtures
        flagship = cartesian_product(path_graph(4), fixtures().t1)
        adj = list(flagship.adjacency_masks)
        for fast in backends():
            # the backends charge the node past the cap before they stop
            assert (fast or _pykernels).ham_cycle(32, adj, 10, None)[2] == 11
            for search in (kernels.ham_cycle, kernels.ham_path):
                status, _, nodes = search(flagship, max_nodes=10)
                assert (status, nodes) == ("unknown", 10)
            status, *_, nodes = kernels.scattering_max(flagship, prune_at=0, stop_above=0,
                                                       max_nodes=10)
            assert (status, nodes) == ("unknown", 10)

    def test_toughness_scan_translation(self, backends):
        for _ in backends():
            assert kernels.toughness_scan(star_graph(3)) == (1, 3, {1}, 5)
            assert kernels.toughness_scan(complete_graph(3)) is None

    def test_scattering_cut_translation(self, backends):
        for _ in backends():
            status, val, cut, _ = kernels.scattering_max(star_graph(3))
            assert status == "complete" and val == 2 and cut == {1}
