"""Backend parity: the compiled C kernels, built from source by the
``ckernels`` fixture, must match the pure kernels bit for bit, node counts
included; the Graph-level wrappers are tested on both backends."""

import random

import pytest

from boxham import _pykernels, kernels, oracle
from boxham.graphs import Graph, cartesian_product, cycle_graph, path_graph
from helpers import recursive_ham_cycle, recursive_ham_path


def random_masks(rng, max_order=9):
    n = rng.randint(1, max_order)
    edges = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
             if rng.random() < 0.45]
    return n, list(Graph.from_edges(n, edges).adjacency_masks)


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

    def test_scattering_cut_translation(self, backends):
        from boxham.graphs import star_graph
        for _ in backends():
            status, val, cut, _ = kernels.scattering_max(star_graph(3))
            assert status == "complete" and val == 2 and cut == {1}
