"""Backend parity: the compiled extension must match the pure kernels
bit for bit, node counts included."""

import hashlib
import random
from pathlib import Path

import pytest

from boxham import _pykernels, kernels, oracle
from boxham.graphs import Graph, cartesian_product, cycle_graph, path_graph
from helpers import recursive_ham_cycle

compiled = pytest.mark.skipif(kernels.BACKEND != "compiled",
                              reason="compiled extension not built")


def random_masks(rng, max_order=9):
    n = rng.randint(1, max_order)
    edges = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
             if rng.random() < 0.45]
    return n, list(Graph.from_edges(n, edges).adjacency_masks)


@compiled
class TestParity:
    def test_ham_cycle(self):
        rng = random.Random(101)
        for _ in range(250):
            n, adj = random_masks(rng)
            assert (kernels._fast.ham_cycle(n, adj, None, None)
                    == _pykernels.ham_cycle(n, adj, None, None))

    def test_ham_path(self):
        rng = random.Random(102)
        for _ in range(250):
            n, adj = random_masks(rng)
            assert (kernels._fast.ham_path(n, adj, None, None)
                    == _pykernels.ham_path(n, adj, None, None))

    def test_scattering(self):
        rng = random.Random(103)
        for _ in range(250):
            n, adj = random_masks(rng)
            for prune, stop in ((None, None), (0, 0)):
                assert (kernels._fast.scattering_max(n, adj, prune, stop, None, None)
                        == _pykernels.scattering_max(n, adj, prune, stop, None, None))

    def test_toughness(self):
        rng = random.Random(104)
        for _ in range(200):
            n, adj = random_masks(rng)
            assert (kernels._fast.toughness_scan(n, adj)
                    == _pykernels.toughness_scan(n, adj))

    def test_budget_counts(self):
        rng = random.Random(105)
        for _ in range(50):
            n, adj = random_masks(rng, 8)
            for cap in (1, 5, 50):
                assert (kernels._fast.ham_cycle(n, adj, cap, None)
                        == _pykernels.ham_cycle(n, adj, cap, None))
                assert (kernels._fast.scattering_max(n, adj, None, None, cap, None)
                        == _pykernels.scattering_max(n, adj, None, None, cap, None))

    def test_mask_boundary_64_vertices(self):
        # exactly 64 vertices still rides the compiled path; the full-mask
        # computation must not shift a 64-bit word by 64
        from boxham.oracle import fixtures
        prod = cartesian_product(path_graph(8), fixtures().t1)
        assert prod.order == 64
        adj = list(prod.adjacency_masks)
        fast = kernels._fast.ham_cycle(64, adj, 2_000_000, None)
        pure = _pykernels.ham_cycle(64, adj, 2_000_000, None)
        assert fast == pure and fast[0] == "found"
        assert (kernels._fast.scattering_max(64, adj, 0, 0, 100_000, None)
                == _pykernels.scattering_max(64, adj, 0, 0, 100_000, None))

    def test_product_instances(self):
        # mid-size real instances, not just random soup
        from boxham.oracle import fixtures
        cases = [
            cartesian_product(path_graph(2), fixtures().t1),    # 16 vertices
            cartesian_product(path_graph(2), fixtures().fig4),  # 12 vertices
            cartesian_product(path_graph(3), path_graph(5)),    # 15-vertex grid
        ]
        for g in cases:
            n, adj = g.order, list(g.adjacency_masks)
            assert (kernels._fast.ham_cycle(n, adj, None, None)
                    == _pykernels.ham_cycle(n, adj, None, None))
            assert (kernels._fast.scattering_max(n, adj, 0, 0, None, None)
                    == _pykernels.scattering_max(n, adj, 0, 0, None, None))
            assert (kernels._fast.toughness_scan(n, adj)
                    == _pykernels.toughness_scan(n, adj))


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
        # the scanner's degree-3 bases of order 6..8 under 8 layers
        bases = [g for g in oracle._candidate_bases(8, degree=3) if g.order >= 6]
        assert len(bases) >= 60
        outcomes = set()
        for base in bases:
            prod = cartesian_product(path_graph(8), base)
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


class TestWrappers:
    def test_vertex_translation(self):
        g = path_graph(4)
        status, order, _ = kernels.ham_path(g)
        assert status == "found" and order == (1, 2, 3, 4)

    def test_large_instances_fall_back_to_pure(self):
        # 80 vertices exceeds the 64-bit compiled window
        big = cartesian_product(path_graph(10), path_graph(8))
        status, order, _ = kernels.ham_cycle(big)
        assert status == "found"
        assert sorted(order) == list(range(1, 81))

    def test_capped_search_reports_its_cap(self):
        from boxham.oracle import fixtures
        flagship = cartesian_product(path_graph(4), fixtures().t1)
        adj = list(flagship.adjacency_masks)
        # the backends charge the node past the cap before they stop
        assert _pykernels.ham_cycle(32, adj, 10, None)[2] == 11
        for search in (kernels.ham_cycle, kernels.ham_path):
            status, _, nodes = search(flagship, max_nodes=10)
            assert (status, nodes) == ("unknown", 10)
        status, *_, nodes = kernels.scattering_max(flagship, prune_at=0, stop_above=0,
                                                   max_nodes=10)
        assert (status, nodes) == ("unknown", 10)

    def test_scattering_cut_translation(self):
        from boxham.graphs import star_graph
        status, val, cut, _ = kernels.scattering_max(star_graph(3))
        assert status == "complete" and val == 2 and cut == {1}


def test_generated_c_matches_pyx():
    # _ckernels.c is generated from _ckernels.pyx and tracked; the hash of
    # the .pyx it was generated from is recorded next to it
    src = Path(__file__).resolve().parents[1] / "src" / "boxham"
    recorded = (src / "_ckernels.pyx.sha256").read_text().split()[0]
    actual = hashlib.sha256((src / "_ckernels.pyx").read_bytes()).hexdigest()
    assert recorded == actual, (
        "_ckernels.pyx changed since _ckernels.c was generated: regenerate "
        "src/boxham/_ckernels.c (python setup.py build_ext --inplace with Cython "
        "installed), then run `sha256sum _ckernels.pyx > _ckernels.pyx.sha256` "
        "in src/boxham")
