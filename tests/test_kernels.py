"""The pure kernels against the references in ``tests/helpers.py`` and
pinned literals, and the Graph-level wrappers of ``boxham.kernels``."""

import random
import time

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
from helpers import (
    apexed,
    full_toughness_scan,
    random_connected_graph,
    recursive_ham_cycle,
    recursive_scattering_max,
)


# a degree-3 tree of order 8 from the scan 1 --k 3 family
SCAN8 = Graph.from_edges(8, [(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (4, 8), (5, 7)])


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
    """The pure kernels on 64-vertex inputs, whose masks fill a whole
    64-bit word, against the recursive references and pinned literals."""

    def test_mask_boundary_64_vertices(self):
        prod = cartesian_product(path_graph(8), oracle.fixtures().t1)
        assert prod.order == 64
        adj = list(prod.adjacency_masks)
        got = _pykernels.ham_cycle(64, adj, 2_000_000, None)
        assert got == recursive_ham_cycle(64, adj, 2_000_000, None)
        assert (got[0], got[2]) == ("found", 2751)
        assert (_pykernels.scattering_max(64, adj, 100_000, None)
                == recursive_scattering_max(64, adj, 100_000, None))
        # K_{2,62} with its hubs on the top bits: the scan runs every set of
        # size 1 and 2 up to the last one, which ends in bit 63, and stops
        adj = list(complete_bipartite(62, 2).adjacency_masks)
        want = (2, 62, 3 << 62, 1 + 64 + 64 * 63 // 2)
        assert _pykernels.toughness_scan(64, adj) == want


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

    def test_matches_reference_on_apexed_scan_products(self):
        # the spanning-path oracle's graphs: every vertex is adjacent to the
        # start, so every vertex may come to need its closing edge
        outcomes = set()
        for base, prod in scan_products():
            g = apexed(prod)
            adj = list(g.adjacency_masks)
            got = _pykernels.ham_cycle(g.order, adj, 1000, None)
            assert got == recursive_ham_cycle(g.order, adj, 1000, None), base.edges
            outcomes.add(got[0])
        assert {"found", "unknown"} <= outcomes

    def test_two_vertices_needing_the_closing_edge_end_the_branch(self):
        # after the path 1-2-4, vertices 3 and 5 each keep one connection
        # other than the start 1 (to 4), and only one of them can close the
        # cycle: that branch ends at its first node (7 nodes without the rule)
        g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 4), (4, 5)])
        adj = list(g.adjacency_masks)
        want = ("found", (0, 1, 4, 3, 2), 6)
        assert _pykernels.ham_cycle(5, adj) == recursive_ham_cycle(5, adj) == want

    def test_disconnected_graph_stops_at_the_root(self):
        # every degree is 2, so only the root's connectivity check answers
        triangles = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert kernels.ham_cycle(triangles) == ("none", None, 1)

    def test_long_cycle_without_recursion(self):
        # one search node per vertex, far past the interpreter's recursion limit
        status, order, nodes = kernels.ham_cycle(cycle_graph(3000))
        assert (status, nodes) == ("found", 3000)
        assert order == tuple(range(1, 3001))

    def test_ladder_search(self):
        # P600 x K2: the entry splices it, so only this pin keeps the
        # search's own ladder case, and its 2,989 nodes, in view
        ladder = cartesian_product(path_graph(600), path_graph(2))
        status, order, nodes = kernels.ham_cycle(ladder)
        assert (status, nodes) == ("found", 2989)
        assert sorted(order) == list(ladder.vertices())
        assert all(map(ladder.has_edge, order, order[1:] + order[:1]))


class TestPureScattering:
    """The iterative pure branch and bound against its recursive
    reference, as for the cycle search: the same cut and node count,
    capped or not."""

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(112)
        outcomes = set()
        for _ in range(600):
            n, adj = random_masks(rng, 14, rng.uniform(0.1, 0.8))
            for cap in (None, 0, 1, 10, 300):
                got = _pykernels.scattering_max(n, adj, cap, None)
                assert got == recursive_scattering_max(n, adj, cap, None), (n, adj, cap)
                outcomes.add("cut" if got[1] is not None else got[0])
        assert outcomes == {"cut", "complete", "unknown"}

    def test_star_without_recursion(self):
        # 1500 vertices, one search node per vertex and the leaf, far past
        # the interpreter's recursion limit; the cut is the centre
        star = star_graph(1499)
        got = _pykernels.scattering_max(star.order, list(star.adjacency_masks))
        assert got == ("complete", 1498, 1, 1501)


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


class TestClockBudget:
    """A deadline that has already passed stops every search at its first
    clock check, after exactly ``_TIME_CHECK_STRIDE`` nodes."""

    STRIDE = _pykernels._TIME_CHECK_STRIDE

    def test_past_deadline(self):
        assert self.STRIDE == 4096
        p3 = cartesian_product(path_graph(3), oracle.fixtures().t1)
        p8 = cartesian_product(path_graph(8), SCAN8)
        past = time.monotonic() - 1
        # uncapped: 251,734 and 83,687 nodes (pinned in bench_kernels.py)
        assert (_pykernels.scattering_max(p3.order, p3.adjacency_masks, None, past)
                == ("unknown", None, None, self.STRIDE))
        assert (_pykernels.ham_cycle(p8.order, p8.adjacency_masks, None, past)
                == ("unknown", None, self.STRIDE))

    def test_wrappers_with_a_zero_budget(self):
        p3 = cartesian_product(path_graph(3), oracle.fixtures().t1)
        p8 = cartesian_product(path_graph(8), SCAN8)
        assert (kernels.scattering_max(p3, deadline=time.monotonic())
                == ("unknown", None, None, self.STRIDE))
        assert (kernels.ham_cycle(p8, deadline=time.monotonic())
                == ("unknown", None, self.STRIDE))
        # the search on the apexed P6 x T1 meets a cycle at node 35,706
        p6 = cartesian_product(path_graph(6), oracle.fixtures().t1)
        assert oracle.find_spanning_path(p6).nodes == 35_706
        assert (oracle.find_spanning_path(p6, deadline=time.monotonic())
                == oracle.PathResult("unknown", None, self.STRIDE))


class CallRecorder:
    """A stand-in kernel module that records the names of the functions
    called on it and answers with the pure kernels."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(_pykernels, name)

        def recorded(*args):
            self.calls.append(name)
            return fn(*args)
        return recorded


class TestWrappers:
    def test_vertex_translation(self):
        # the apex is vertex 1 of the searched graph, so P4's vertex v is v + 1
        # there, and the oracle maps the cycle back
        assert oracle.find_spanning_path(path_graph(4)).path == (1, 2, 3, 4)
        status, order, _ = kernels.ham_cycle(cycle_graph(5))
        assert status == "found" and order == (1, 2, 3, 4, 5)

    def test_searches_dispatch_through_the_stand_in_module(self, monkeypatch):
        # the benchmark records backend_name() and swaps a stand-in into
        # kernels._fast to replay its calls on the pure kernels
        assert kernels.backend_name() == "pure"
        g = star_graph(3)
        p4 = path_graph(4)
        want = (kernels.ham_cycle(g), oracle.find_spanning_path(p4),
                kernels.scattering_max(g), kernels.toughness_scan(g))
        fast = CallRecorder()
        monkeypatch.setattr(kernels, "_fast", fast)
        assert (kernels.ham_cycle(g), oracle.find_spanning_path(p4),
                kernels.scattering_max(g), kernels.toughness_scan(g)) == want
        assert kernels.count_isolated_after(g, {1}) == 3
        assert kernels.count_components_after(g, {1}) == 3
        # the spanning-path oracle runs the cycle search on P4 plus an apex;
        # the counters always run on the pure kernels
        assert fast.calls == ["ham_cycle", "ham_cycle", "scattering_max", "toughness_scan"]

    def test_capped_search_reports_its_cap(self):
        from boxham.oracle import fixtures
        flagship = cartesian_product(path_graph(4), fixtures().t1)
        # the kernels stop before they count a node past the cap
        assert _pykernels.ham_cycle(32, flagship.adjacency_masks, 10, None)[2] == 10
        status, _, nodes = kernels.ham_cycle(flagship, max_nodes=10)
        assert (status, nodes) == ("unknown", 10)
        res = oracle.find_spanning_path(flagship, max_nodes=10)
        assert (res.status, res.nodes) == ("unknown", 10)
        status, *_, nodes = kernels.scattering_max(flagship, max_nodes=10)
        assert (status, nodes) == ("unknown", 10)

    def test_every_capped_search_reports_exactly_its_cap(self):
        rng = random.Random(111)
        graphs = [cartesian_product(path_graph(4), oracle.fixtures().t1)]
        graphs += [random_connected_graph(rng, 6, 12) for _ in range(40)]
        stopped = 0
        for g in graphs:
            adj = g.adjacency_masks
            for cap in (0, 1, 5, 50):
                raw = (_pykernels.ham_cycle(g.order, adj, cap, None),
                       _pykernels.scattering_max(g.order, adj, cap, None))
                wrapped = (kernels.ham_cycle(g, max_nodes=cap),
                           kernels.scattering_max(g, max_nodes=cap))
                assert [out[-1] for out in raw] == [out[-1] for out in wrapped]
                path = oracle.find_spanning_path(g, max_nodes=cap)
                for status, nodes in [(out[0], out[-1]) for out in raw] + [
                        (path.status, path.nodes)]:
                    assert nodes <= cap
                    if status == "unknown":
                        stopped += 1
                        assert nodes == cap, (g.edges, cap, status)
        assert stopped >= 300

    def test_toughness_scan_translation(self):
        assert kernels.toughness_scan(star_graph(3)) == (1, 3, {1}, 5)
        assert kernels.toughness_scan(complete_graph(3)) is None

    def test_scattering_cut_translation(self):
        status, val, cut, _ = kernels.scattering_max(star_graph(3))
        assert status == "complete" and val == 2 and cut == {1}
