import itertools
import random
import time
from fractions import Fraction

import pytest

from boxham import kernels
from boxham.errors import (
    BudgetExceededError,
    HasPathFactorError,
    PreconditionFailedError,
)
from boxham.factors import MatchingBarrier, find_p23_factor, perfect_matching_or_barrier
from boxham.graphs import (
    Graph,
    bipartition,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degree_stats,
    path_graph,
    split_counts,
    star_graph,
)
from boxham.oracle import find_hamiltonian_cycle, fixtures
from boxham.toughness import (
    _bfs_order,
    _small_cut,
    frontier_scattering,
    frontier_width,
    is_complete,
    is_one_tough,
    product_cut_from_bipartite,
    product_cut_from_high_degree,
    removal_stats,
    toughness_exact,
)
from helpers import (
    connected_bipartite_up_to_iso,
    random_connected_bipartite,
    random_connected_graph,
)


class TestRemovalStats:
    def test_path_middle(self):
        assert removal_stats(path_graph(3), {2}) == (2, 2)

    def test_star_center(self):
        assert removal_stats(star_graph(3), {1}) == (3, 3)

    def test_empty_set(self):
        assert removal_stats(cycle_graph(4), set()) == (1, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            removal_stats(path_graph(3), {5})


class TestToughnessExact:
    def test_complete_infinite(self):
        res = toughness_exact(complete_graph(4))
        assert res.is_infinite and res.witness is None
        assert is_complete(path_graph(2))

    def test_p3(self):
        res = toughness_exact(path_graph(3))
        assert res.value == Fraction(1, 2)
        assert res.witness.cut == {2} and res.witness.components == 2

    def test_fig1_exactly_one(self):
        res = toughness_exact(fixtures().fig1)
        assert res.value == 1

    def test_cycle_is_one(self):
        assert toughness_exact(cycle_graph(6)).value == 1

    def test_kab(self):
        assert toughness_exact(complete_bipartite(2, 4)).value == Fraction(2, 4)

    def test_witness_minimal_then_lex(self):
        res = toughness_exact(path_graph(5))
        # 1/2 is achieved by {2}, {3} and {4}; the lex-least one wins
        assert res.value == Fraction(1, 2)
        assert res.witness.cut == {2}
        res = toughness_exact(star_graph(3))
        assert res.value == Fraction(1, 3)
        assert res.witness.cut == {1}

    def test_subsets_counted(self):
        # the scan stops before the first size s with s / (n - s) at or
        # above the best ratio; a complete graph is not scanned at all
        assert toughness_exact(complete_graph(4)).nodes == 0
        assert toughness_exact(path_graph(5)).nodes == 6
        assert toughness_exact(star_graph(3)).nodes == 5
        assert toughness_exact(fixtures().fig1).nodes == 64
        assert toughness_exact(cycle_graph(16)).nodes == 26_333
        res = toughness_exact(complete_bipartite(8, 8))
        assert (res.value, res.nodes) == (1, 39_203)

    def test_order_cap(self):
        with pytest.raises(BudgetExceededError):
            toughness_exact(cartesian_product(path_graph(4), fixtures().t1))

    def test_witness_reverifies(self):
        rng = random.Random(77)
        for _ in range(60):
            g = random_connected_graph(rng, 2, 10)
            res = toughness_exact(g)
            if res.is_infinite:
                assert is_complete(g)
                continue
            comps, _ = removal_stats(g, res.witness.cut)
            assert comps == res.witness.components >= 2
            assert Fraction(len(res.witness.cut), comps) == res.value


class TestIsOneTough:
    def test_cycle_yes(self):
        assert is_one_tough(cycle_graph(4)).verdict == "yes"

    def test_star_no_with_witness(self):
        res = is_one_tough(star_graph(3))
        assert res.verdict == "no"
        assert res.witness.cut == {1} and res.witness.components == 3

    def test_complete_yes(self):
        assert is_one_tough(complete_graph(5)).verdict == "yes"

    def test_disconnected_no_empty_witness(self):
        res = is_one_tough(Graph.from_edges(4, [(1, 2), (3, 4)]))
        assert res.verdict == "no" and res.witness.cut == frozenset()

    def test_budget_unknown(self):
        big = cartesian_product(path_graph(4), fixtures().t1)
        res = is_one_tough(big, max_nodes=50)
        # the frontier DP stops at exactly its state cap
        assert (res.verdict, res.decided_by, res.nodes) == ("unknown", "frontier_dp", 50)

    def test_agrees_with_exact(self):
        rng = random.Random(123)
        for _ in range(120):
            g = random_connected_graph(rng, 2, 12)
            exact = toughness_exact(g)
            fast = is_one_tough(g)
            want = "yes" if exact.is_infinite or exact.value >= 1 else "no"
            assert fast.verdict == want
            if fast.witness is not None:
                comps, _ = removal_stats(g, fast.witness.cut)
                assert comps == fast.witness.components > len(fast.witness.cut)

    def test_hamiltonian_implies_one_tough(self):
        rng = random.Random(9)
        seen = 0
        for _ in range(150):
            g = random_connected_graph(rng, 3, 10)
            if find_hamiltonian_cycle(g).found:
                seen += 1
                assert is_one_tough(g).verdict == "yes"
        assert seen >= 10


class TestOneToughPrechecks:
    def test_unbalanced_bipartite_products_need_no_search(self):
        for n in (3, 5):
            prod = cartesian_product(path_graph(n), fixtures().t1)
            res = is_one_tough(prod)
            assert (res.verdict, res.decided_by, res.nodes) == \
                ("no", "bipartite_imbalance", 0)
            bip = bipartition(prod)
            assert res.witness.cut == min(bip.side_a, bip.side_b, key=len)
            comps, _ = removal_stats(prod, res.witness.cut)
            assert comps == res.witness.components > len(res.witness.cut)

    def test_tough_non_hamiltonian_goes_to_frontier_dp(self):
        res = is_one_tough(fixtures().fig1)
        assert (res.verdict, res.decided_by) == ("yes", "frontier_dp")
        petersen = Graph.from_edges(10, [
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7), (3, 8),
            (4, 9), (5, 10), (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)])
        res = is_one_tough(petersen)
        assert (res.verdict, res.decided_by) == ("yes", "frontier_dp") and res.nodes > 0
        status, value, _, search_nodes = kernels.scattering_max(
            petersen, prune_at=0, stop_above=0)
        assert status == "complete" and value <= 0 and search_nodes > 0

    def test_balanced_bipartite_goes_to_frontier_dp(self):
        res = is_one_tough(cycle_graph(6))
        assert (res.verdict, res.decided_by, res.witness) == ("yes", "frontier_dp", None)
        # balanced, with a perfect matching and no cut of one or two vertices
        prod = cartesian_product(path_graph(4), star_graph(3))
        res = is_one_tough(prod)
        assert (res.verdict, res.decided_by) == ("no", "frontier_dp") and res.nodes > 0
        comps, _ = removal_stats(prod, res.witness.cut)
        assert comps == res.witness.components > len(res.witness.cut)

    def test_odd_product_decided_by_matching_barrier(self):
        # the cricket: a triangle with two pendants at one vertex; its
        # 15-vertex product is 2-connected and has no pair leaving 3 parts
        cricket = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5)])
        prod = cartesian_product(path_graph(3), cricket)
        res = is_one_tough(prod)
        assert (res.verdict, res.decided_by, res.nodes) == ("no", "matching_barrier", 0)
        assert res.witness.cut == perfect_matching_or_barrier(prod).witness
        comps, _ = removal_stats(prod, res.witness.cut)
        assert comps == res.witness.components > len(res.witness.cut)

    def test_column_pair_decided_by_small_cut(self):
        # P2 x K_{1,3} is balanced with a perfect matching; the centre's
        # column leaves the three leaf columns apart
        prod = cartesian_product(path_graph(2), star_graph(3))
        res = is_one_tough(prod)
        assert (res.verdict, res.decided_by, res.nodes) == ("no", "small_cut", 0)
        assert res.witness.cut == {1, 5}
        assert removal_stats(prod, res.witness.cut)[0] == res.witness.components == 3

    def test_long_path_decided_by_cut_vertex(self):
        res = is_one_tough(path_graph(2000), max_nodes=1000)
        assert (res.verdict, res.decided_by, res.nodes) == ("no", "small_cut", 0)
        assert res.witness.cut == {2}
        assert removal_stats(path_graph(2000), {2})[0] == res.witness.components == 2

    def test_budget_stops_the_pair_pass(self):
        # cubic and 3-connected on 3000 vertices: the pair pass alone takes
        # seconds, and it must give way to the budget
        prism = cartesian_product(path_graph(2), cycle_graph(1500))
        start = time.monotonic()
        res = is_one_tough(prism, budget_seconds=0.3)
        # labelled with the stage the budget kept from running: the prism's
        # BFS width is 5, so the frontier DP
        assert (res.verdict, res.decided_by, res.nodes) == ("unknown", "frontier_dp", 0)
        assert time.monotonic() - start < 2.0

    def test_prism_decided_without_recursion(self):
        # cubic and 3-connected on 3000 vertices; the BFS order from vertex
        # 1 walks both cycles in step, with a frontier of a few vertices
        prism = cartesian_product(path_graph(2), cycle_graph(1500))
        assert frontier_width(prism, _bfs_order(prism)) == 5
        res = is_one_tough(prism)
        assert (res.verdict, res.decided_by, res.witness) == ("yes", "frontier_dp", None)

    def test_prechecks_agree_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        barriers = pairs = 0
        for _ in range(320):
            g = random_connected_graph(rng, 2, 14)
            nxg = nx.Graph()
            nxg.add_nodes_from(g.vertices())
            nxg.add_edges_from(g.edges)
            pieces = split_counts(g)
            cut_vertices = {v for v in g.vertices() if pieces[v] >= 2}
            assert cut_vertices == set(nx.articulation_points(nxg)), g.edges
            matching = nx.max_weight_matching(nxg, maxcardinality=True)
            found = perfect_matching_or_barrier(g)
            assert isinstance(found, MatchingBarrier) == (2 * len(matching) < g.order)
            if isinstance(found, MatchingBarrier):
                barriers += 1
                rest = nxg.subgraph(set(g.vertices()) - found.witness)
                odd = sum(len(c) % 2 for c in nx.connected_components(rest))
                assert odd == found.odd_components > len(found.witness), g.edges
            # the pair pass against every pair, counted by networkx
            if cut_vertices:
                want = frozenset((min(cut_vertices),))
            else:
                want = next((frozenset(p) for p in itertools.combinations(g.vertices(), 2)
                             if nx.number_connected_components(
                                 nxg.subgraph(set(g.vertices()) - set(p))) >= 3), None)
            assert _small_cut(g, None) == want, g.edges
            pairs += want is not None and len(want) == 2
        assert barriers >= 30 and pairs >= 5

    def test_trivial_cases(self):
        assert is_one_tough(complete_graph(4)).decided_by == "trivial"
        disconnected = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert is_one_tough(disconnected).decided_by == "trivial"

    def test_budget_runs_out_in_search(self):
        # K_{10,10} has frontier width 10 under both orders: too wide for the DP
        res = is_one_tough(complete_bipartite(10, 10), max_nodes=50)
        assert (res.verdict, res.decided_by) == ("unknown", "search")
        assert res.nodes == 50

    def test_long_cycle_under_budget_is_unknown(self):
        # width 2, but about five states a vertex: 1200 vertices outrun 1500
        res = is_one_tough(cycle_graph(1200), max_nodes=1500)
        assert (res.verdict, res.decided_by, res.nodes) == ("unknown", "frontier_dp", 1500)

    def test_agrees_with_direct_search(self):
        rng = random.Random(2024)
        deciders = set()
        for i in range(200):
            if i % 2:
                g = random_connected_bipartite(rng, 2, 12)
            else:
                g = random_connected_graph(rng, 2, 12)
            res = is_one_tough(g)
            _, value, _, _ = kernels.scattering_max(g, prune_at=0, stop_above=0)
            want = "no" if value is not None and value > 0 else "yes"
            assert res.verdict == want, g.edges
            deciders.add(res.decided_by)
            if res.witness is not None:
                comps, _ = removal_stats(g, res.witness.cut)
                assert comps == res.witness.components > len(res.witness.cut)
        # too wide for the DP: the branch and bound decides it
        k = complete_bipartite(10, 10)
        res = is_one_tough(k)
        *_, search_nodes = kernels.scattering_max(k, prune_at=0, stop_above=0)
        assert res.verdict == "yes" and res.nodes == search_nodes > 0
        deciders.add(res.decided_by)
        assert deciders == {"trivial", "bipartite_imbalance", "matching_barrier",
                            "small_cut", "frontier_dp", "search"}


class TestFrontierDP:
    def test_no_witnesses_recount(self):
        rng = random.Random(606)
        seen = 0
        for i in range(150):
            g = (random_connected_bipartite if i % 2 else random_connected_graph)(rng, 2, 14)
            order = list(g.vertices())
            rng.shuffle(order)
            status, value, cut, states = frontier_scattering(g, order)
            assert status == "complete" and states > 0
            if value is not None:
                seen += 1
                assert cut
                comps, _ = removal_stats(g, cut)
                assert comps - len(cut) == value > 0, g.edges
        assert seen >= 50

    def test_shuffled_flagship_takes_the_bfs_order(self):
        flagship = cartesian_product(path_graph(4), fixtures().t1)
        assert frontier_width(flagship, list(flagship.vertices())) == 8
        perm = list(flagship.vertices())
        random.Random(1).shuffle(perm)
        shuffled = Graph.from_edges(32, [(perm[u - 1], perm[v - 1]) for u, v in flagship.edges])
        assert frontier_width(shuffled, list(shuffled.vertices())) == 16
        assert frontier_width(shuffled, _bfs_order(shuffled)) == 7
        res = is_one_tough(shuffled)
        assert (res.verdict, res.decided_by, res.witness) == ("yes", "frontier_dp", None)

    def test_time_budget_between_vertices(self):
        prism = cartesian_product(path_graph(2), cycle_graph(1500))
        start = time.monotonic()
        status, value, cut, _ = frontier_scattering(prism, _bfs_order(prism),
                                                    budget_seconds=0.05)
        assert (status, value, cut) == ("unknown", None, None)
        assert time.monotonic() - start < 1.0

    def test_isolated_vertices(self):
        assert frontier_width(Graph(1), [1]) == 0
        assert frontier_scattering(Graph(1), [1]) == ("complete", None, None, 1)
        # the edge 1-2 and the lone vertex 3: removing either end leaves two parts
        g = Graph.from_edges(3, [(1, 2)])
        assert frontier_scattering(g, [3, 2, 1])[:3] == ("complete", 1, frozenset({2}))

    def test_order_must_be_a_permutation(self):
        with pytest.raises(ValueError):
            frontier_scattering(path_graph(3), [1, 2, 2])
        with pytest.raises(ValueError):
            frontier_width(path_graph(3), [1, 2])


class TestBipartiteProductCut:
    def test_star_n1(self):
        w = product_cut_from_bipartite(1, star_graph(3))
        assert w.cut == {1} and w.components == 3

    def test_star_n2(self):
        w = product_cut_from_bipartite(2, star_graph(3))
        prod = cartesian_product(path_graph(2), star_graph(3))
        comps, _ = removal_stats(prod, w.cut)
        assert comps == w.components > len(w.cut)

    def test_k15_n3(self):
        w = product_cut_from_bipartite(3, star_graph(5))
        prod = cartesian_product(path_graph(3), star_graph(5))
        comps, _ = removal_stats(prod, w.cut)
        assert comps == w.components > len(w.cut)

    def test_factor_graph_rejected(self):
        with pytest.raises(HasPathFactorError):
            product_cut_from_bipartite(2, path_graph(4))

    def test_all_no_factor_bases_up_to_7(self):
        for h in connected_bipartite_up_to_iso(7):
            if find_p23_factor(h) is not None:
                continue
            for n in (1, 2, 3, 4):
                w = product_cut_from_bipartite(n, h)
                prod = cartesian_product(path_graph(n), h)
                comps, _ = removal_stats(prod, w.cut)
                assert comps == w.components > len(w.cut)

    def test_product_not_one_tough_confirms(self):
        # the witness certifies what the search also concludes
        h = star_graph(3)
        for n in (1, 2, 3):
            prod = cartesian_product(path_graph(n), h)
            assert is_one_tough(prod).verdict == "no"


class TestHighDegreeProductCut:
    def test_p2_star3(self):
        w = product_cut_from_high_degree(path_graph(2), star_graph(3))
        assert len(w.cut) == 2 and w.components == 3

    def test_p3_star5(self):
        w = product_cut_from_high_degree(path_graph(3), star_graph(5))
        assert len(w.cut) == 3 and w.components == 5

    def test_boundary_rejected(self):
        with pytest.raises(PreconditionFailedError):
            product_cut_from_high_degree(path_graph(3), star_graph(3))

    def test_witness_column_of_max_degree_vertex(self):
        t = fixtures().t1  # max degree 3 at vertices 2, 3, 4
        w = product_cut_from_high_degree(path_graph(2), t)
        # column of vertex 2 (the smallest maximizer): ids 2 and 10
        assert w.cut == {2, 10}
        assert w.components == 3


class TestBipartiteToughnessCap:
    def test_cap_on_census_and_samples(self):
        # connected non-complete bipartite graphs never exceed toughness 1
        for g in connected_bipartite_up_to_iso(7):
            if is_complete(g):
                continue
            res = toughness_exact(g)
            assert res.value <= 1
        rng = random.Random(42)
        from helpers import random_connected_bipartite
        for _ in range(60):
            g = random_connected_bipartite(rng, 3, 10)
            if is_complete(g):
                continue
            assert toughness_exact(g).value <= 1
