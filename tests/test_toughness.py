import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from boxham import kernels, oracle, toughness
from boxham.cycles import HamCycle, verify_cycle
from boxham.errors import (
    BudgetExceededError,
    PreconditionFailedError,
)
from boxham.factors import (
    MatchingBarrier,
    find_p23_factor,
    one_sided_obstruction,
    perfect_matching_or_barrier,
)
from boxham.graphs import (
    Graph,
    bipartition,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    max_degree,
    path_graph,
    product_id,
    split_counts,
    star_graph,
)
from boxham.oracle import find_hamiltonian_cycle, fixtures
from boxham.toughness import (
    _cut_vertex,
    _narrow_order,
    _separating_pair,
    frontier_scattering,
    frontier_width,
    is_complete,
    is_one_tough,
    product_cut_from_bipartite,
    product_cut_from_high_degree,
    toughness_exact,
)
from helpers import (
    PETERSEN_EDGES,
    connected_bipartite_up_to_iso,
    factor_tree,
    petersen_necklace,
    random_connected_bipartite,
    random_connected_graph,
    random_scan_base,
    removal_stats,
    with_petersen_fragment,
)

# the spider with legs of 2, 2, 1 and 1 vertices: its 4-layer product is
# balanced, 1-tough and non-Hamiltonian, like the flagship over T1
SPIDER = Graph.from_edges(7, [(1, 4), (1, 5), (1, 6), (1, 7), (2, 5), (3, 4)])

# too wide for the frontier DP (11 and 14 under the identity and BFS orders,
# and the greedy order passes the cap inside K11), 1-tough, and with no
# Hamiltonian cycle; the branch and bound decides it in 40,407 nodes
WIDE = with_petersen_fragment(complete_graph(11), 1, 11)

# five K2 components, each joined to every vertex of S = {1, 5, 9, 14}:
# not 1-tough, as removing S leaves five components, with frontier width
# 12 under the identity order and 10 under the BFS order
FIVE_K2_CUT = frozenset((1, 5, 9, 14))
FIVE_K2 = Graph.from_edges(14, [(2, 3), (4, 6), (7, 8), (10, 11), (12, 13)] + [
    (s, v) for s in FIVE_K2_CUT for v in range(1, 15) if v not in FIVE_K2_CUT])


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
        # the failed matching search's barrier is the smaller side here
        for n in (3, 5):
            prod = cartesian_product(path_graph(n), fixtures().t1)
            res = is_one_tough(prod)
            assert (res.verdict, res.decided_by, res.nodes) == \
                ("no", "matching_barrier", 0)
            bip = bipartition(prod)
            assert res.witness.cut == min(bip.side_a, bip.side_b, key=len)
            comps, _ = removal_stats(prod, res.witness.cut)
            assert comps == res.witness.components > len(res.witness.cut)

    def test_unbalanced_bipartite_graphs_leave_a_matching_barrier(self):
        # no odd cycle, so no blossom: every neighbour of the failed root
        # is an odd tree vertex, and the barrier is never empty
        rng = random.Random(25)
        seen = 0
        for _ in range(120):
            base = random_connected_bipartite(rng, 2, 12)
            for n in (1, 3, 5):
                g = base if n == 1 else cartesian_product(path_graph(n), base)
                bip = bipartition(g)
                smaller = min(len(bip.side_a), len(bip.side_b))
                if smaller == g.order - smaller:
                    continue
                seen += 1
                found = perfect_matching_or_barrier(g)
                assert isinstance(found, MatchingBarrier)
                assert 0 < len(found.witness) <= smaller
                res = is_one_tough(g)
                assert (res.verdict, res.decided_by, res.nodes) == \
                    ("no", "matching_barrier", 0)
                assert res.witness.cut == found.witness
                comps, _ = removal_stats(g, res.witness.cut)
                assert comps == res.witness.components > len(res.witness.cut)
        assert seen >= 100

    def test_tough_non_hamiltonian_goes_to_frontier_dp(self):
        res = is_one_tough(fixtures().fig1)
        assert (res.verdict, res.decided_by) == ("yes", "frontier_dp")
        petersen = Graph.from_edges(10, PETERSEN_EDGES)
        res = is_one_tough(petersen)
        assert (res.verdict, res.decided_by) == ("yes", "frontier_dp") and res.nodes > 0
        status, value, _, search_nodes = kernels.scattering_max(petersen)
        assert status == "complete" and value is None and search_nodes > 0

    def test_balanced_bipartite_goes_to_frontier_dp(self):
        prod = cartesian_product(path_graph(4), SPIDER)
        res = is_one_tough(prod)
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
        # cubic and 2-connected on 3000 vertices, with no Hamiltonian cycle
        # (the cycle search says so in 150 nodes): the pair pass alone takes
        # seconds, and it must give way to the budget
        necklace = petersen_necklace(300)
        assert kernels.ham_cycle(necklace)[::2] == ("none", 150)
        start = time.monotonic()
        res = is_one_tough(necklace, deadline=time.monotonic() + 0.3)
        # labelled with the stage the budget kept from running: the
        # necklace's greedy order is 5 wide, so the frontier DP
        assert (res.verdict, res.decided_by, res.nodes) == ("unknown", "frontier_dp", 0)
        assert time.monotonic() - start < 2.0

    def test_large_cubic_graph_decided_without_recursion(self):
        # cubic on 1200 vertices, more than the interpreter's recursion
        # limit, and non-Hamiltonian; the BFS order from vertex 1 walks the
        # ring both ways, with a frontier of a few vertices
        necklace = petersen_necklace(120)
        assert frontier_width(necklace, components(necklace)[0]) == 6
        res = is_one_tough(necklace)
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
            assert (_cut_vertex(g) or _separating_pair(g, None)) == want, g.edges
            pairs += want is not None and len(want) == 2
        assert barriers >= 30 and pairs >= 5

    def test_trivial_cases(self):
        assert is_one_tough(complete_graph(4)).decided_by == "trivial"
        disconnected = Graph.from_edges(4, [(1, 2), (3, 4)])
        assert is_one_tough(disconnected).decided_by == "trivial"

    def test_budget_runs_out_in_search(self):
        # too wide for the DP, and its cycle search stops at the cap too
        assert _narrow_order(WIDE)[1] == 11
        res = is_one_tough(WIDE, max_nodes=50)
        assert (res.verdict, res.decided_by) == ("unknown", "search")
        assert res.nodes == 50

    def test_wide_graph_answered_no_by_search(self):
        assert frontier_width(FIVE_K2, list(FIVE_K2.vertices())) == 12
        assert frontier_width(FIVE_K2, components(FIVE_K2)[0]) == 10
        res = is_one_tough(FIVE_K2)
        assert (res.verdict, res.decided_by, res.nodes) == ("no", "search", 601)
        assert (res.witness.cut, res.witness.components) == (FIVE_K2_CUT, 5)

    def test_long_ring_under_budget_is_unknown(self):
        # width 5, but about 32 states a vertex: 1200 vertices outrun 1500
        res = is_one_tough(petersen_necklace(120), max_nodes=1500)
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
            _, value, _, _ = kernels.scattering_max(g)
            want = "no" if value is not None else "yes"
            assert res.verdict == want, g.edges
            deciders.add(res.decided_by)
            if res.witness is not None:
                comps, _ = removal_stats(g, res.witness.cut)
                assert comps == res.witness.components > len(res.witness.cut)
        # non-Hamiltonian and narrow: the frontier DP decides it
        petersen = Graph.from_edges(10, PETERSEN_EDGES)
        res = is_one_tough(petersen)
        _, value, _, _ = kernels.scattering_max(petersen)
        assert res.verdict == "yes" and value is None
        deciders.add(res.decided_by)
        # too wide for the DP: the branch and bound decides it
        res = is_one_tough(WIDE)
        *_, search_nodes = kernels.scattering_max(WIDE)
        assert res.verdict == "yes" and res.nodes == search_nodes > 0
        deciders.add(res.decided_by)
        assert deciders == {"trivial", "matching_barrier", "small_cut",
                            "hamiltonian_cycle", "frontier_dp", "search"}


class TestCycleStage:
    def test_cycle_yes_agrees_with_frontier_dp(self):
        rng = random.Random(808)
        seen = 0
        for _ in range(150):
            base = random_connected_graph(rng, 3, 7)
            n = rng.randint(2, max(2, 21 // base.order))
            g = cartesian_product(path_graph(n), base)
            res = is_one_tough(g)
            if res.decided_by != "hamiltonian_cycle":
                assert res.cycle is None
                continue
            seen += 1
            assert (res.verdict, res.witness) == ("yes", None)
            assert 0 < res.nodes <= 32 * g.order
            assert verify_cycle(g, HamCycle(1, g.order, res.cycle)), g.edges
            order, width = _narrow_order(g)
            assert width <= 9
            assert frontier_scattering(g, order)[:3] == ("complete", None, None), g.edges
        assert seen >= 40

    def test_prism_and_long_product_decided_by_their_cycles(self):
        # 3000 and 1200 vertices: the search finds the prism's cycle in
        # about one node a vertex (two layers are too few to split), and
        # the splice builds the 120-layer product's
        for g in (cartesian_product(path_graph(2), cycle_graph(1500)),
                  cartesian_product(path_graph(120), complete_bipartite(5, 5))):
            res = is_one_tough(g)
            assert (res.verdict, res.decided_by, res.witness) == ("yes", "hamiltonian_cycle", None)
            assert verify_cycle(g, HamCycle(1, g.order, res.cycle))

    def test_layer_major_product_decided_by_its_splice_cycle(self):
        # 1250 vertices over a 250-vertex tree with a perfect matching; the
        # capped search alone ends "unknown" when the 5 s budget runs out
        tree = factor_tree(random.Random(2), [2] * 125, 0)
        n = max(4, max_degree(tree))
        g = cartesian_product(path_graph(n), tree)
        res = is_one_tough(g, deadline=time.monotonic() + 5)
        assert (res.verdict, res.decided_by, res.nodes) == ("yes", "hamiltonian_cycle", 0)
        assert verify_cycle(g, HamCycle(1, g.order, res.cycle))

    def test_flagship_has_no_cycle_and_stays_frontier_dp(self):
        flagship = cartesian_product(path_graph(4), fixtures().t1)
        res = is_one_tough(flagship)
        assert (res.verdict, res.decided_by, res.nodes, res.cycle) == \
            ("yes", "frontier_dp", 1_740, None)

    def test_max_nodes_caps_the_cycle_search(self):
        # P6 x T1 has a cycle at node 1,174 of the search, under 32 * 48.
        # In layer-major ids the splice answers it at 0 nodes, under any
        # cap; with ids 47 and 48 swapped it is no layer-major product and
        # goes to the search, which meets the same cycle.
        layer_major = cartesian_product(path_graph(6), fixtures().t1)
        res = is_one_tough(layer_major, max_nodes=1173)
        assert (res.verdict, res.decided_by, res.nodes) == ("yes", "hamiltonian_cycle", 0)
        swap = {47: 48, 48: 47}
        g = Graph.from_edges(48, [(swap.get(u, u), swap.get(v, v))
                                  for u, v in layer_major.edges])
        res = is_one_tough(g, max_nodes=1174)
        assert (res.verdict, res.decided_by, res.nodes) == ("yes", "hamiltonian_cycle", 1174)
        res = is_one_tough(g, max_nodes=1173)
        # the DP that runs next then stops at the same cap
        assert (res.verdict, res.decided_by, res.nodes) == ("unknown", "frontier_dp", 1173)
        assert res.cycle is None

    def test_cycle_within_the_stage_cap(self):
        # the search meets this graph's cycle at node 24, within 32 * 18:
        # branches where two vertices need the start's closing edge end at
        # their first node (758 nodes, past the cap, without that rule)
        base = Graph.from_edges(6, [(1, 2), (1, 3), (1, 5), (1, 6), (2, 4), (2, 6),
                                    (3, 4), (4, 5)])
        g = cartesian_product(path_graph(3), base)
        res = is_one_tough(g)
        assert (res.verdict, res.decided_by, res.nodes) == ("yes", "hamiltonian_cycle", 24)

    def test_cycle_past_the_stage_cap_goes_to_the_dp(self):
        # Hamiltonian, but the search meets its cycle at node 1,455, past
        # 32 * 21 = 672; a larger max_nodes does not lift that cap
        base = random_connected_graph(random.Random(610), 4, 8)
        g = cartesian_product(path_graph(3), base)
        assert kernels.ham_cycle(g)[::2] == ("found", 1455)
        for cap in (None, 10**6):
            res = is_one_tough(g, max_nodes=cap)
            assert (res.verdict, res.decided_by, res.nodes) == ("yes", "frontier_dp", 825)

    def test_cycle_stage_cap_and_deadline(self, monkeypatch):
        calls = []
        real = kernels.ham_cycle

        def slow(g, *, max_nodes, deadline):
            calls.append((max_nodes, deadline))
            time.sleep(0.1)
            return real(g, max_nodes=max_nodes, deadline=deadline)

        monkeypatch.setattr(toughness.kernels, "ham_cycle", slow)
        petersen = Graph.from_edges(10, PETERSEN_EDGES)
        assert is_one_tough(petersen).decided_by == "frontier_dp"
        assert is_one_tough(petersen, max_nodes=7).decided_by == "frontier_dp"
        assert calls[0] == (320, None) and calls[1] == (7, None)
        # one deadline for every stage: the cycle stage gets the caller's
        # own, and what it spends, the exact stage does not get
        deadline = time.monotonic() + 0.05
        res = is_one_tough(petersen, deadline=deadline)
        assert (res.verdict, res.decided_by, res.nodes) == ("unknown", "frontier_dp", 0)
        assert calls[2] == (320, deadline)

    def test_forged_cycle_raises(self, monkeypatch):
        monkeypatch.setattr(toughness.kernels, "ham_cycle",
                            lambda g, **_: ("found", tuple(range(1, g.order + 1)), 1))
        with pytest.raises(AssertionError, match="search cycle on 1 layers failed its check"):
            is_one_tough(Graph.from_edges(10, PETERSEN_EDGES))

    def test_a_wrong_split_raises(self, monkeypatch):
        # the ladder's splice cycle is no cycle of the 24-cycle
        monkeypatch.setattr(oracle, "product_split", lambda g: (path_graph(2), 12))
        with pytest.raises(AssertionError, match="splice cycle on 1 layers failed its check"):
            is_one_tough(cycle_graph(24))

    def test_cycle_stage_matches_check(self):
        # the same stage as ``check`` without --n under the same cap: the
        # same cycle, spliced or searched
        graphs = [cartesian_product(path_graph(6), fixtures().t1)]
        rng = random.Random(22)
        for i in range(12):
            base = random_scan_base(rng, 6 + i % 3, i % 3)
            graphs.append(cartesian_product(path_graph((4, 6)[i % 2]), base))
        stages = []
        for g in graphs:
            res = is_one_tough(g)
            oracle_res = find_hamiltonian_cycle(g, max_nodes=32 * g.order)
            assert res.decided_by == "hamiltonian_cycle", g.edges
            assert res.cycle == oracle_res.cycle.seq
            assert res.nodes == oracle_res.nodes
            stages.append(oracle_res.decided_by)
        assert stages[0] == "splice" and stages.count("splice") >= 8


# Run under ``python -O``, which strips ``assert`` statements: every check
# below must still raise.
OPTIMIZED_CHECKS = """
from boxham import kernels, oracle, toughness
from boxham.graphs import Graph, cartesian_product, cycle_graph, path_graph, star_graph
from boxham.cycles import HamCycle
assert False, "assert statements must be stripped"
failed = []

def expect_raise(label, call):
    try:
        call()
    except AssertionError:
        return
    failed.append(label)

petersen = Graph.from_edges(10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 7),
    (3, 8), (4, 9), (5, 10), (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)])
kernels.ham_cycle = lambda g, **_: ("found", tuple(range(1, g.order + 1)), 1)
expect_raise("is_one_tough", lambda: toughness.is_one_tough(petersen))
expect_raise("find_hamiltonian_cycle", lambda: oracle.find_hamiltonian_cycle(petersen))
expect_raise("_judge_instance", lambda: oracle._judge_instance((4, ((1, 2), (2, 3), (3, 4)), 2, None, None)))
oracle.splice_attempt = lambda base, n: HamCycle(n, base.order, tuple(range(1, n * base.order + 1)))
expect_raise("find_product_cycle", lambda: oracle.find_product_cycle(path_graph(4), 8))
ladder = cartesian_product(path_graph(12), path_graph(2))
expect_raise("find_hamiltonian_cycle splice", lambda: oracle.find_hamiltonian_cycle(ladder))
expect_raise("is_one_tough splice", lambda: toughness.is_one_tough(ladder))
kernels.toughness_scan = lambda g: None
expect_raise("toughness_exact", lambda: toughness.toughness_exact(cycle_graph(5)))
expect_raise("_certified_no", lambda: toughness._certified_no(cycle_graph(5), frozenset({1}), "x"))
toughness._recounted = lambda g, cut, what: toughness.CutWitness(cut, 1)
expect_raise("product_cut_from_high_degree",
             lambda: toughness.product_cut_from_high_degree(path_graph(2), star_graph(3)))
print(" ".join(failed) or "all raised")
"""


def test_checks_survive_optimized_mode():
    src = str(Path(toughness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "all raised"


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

    def test_shuffled_flagship_narrows_and_stays_frontier_dp(self):
        flagship = cartesian_product(path_graph(4), fixtures().t1)
        assert frontier_width(flagship, list(flagship.vertices())) == 8
        perm = list(flagship.vertices())
        random.Random(1).shuffle(perm)
        shuffled = Graph.from_edges(32, [(perm[u - 1], perm[v - 1]) for u, v in flagship.edges])
        assert frontier_width(shuffled, list(shuffled.vertices())) == 16
        assert frontier_width(shuffled, components(shuffled)[0]) == 7
        # the greedy order is narrower still
        assert _narrow_order(shuffled)[1] == 5
        res = is_one_tough(shuffled)
        assert (res.verdict, res.decided_by, res.nodes, res.witness) == \
            ("yes", "frontier_dp", 1006, None)

    def test_time_budget_between_vertices(self):
        prism = cartesian_product(path_graph(2), cycle_graph(1500))
        start = time.monotonic()
        status, value, cut, _ = frontier_scattering(prism, components(prism)[0],
                                                    deadline=time.monotonic() + 0.05)
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


class TestVertexOrder:
    def test_narrow_order_is_no_wider_and_keeps_the_value(self):
        rng = random.Random(2468)
        compared = 0
        for i in range(300):
            g = (random_connected_bipartite if i % 2 else random_connected_graph)(rng, 4, 24)
            order, width = _narrow_order(g)
            assert sorted(order) == list(g.vertices()), g.edges
            assert width == frontier_width(g, order)
            identity = list(g.vertices())
            identity_width = frontier_width(g, identity)
            assert width <= min(identity_width, frontier_width(g, components(g)[0])), g.edges
            # the DP along the identity order is the reference wherever it
            # is within the DP's cap
            if identity_width <= 9:
                compared += 1
                assert frontier_scattering(g, order)[1] == \
                    frontier_scattering(g, identity)[1], g.edges
        assert compared >= 200

    def test_greedy_order_is_narrower_than_identity_and_bfs(self):
        flagship = cartesian_product(path_graph(4), fixtures().t1)
        necklace = petersen_necklace(30)
        prism = cartesian_product(path_graph(2), cycle_graph(300))
        for g, width, before in ((flagship, 6, 8), (necklace, 5, 6), (prism, 4, 5)):
            identity = list(g.vertices())
            assert min(frontier_width(g, identity), frontier_width(g, components(g)[0])) == before
            assert _narrow_order(g)[1] == frontier_width(g, toughness._greedy_order(g)) == width

    def test_relabelled_flagships_stay_in_the_dp(self):
        # of the first six relabellings, three are 10-13 wide under the
        # identity and BFS orders, past the DP's cap, and 5-6 wide greedily
        flagship = cartesian_product(path_graph(4), fixtures().t1)
        rng = random.Random(7)
        wide = []
        for _ in range(6):
            perm = list(flagship.vertices())
            rng.shuffle(perm)
            g = Graph.from_edges(32, [(perm[u - 1], perm[v - 1]) for u, v in flagship.edges])
            before = min(frontier_width(g, list(g.vertices())), frontier_width(g, components(g)[0]))
            if before <= 9:
                continue
            res = is_one_tough(g, max_nodes=5000)
            wide.append((before, _narrow_order(g)[1], res.verdict, res.decided_by, res.nodes))
        assert wide == [(10, 5, "yes", "frontier_dp", 1038),
                        (13, 6, "yes", "frontier_dp", 1703),
                        (10, 6, "yes", "frontier_dp", 1744)]

    def test_greedy_order_gives_up_past_the_cap(self, monkeypatch):
        # P4 x a random 2500-vertex tree: the greedy frontier reaches 36,
        # so the capped pass stops early and returns no order
        rng = random.Random(0)
        tree = Graph.from_edges(2500, [(rng.randint(1, v - 1), v) for v in range(2, 2501)])
        g = cartesian_product(path_graph(4), tree)
        assert toughness._greedy_order(g) is None
        monkeypatch.setattr(toughness, "_FRONTIER_MAX_WIDTH", g.order)
        assert frontier_width(g, toughness._greedy_order(g)) == 36


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
        with pytest.raises(PreconditionFailedError, match="has a path factor"):
            product_cut_from_bipartite(2, path_graph(4))

    def test_disconnected_base_gives_the_empty_cut(self):
        # P3 x 2K2 falls apart into two ladders with nothing removed
        w = product_cut_from_bipartite(3, Graph(4, ((1, 2), (3, 4))))
        assert w.cut == frozenset() and w.components == 2

    def test_one_vertex_base_rejected(self):
        with pytest.raises(PreconditionFailedError, match="at least 2 vertices"):
            product_cut_from_bipartite(2, Graph(1))

    def test_all_no_factor_bases_up_to_7(self):
        for h in connected_bipartite_up_to_iso(7):
            if find_p23_factor(h) is not None:
                continue
            for n in (1, 2, 3, 4):
                w = product_cut_from_bipartite(n, h)
                prod = cartesian_product(path_graph(n), h)
                comps, _ = removal_stats(prod, w.cut)
                assert comps == w.components > len(w.cut)

    def test_cut_matches_the_product_two_colouring(self):
        # the sides read off h's bipartition are the ones a 2-colouring of
        # the product finds, so the cut is the one built on bipartition(product)
        for h in connected_bipartite_up_to_iso(7):
            if find_p23_factor(h) is not None:
                continue
            cert = one_sided_obstruction(h, bipartition(h))
            s_layer1 = {product_id(1, v, h.order) for v in cert.witness}
            i_layer1 = {product_id(1, v, h.order) for v in h.vertices()
                        if v not in cert.witness and set(h.neighbors(v)) <= cert.witness}
            for n in (1, 2, 3, 4, 5):
                side_a, side_b = bipartition(cartesian_product(path_graph(n), h))
                if len(side_a) == len(side_b):
                    x = side_b if s_layer1 <= side_a else side_a
                    expected = (x | s_layer1) - i_layer1
                else:
                    expected = min(side_a, side_b, key=len)
                assert product_cut_from_bipartite(n, h).cut == expected

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

    def test_disconnected_first_factor_rejected(self):
        # K1,3's degree 3 exceeds the order 2, but 2K1 is no connected graph
        with pytest.raises(PreconditionFailedError, match="must be connected"):
            product_cut_from_high_degree(Graph(2), star_graph(3))

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
