import random

import pytest

from boxham.errors import HasPathFactorError
from boxham.factors import (
    FactorCertificate,
    _factor_from_picks,
    _matching_search,
    _pick_map,
    MatchingBarrier,
    PathFactor,
    factor_obstruction,
    find_p23_factor,
    find_perfect_matching,
    one_sided_obstruction,
    perfect_matching_or_barrier,
    sufficient_conditions,
    validate_path_factor,
)
from boxham.graphs import (
    Graph,
    bipartition,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from boxham.oracle import enumerate_trees
from helpers import (
    PETERSEN_EDGES,
    caterpillar,
    factor_tree,
    random_connected_graph,
    reference_factor_from_picks,
    reference_matching_search,
    removal_stats,
)

T1 = Graph.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 7), (4, 8)])

# two stars with 3 leaves each, centers adjacent
DOUBLE_STAR = Graph.from_edges(8, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8)])


def matching_tree(pairs: int, rng: random.Random) -> Graph:
    """Randomly labelled tree with a perfect matching: matched pairs
    joined by random edges between them."""
    edges = [(2 * i + 1, 2 * i + 2) for i in range(pairs)]
    for i in range(1, pairs):
        j = rng.randrange(i)
        edges.append((2 * i + rng.randint(1, 2), 2 * j + rng.randint(1, 2)))
    label = list(range(1, 2 * pairs + 1))
    rng.shuffle(label)
    return Graph.from_edges(2 * pairs, [(label[u - 1], label[v - 1]) for u, v in edges])


class TestPerfectMatching:
    def test_p4(self):
        assert find_perfect_matching(path_graph(4)).components == ((1, 2), (3, 4))

    def test_odd_order(self):
        assert find_perfect_matching(path_graph(3)) is None

    def test_k4_first_branch(self):
        assert find_perfect_matching(complete_graph(4)).components == ((1, 2), (3, 4))

    def test_star_has_none(self):
        assert find_perfect_matching(star_graph(3)) is None
        barrier = perfect_matching_or_barrier(star_graph(3))
        # a FactorCertificate with the same fields would compare equal too
        assert isinstance(barrier, MatchingBarrier)
        assert barrier == MatchingBarrier(frozenset({1}), 3)

    def test_every_result_validates(self):
        rng = random.Random(5)
        for _ in range(80):
            g = random_connected_graph(rng, 2, 10)
            m = find_perfect_matching(g)
            if m is not None:
                assert m.is_perfect_matching
                assert validate_path_factor(g, m)

    def test_large_orders(self):
        # the greedy pass covers the path; the shuffled tree needs augmenting
        for g in (path_graph(4000), matching_tree(1200, random.Random(11))):
            m = find_perfect_matching(g)
            assert m is not None and m.is_perfect_matching
            assert validate_path_factor(g, m)

    def test_same_search_as_fresh_arrays_per_root(self):
        # the tree arrays are shared across roots and reset by each search;
        # the matchings and barriers are those of fresh arrays per root
        rng = random.Random(43)
        barriers = 0
        for _ in range(400):
            n = rng.randint(2, 40)
            edges = {tuple(sorted(rng.sample(range(1, n + 1), 2)))
                     for _ in range(rng.randint(n // 2, 2 * n))}
            g = Graph.from_edges(n, edges)
            got = _matching_search(g)
            assert got == reference_matching_search(g), g.edges
            barriers += got[1] is not None
        assert barriers >= 100
        g = matching_tree(10_000, random.Random(12))
        got = _matching_search(g)
        assert got[1] is None and got == reference_matching_search(g)

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(41)
        found = 0
        # sparse random graphs: their odd cycles force blossom contractions
        for _ in range(300):
            n = rng.randint(2, 80)
            edges = {tuple(sorted(rng.sample(range(1, n + 1), 2)))
                     for _ in range(rng.randint(n // 2, 2 * n))}
            g = Graph.from_edges(n, edges)
            ref = nx.Graph(edges)
            ref.add_nodes_from(g.vertices())
            perfect = 2 * len(nx.max_weight_matching(ref, maxcardinality=True)) == n
            m = find_perfect_matching(g)
            assert (m is not None) == perfect, g.edges
            if m is not None:
                assert validate_path_factor(g, m)
                found += 1
            barrier = perfect_matching_or_barrier(g)
            assert (barrier == m) if perfect else isinstance(barrier, MatchingBarrier)
            if not perfect:
                ref.remove_nodes_from(barrier.witness)
                odd = sum(len(c) % 2 for c in nx.connected_components(ref))
                assert odd == barrier.odd_components > len(barrier.witness), g.edges
        assert found >= 10

    def test_barrier_of_a_long_odd_path(self):
        # the failed tree grows along the whole path: every even vertex is odd in it
        found = perfect_matching_or_barrier(path_graph(2001))
        assert found.witness == frozenset(range(2, 2001, 2))
        assert found.odd_components == 1001


class TestP23Factor:
    def test_star_none(self):
        assert find_p23_factor(star_graph(3)) is None

    def test_t1_value(self):
        expected = ((1, 2, 6), (3, 7), (5, 4, 8))
        assert find_p23_factor(T1).components == expected
        for a, b in [(1, 2), (2, 6), (3, 7), (4, 5), (4, 8)]:
            assert T1.has_edge(a, b)

    def test_p2(self):
        assert find_p23_factor(path_graph(2)).components == ((1, 2),)

    def test_search_prefers_pairs(self):
        # on a 4-path both (12)(34) and (1,2,3)+nothing exist; pairs win
        assert find_p23_factor(path_graph(4)).components == ((1, 2), (3, 4))

    def test_trees_certified_dichotomy(self):
        for t in enumerate_trees(10):
            factor = find_p23_factor(t)
            cert = factor_obstruction(t)
            assert (factor is None) != (cert is None), t.edges
            if factor is not None:
                assert validate_path_factor(t, factor)
            else:
                _, iso = removal_stats(t, cert.witness)
                assert iso == cert.isolated_count > 2 * len(cert.witness)

    def test_read_off_skips_finished_vertices(self):
        # the read-off starts a cycle only at a vertex not yet done; the
        # reference starts one at every vertex and gives the same factor
        rng = random.Random(29)
        checked = 0
        bases = [random_connected_graph(rng, 2, 30) for _ in range(300)]
        bases += [factor_tree(rng, [rng.choice((2, 3)) for _ in range(rng.randint(3, 60))],
                              rng.randint(0, 5)) for _ in range(100)]
        for g in bases:
            pick, stuck = _pick_map(g)
            if stuck is None:
                got = _factor_from_picks(g, pick)
                assert got == reference_factor_from_picks(g, pick), g.edges
                assert validate_path_factor(g, got)
                checked += 1
        assert checked >= 200

    def test_greedy_trap_tree(self):
        # hub with three legs of length 3; a naive leaf-greedy pass fails it
        edges = [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8), (6, 9), (7, 10)]
        g = Graph.from_edges(10, edges)
        factor = find_p23_factor(g)
        assert factor is not None and validate_path_factor(g, factor)


class TestValidator:
    def test_rejects_non_edge(self):
        assert not validate_path_factor(path_graph(4), PathFactor(((1, 3), (2, 4))))

    def test_rejects_partial_cover(self):
        assert not validate_path_factor(path_graph(4), PathFactor(((1, 2),)))

    def test_rejects_overlap(self):
        g = complete_graph(4)
        assert not validate_path_factor(g, PathFactor(((1, 2), (2, 3), (3, 4))))


class TestObstruction:
    def test_star3(self):
        cert = factor_obstruction(star_graph(3))
        assert cert.witness == {1} and cert.isolated_count == 3

    def test_star5(self):
        cert = factor_obstruction(star_graph(5))
        assert cert.witness == {1} and cert.isolated_count == 5

    def test_p4_none(self):
        assert factor_obstruction(path_graph(4)) is None

    def test_no_order_cap_with_factor(self):
        assert factor_obstruction(path_graph(30)) is None

    def test_no_order_cap_witness(self):
        g = caterpillar(6, 4)
        assert g.order == 30
        cert = factor_obstruction(g)
        _, iso = removal_stats(g, cert.witness)
        assert iso == cert.isolated_count > 2 * len(cert.witness)

    def test_dichotomy_small(self):
        rng = random.Random(23)
        graphs = [random_connected_graph(rng, 2, 12) for _ in range(120)]
        graphs += list(enumerate_trees(8))
        for g in graphs:
            factor = find_p23_factor(g)
            cert = factor_obstruction(g)
            assert (factor is None) != (cert is None)
            if factor is not None:
                assert validate_path_factor(g, factor)
            else:
                comps, iso = removal_stats(g, cert.witness)
                assert iso == cert.isolated_count
                assert iso > 2 * len(cert.witness)

    def test_witness_is_minimum_and_lex_least(self):
        # two stars joined by an edge between their centers, no factor;
        # both centers violate alone, and the search stalls at center 1
        cert = factor_obstruction(DOUBLE_STAR)
        assert cert.witness == {1}


class TestOneSided:
    def test_star3_single_side(self):
        g = star_graph(3)
        cert = one_sided_obstruction(g, bipartition(g))
        assert cert.witness == {1} and cert.isolated_count == 3

    def test_double_star(self):
        bip = bipartition(DOUBLE_STAR)
        cert = one_sided_obstruction(DOUBLE_STAR, bip)
        assert cert.witness <= bip.side_a or cert.witness <= bip.side_b
        _, iso = removal_stats(DOUBLE_STAR, cert.witness)
        assert iso == cert.isolated_count > 2 * len(cert.witness)

    def test_has_factor_error(self):
        with pytest.raises(HasPathFactorError):
            one_sided_obstruction(path_graph(4), bipartition(path_graph(4)))

    def test_all_no_factor_bipartite_up_to_7(self):
        from helpers import connected_bipartite_up_to_iso
        for g in connected_bipartite_up_to_iso(7):
            if find_p23_factor(g) is not None:
                continue
            bip = bipartition(g)
            cert = one_sided_obstruction(g, bip)
            assert cert.witness <= bip.side_a or cert.witness <= bip.side_b
            _, iso = removal_stats(g, cert.witness)
            assert iso > 2 * len(cert.witness)


class TestSufficientConditions:
    def test_k4_all_true(self):
        rep = sufficient_conditions(complete_graph(4))
        assert rep.delta_third and rep.dirac_type and rep.cubic_bridgeless

    def test_star_all_false(self):
        rep = sufficient_conditions(star_graph(3))
        assert not (rep.delta_third or rep.dirac_type or rep.cubic_bridgeless)

    def test_c6(self):
        rep = sufficient_conditions(cycle_graph(6))
        assert rep.delta_third and rep.dirac_type and not rep.cubic_bridgeless

    def test_k33_cubic(self):
        rep = sufficient_conditions(complete_bipartite(3, 3))
        assert rep.cubic_bridgeless

    def test_cubic_bridgeless(self):
        def has_bridge(g):
            # delete each edge in turn and see whether its ends still meet
            for e in g.edges:
                seen, stack = {e[0]}, [e[0]]
                while stack:
                    u = stack.pop()
                    for w in g.neighbors(u):
                        if {u, w} != set(e) and w not in seen:
                            seen.add(w)
                            stack.append(w)
                if e[1] not in seen:
                    return True
            return False

        # K4 with the edge (1, 2) subdivided by vertex 5, twice, the two
        # subdivision vertices joined by a bridge
        half = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5), (2, 5)]
        bridged = Graph.from_edges(10, half + [(u + 5, v + 5) for u, v in half] + [(5, 10)])
        prism = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                                     (1, 4), (2, 5), (3, 6)])
        cases = [(Graph.from_edges(10, PETERSEN_EDGES), True), (complete_graph(4), True),
                 (complete_bipartite(3, 3), True), (prism, True), (bridged, False)]
        for g, bridgeless in cases:
            assert {g.degree(v) for v in g.vertices()} == {3}
            assert has_bridge(g) is not bridgeless
            assert sufficient_conditions(g).cubic_bridgeless is bridgeless

    def test_flags_imply_factors(self):
        rng = random.Random(31)
        seen_delta = seen_cubic = 0
        cubes = [complete_bipartite(3, 3), complete_graph(4),
                 # 3-cube
                 Graph.from_edges(8, [(1, 2), (1, 3), (2, 4), (3, 4),
                                      (5, 6), (5, 7), (6, 8), (7, 8),
                                      (1, 5), (2, 6), (3, 7), (4, 8)]),
                 # Petersen
                 Graph.from_edges(10, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                                       (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
                                       (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)])]
        for g in cubes + [random_connected_graph(rng, 2, 12) for _ in range(60)]:
            rep = sufficient_conditions(g)  # raises internally if an implication fails
            if rep.delta_third:
                seen_delta += 1
                assert find_p23_factor(g) is not None
            if rep.cubic_bridgeless:
                seen_cubic += 1
                assert find_perfect_matching(g) is not None
        assert seen_delta >= 1 and seen_cubic >= 3
