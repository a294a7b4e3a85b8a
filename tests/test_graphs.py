import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxham.errors import (
    CyclicSeedError,
    DisconnectedError,
    MalformedGraphError,
    NotBipartiteError,
    NotSubgraphError,
)
from boxham.graphs import (
    Graph,
    bipartition,
    cartesian_product,
    complete_graph,
    components,
    cycle_graph,
    degree_stats,
    format_graph,
    is_connected,
    is_tree,
    parse_graph,
    path_graph,
    product_id,
    product_label,
    product_split,
    spanning_tree_containing,
    split_counts,
    star_graph,
    to_dot,
)
from boxham.kernels import count_components_after
from helpers import isomorphic, random_connected_graph

T1_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (3, 7), (4, 8)]


@st.composite
def graphs_strategy(draw, max_order=8):
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, chosen)


class TestGraphBasics:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 3)])

    def test_dedupes_reversed(self):
        g = Graph.from_edges(3, [(2, 1), (1, 2), (2, 3)])
        assert g.edges == ((1, 2), (2, 3))

    def test_neighbors_ascending(self):
        g = Graph.from_edges(5, [(3, 5), (1, 3), (2, 3), (3, 4)])
        assert g.neighbors(3) == (1, 2, 4, 5)

    def test_neighbors_ascending_on_random_graphs(self):
        # the adjacency is filled in edge order and never sorted
        rng = random.Random(17)
        for _ in range(200):
            g = random_connected_graph(rng, 1, 40)
            for v in g.vertices():
                nbrs = g.neighbors(v)
                assert list(nbrs) == sorted(nbrs) and len(set(nbrs)) == len(nbrs)
                assert set(nbrs) == {w for e in g.edges if v in e for w in e if w != v}

    def test_immutable(self):
        g = path_graph(3)
        for name in ("order", "edges", "size", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 4)
        with pytest.raises(AttributeError):
            del g.order
        assert g.order == 3 and g.edges == ((1, 2), (2, 3))

    def test_equal_by_order_and_edges(self):
        g, h = path_graph(4), Graph(4, ((1, 2), (2, 3), (3, 4)))
        g.neighbors(2)  # a cached adjacency on one side only changes nothing
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert g != Graph(5, g.edges) and g != Graph(4, g.edges[:2])
        assert g != (4, g.edges) and (4, g.edges) != g
        assert repr(h) == "Graph(order=4, edges=((1, 2), (2, 3), (3, 4)))"


class TestProduct:
    def test_smallest_product_is_square(self):
        g = cartesian_product(path_graph(2), path_graph(2))
        assert g.order == 4 and g.size == 4
        assert is_connected(g) and not is_tree(g)

    def test_p10_p3_counts(self):
        g = cartesian_product(path_graph(10), path_graph(3))
        assert (g.order, g.size) == (30, 47)

    def test_p4_t1_counts(self):
        t1 = Graph.from_edges(8, T1_EDGES)
        g = cartesian_product(path_graph(4), t1)
        assert (g.order, g.size) == (32, 52)

    def test_label_encoding_roundtrip(self):
        for layer in range(1, 5):
            for base in range(1, 4):
                pid = product_id(layer, base, 3)
                assert product_label(pid, 3) == (layer, base)
        assert sorted(product_id(i, v, 3) for i in range(1, 5)
                      for v in range(1, 4)) == list(range(1, 13))

    @given(graphs_strategy(max_order=4), graphs_strategy(max_order=3))
    @settings(max_examples=60, deadline=None)
    def test_edge_count_formula(self, g1, h):
        prod = cartesian_product(g1, h)
        assert prod.size == g1.order * h.size + h.order * g1.size

    def test_product_symmetry_small(self):
        cases = [
            (path_graph(2), path_graph(3)),
            (path_graph(3), star_graph(2)),
            (cycle_graph(3), path_graph(2)),
            (path_graph(5), path_graph(2)),
            (star_graph(3), path_graph(2)),
        ]
        for g1, h in cases:
            a = cartesian_product(g1, h)
            b = cartesian_product(h, g1)
            assert a.order == b.order and a.size == b.size
            assert sorted(a.degree(v) for v in a.vertices()) == \
                   sorted(b.degree(v) for v in b.vertices())
            if a.order <= 10:
                assert isomorphic(a, b)


def splits_by_definition(g):
    """Reference for ``product_split``: every (H, n) with |H| >= 2 and
    n >= 4 layers whose product is g, found by rebuilding the product at
    each base order k that divides the order of g."""
    out = []
    for k in range(2, g.order // 4 + 1):
        if g.order % k == 0:
            h = Graph.from_edges(k, [e for e in g.edges if e[1] <= k])
            if cartesian_product(path_graph(g.order // k), h) == g:
                out.append((h, g.order // k))
    return out


class TestProductSplit:
    def test_round_trips_with_the_product(self):
        # A split at base order k needs every edge (v, v + k); one at a
        # larger k' keeps each other edge inside a block of k' ids, which
        # (k', k' + k) leaves.  So a graph has at most one split, and the
        # most layers are the only ones.
        rng = random.Random(20)
        for _ in range(40):
            h = random_connected_graph(rng, 2, 8)
            for n in range(1, 9):
                g = cartesian_product(path_graph(n), h)
                splits = splits_by_definition(g)
                assert len(splits) <= 1, (h.edges, n)
                got = product_split(g)
                assert got == (splits[0] if splits else (g, 1)), (h.edges, n)
                if n >= 4:
                    assert got == (h, n), (h.edges, n)

    def test_a_graph_off_the_product_stays_whole(self):
        g = cartesian_product(path_graph(5), Graph.from_edges(8, T1_EDGES))
        rng = random.Random(21)
        missing = [(u, v) for u in g.vertices() for v in range(u + 1, g.order + 1)
                   if not g.has_edge(u, v)]
        changed = [Graph.from_edges(g.order, [f for f in g.edges if f != e])
                   for e in g.edges]
        changed += [Graph.from_edges(g.order, g.edges + (e,))
                    for e in rng.sample(missing, 40)]
        for _ in range(20):
            labels = list(g.vertices())
            rng.shuffle(labels)
            changed.append(Graph.from_edges(
                g.order, [(labels[u - 1], labels[v - 1]) for u, v in g.edges]))
        changed.append(path_graph(40))
        for other in changed:
            assert product_split(other) == (other, 1), other.edges


class TestPredicates:
    def test_connected(self):
        assert is_connected(path_graph(3))
        assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))
        assert is_connected(Graph.from_edges(8, T1_EDGES))

    def test_degree_stats(self):
        t1 = Graph.from_edges(8, T1_EDGES)
        stats = degree_stats(t1)
        assert (stats.maximum, stats.minimum) == (3, 1)
        assert stats.degrees[2] == 3 and stats.degrees[5] == 1
        assert degree_stats(complete_graph(4))[:2] == (3, 3)
        assert degree_stats(path_graph(2))[:2] == (1, 1)

    def test_bipartition_sides(self):
        bip = bipartition(cycle_graph(4))
        assert {len(bip.side_a), len(bip.side_b)} == {2}
        with pytest.raises(NotBipartiteError):
            bipartition(cycle_graph(5))

    def test_bipartition_product_sides(self):
        t1 = Graph.from_edges(8, T1_EDGES)
        prod = cartesian_product(path_graph(4), t1)
        bip = bipartition(prod)
        assert len(bip.side_a) == len(bip.side_b) == 16
        assert 1 in bip.side_a

    @given(graphs_strategy())
    @settings(max_examples=80, deadline=None)
    def test_bipartition_colors_every_edge(self, g):
        try:
            bip = bipartition(g)
        except NotBipartiteError:
            return
        for u, v in g.edges:
            assert (u in bip.side_a) != (v in bip.side_a)

    def test_components_agree_with_kernel_count(self):
        rng = random.Random(26)
        for trial in range(150):
            n = rng.randint(1, 14)
            p = rng.random() * (0.5 if trial % 2 else 0.15)  # odd trials mostly connected
            g = Graph.from_edges(n, [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)
                                     if rng.random() < p])
            for removed in (frozenset(), frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))):
                parts = components(g, removed)
                assert len(parts) == count_components_after(g, removed)
                kept = [v for v in g.vertices() if v not in removed]
                assert sorted(v for part in parts for v in part) == kept
                assert all(part[0] == min(part) for part in parts)
                assert [part[0] for part in parts] == sorted(part[0] for part in parts)
            assert is_connected(g) == (len(components(g)) == 1)
        assert components(Graph.from_edges(5, [(1, 4), (2, 3), (4, 5)])) == [[1, 4, 5], [2, 3]]
        assert components(cycle_graph(6), {1, 4}) == [[2, 3], [5, 6]]

    def test_split_counts(self):
        assert split_counts(star_graph(3)) == [0, 3, 1, 1, 1]
        # without the centre the leaves stand alone: nothing left to split
        assert split_counts(star_graph(3), 1) == [0, 0, 0, 0, 0]
        assert split_counts(cycle_graph(4), 1) == [0, 0, 1, 2, 1]


class TestSpanningTree:
    def test_square_completion(self):
        tree = spanning_tree_containing(cycle_graph(4), [(1, 2), (3, 4)])
        assert tree.edges == ((1, 2), (2, 3), (3, 4))

    def test_k4_completion(self):
        tree = spanning_tree_containing(complete_graph(4), [(1, 2), (3, 4)])
        assert tree.edges == ((1, 2), (1, 3), (3, 4))

    def test_tree_is_fixed_point(self):
        t1 = Graph.from_edges(8, T1_EDGES)
        assert spanning_tree_containing(t1, t1.edges) == t1

    def test_errors(self):
        with pytest.raises(CyclicSeedError):
            spanning_tree_containing(complete_graph(4), [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(NotSubgraphError):
            spanning_tree_containing(path_graph(4), [(1, 4)])
        with pytest.raises(DisconnectedError):
            spanning_tree_containing(Graph.from_edges(4, [(1, 2), (3, 4)]), [(1, 2)])

    def test_random_instances_contain_seed(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_connected_graph(rng, 3, 9)
            seed_tree = spanning_tree_containing(g, [])
            seed = [e for i, e in enumerate(seed_tree.edges) if i % 2 == 0]
            tree = spanning_tree_containing(g, seed)
            assert is_tree(tree)
            assert set(seed) <= set(tree.edges) <= set(g.edges)


class TestTextFormats:
    def test_parse_p2(self):
        assert parse_graph("2 1\n1 2\n") == path_graph(2)

    def test_parse_t1(self):
        text = "8 7\n1 2\n2 3\n3 4\n4 5\n2 6\n3 7\n4 8\n"
        assert parse_graph(text) == Graph.from_edges(8, T1_EDGES)

    def test_parse_fig4(self):
        text = "6 5\n1 2\n2 3\n3 4\n2 5\n3 6\n"
        g = parse_graph(text)
        assert g.order == 6 and g.size == 5
        assert degree_stats(g).degrees[2] == 3

    @pytest.mark.parametrize("bad", [
        "",
        "x y\n",
        "2\n",
        "2 2\n1 2\n",
        "2 1\n1 2\n2 1\n",
        "2 1\n1 1\n",
        "2 1\n1 3\n",
        "2 1\n1 2 3\n",
        "3 2\n1 2\n2 1\n",
        "2 1\n0 1\n",
    ])
    def test_malformed(self, bad):
        with pytest.raises(MalformedGraphError):
            parse_graph(bad)

    @given(graphs_strategy())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, g):
        assert parse_graph(format_graph(g)) == g

    def test_parse_matches_from_edges(self):
        # edge lines in random order, each pair in a random orientation
        rng = random.Random(194)
        for _ in range(200):
            order = rng.randint(1, 12)
            pairs = [(u, v) for u in range(1, order) for v in range(u + 1, order + 1)]
            edges = [(v, u) if rng.random() < 0.5 else (u, v)
                     for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
            text = f"{order} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
            g = parse_graph(text)
            assert g == Graph.from_edges(order, edges)
            stats = degree_stats(g)
            degrees = {v: sum(v in e for e in edges) for v in g.vertices()}
            assert stats == (max(degrees.values()), min(degrees.values()), degrees)

    def test_dot_labels_and_bold(self):
        prod = cartesian_product(path_graph(2), path_graph(2))
        dot = to_dot(prod, layers=2, bold=[(1, 2)])
        assert '"1_1" -- "1_2" [style=bold];' in dot
        assert '"2_1" -- "2_2";' in dot
        plain = to_dot(path_graph(2))
        assert '"1" -- "2";' in plain


class TestIsomorphic:
    def test_relabeled_tree(self):
        a = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        b = Graph.from_edges(5, [(5, 4), (4, 1), (1, 2), (1, 3)])
        assert isomorphic(a, b)

    def test_distinguishes_path_star(self):
        assert not isomorphic(path_graph(4), star_graph(3))
