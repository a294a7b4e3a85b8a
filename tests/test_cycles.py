import hashlib
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from boxham import cycles, kernels
from boxham.cycles import (
    HamCycle,
    assign_roles,
    build_cycle,
    build_cycle_matching,
    build_cycle_path_factor,
    component_peel_order,
    format_cycle,
    parse_cycle,
    path_factor_min_layers,
    splice_attempt,
    used_column_indices,
    verify_column_contract,
    verify_cycle,
    verify_product_cycle,
)
from boxham.errors import (
    DisconnectedError,
    LayerBoundError,
    NoFactorError,
    PreconditionFailedError,
)
from boxham.factors import PathFactor, find_p23_factor, find_perfect_matching
from boxham.graphs import (
    Graph,
    canon_edge,
    cartesian_product,
    complete_graph,
    cycle_graph,
    max_degree,
    path_graph,
    spanning_tree_containing,
    star_graph,
)
from boxham.oracle import enumerate_trees, fixtures
from helpers import (
    cycle_labels,
    factor_tree,
    forged_assembly,
    pattern_overlap_counts,
    random_connected_graph,
    reference_column_template,
    reference_format_cycle,
    reference_verify_product_cycle,
    vertical_step_counts,
)

T1 = fixtures().t1


def product_over(n, base):
    return cartesian_product(path_graph(n), base)


def component_sizes_after(g, removed):
    """Orders of the components of g - removed, by breadth-first search."""
    seen = set(removed)
    sizes = []
    for root in g.vertices():
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        size = 0
        while queue:
            size += 1
            for w in g.neighbors(queue.popleft()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        sizes.append(size)
    return sizes


def labeled_edges(cycle):
    labels = cycle_labels(cycle)
    return {frozenset((a, b)) for a, b in zip(labels, labels[1:] + labels[:1])}


def column_cycle(n, size):
    """The two- or three-column cycle on n layers: the builder's on
    path_graph(size), or below the path-factor bound (a triple at n = 4)
    the unchecked splice attempt's, checked here."""
    base = path_graph(size)
    if size == 3 and n < path_factor_min_layers(2):
        cycle = splice_attempt(base, n)
        assert verify_product_cycle(base, n, cycle)
        return cycle
    return build_cycle(n, base).cycle


def reference_column_cycle_edges(n, size):
    """The edge set of the column cycle on path_graph(size), linked edge by
    edge by the reference template."""
    roles = assign_roles(PathFactor((tuple(range(1, size + 1)),))).values()
    patterns = {role: tuple(sorted(used_column_indices(role, n))) for role in roles}
    rows = reference_column_template(n, size, size, patterns)
    return {canon_edge(o + pos + 1, c + pc + 1)
            for o, pos, a, pa, b, pb in rows for c, pc in ((a, pa), (b, pb))}


class TestColumnIndexSets:
    def test_subsets_of_all(self):
        for n in (4, 6, 10):
            full = used_column_indices("pair", n)
            assert full == frozenset(range(1, n))
            for role in ("left", "mid", "right"):
                assert used_column_indices(role, n) <= full

    def test_overlaps_examples(self):
        assert pattern_overlap_counts(10) == (5, 2, 2)
        assert pattern_overlap_counts(4) == (2, 1, 0)
        assert pattern_overlap_counts(6) == (3, 1, 1)

    def test_overlap_chain_and_closed_form(self):
        for n in range(4, 201, 2):
            lr, rc, lc = pattern_overlap_counts(n)
            assert lr >= rc >= lc
            assert lc == -((4 - n) // 4)  # ceil((n-4)/4)

    def test_rejects_odd(self):
        with pytest.raises(LayerBoundError, match="even layer counts"):
            pattern_overlap_counts(5)

    def test_rejects_short(self):
        with pytest.raises(LayerBoundError) as exc:
            pattern_overlap_counts(2)
        assert exc.value.minimum_layers == 4


class TestColumnPatterns:
    @pytest.mark.parametrize("size, n", [(2, n) for n in range(2, 13)]
                             + [(3, n) for n in range(4, 13, 2)])
    def test_vertical_steps_follow_the_role_patterns(self, size, n):
        c = column_cycle(n, size)
        assert verify_product_cycle(path_graph(size), n, c)
        edges = labeled_edges(c)
        roles = assign_roles(PathFactor((tuple(range(1, size + 1)),)))
        for col, role in roles.items():
            used = {i for i in range(1, n)
                    if frozenset(((i, col), (i + 1, col))) in edges}
            assert used == used_column_indices(role, n)


class TestTwoColumnCycle:
    def test_n2(self):
        c = column_cycle(2, 2)
        assert cycle_labels(c) == ((1, 1), (1, 2), (2, 2), (2, 1))
        assert verify_cycle(product_over(2, path_graph(2)), c)

    def test_n3_sequence(self):
        c = column_cycle(3, 2)
        # the ring: up one column, across, back down the other
        assert cycle_labels(c) == ((1, 1), (1, 2), (2, 2), (3, 2), (3, 1), (2, 1))

    def test_n5_contains_all_column_edges(self):
        c = column_cycle(5, 2)
        assert verify_cycle(product_over(5, path_graph(2)), c)
        edges = labeled_edges(c)
        for col in (1, 2):
            for i in range(1, 5):
                assert frozenset(((i, col), (i + 1, col))) in edges


class TestThreeColumnCycle:
    def test_n4_sequence(self):
        c = column_cycle(4, 3)
        want = [(1, 1), (1, 2), (1, 3), (2, 3), (3, 3), (4, 3),
                (4, 2), (4, 1), (3, 1), (3, 2), (2, 2), (2, 1)]
        assert list(cycle_labels(c)) == want
        assert verify_cycle(product_over(4, path_graph(3)), c)

    def test_n6_vertical_counts(self):
        c = column_cycle(6, 3)
        edges = labeled_edges(c)
        counts = []
        for col in (1, 2, 3):
            counts.append(sum(1 for i in range(1, 6)
                              if frozenset(((i, col), (i + 1, col))) in edges))
        assert counts == [4, 2, 4]


class TestColumnTemplate:
    @staticmethod
    def neighbours(template):
        """(id offset, position) -> its two neighbours, as a sorted pair."""
        return {(o, pos): tuple(sorted([(a, pa), (b, pb)]))
                for o, pos, a, pa, b, pb in template}

    def test_matches_the_reference(self):
        # n = 1 is the pair's doubled edge; a triple needs an even n >= 4
        for size, layer_counts in ((2, range(1, 41)), (3, range(4, 41, 2))):
            for n in layer_counts:
                for k in (1, 7, 1000):
                    plan = cycles._layer_plan(n, k, {size})
                    template = plan.columns[size]
                    reference = reference_column_template(n, k, size, plan.patterns)
                    assert len(template) == n * size, (size, n, k)
                    assert [t[:2] for t in template] == [t[:2] for t in reference]
                    assert self.neighbours(template) == self.neighbours(reference)
                    # the splice takes the first usable index of a pattern
                    assert plan.patterns == {role: tuple(sorted(used_column_indices(role, n)))
                                             for role in plan.patterns}

    def test_a_triple_at_odd_n_leaves_a_vertex_short(self):
        for n in (1, 3, 5, 7, 9):
            patterns = {role: tuple(sorted(used_column_indices(role, n)))
                        for role in ("left", "mid", "right")}
            for template in (cycles._column_template, reference_column_template):
                with pytest.raises(AssertionError, match="without two neighbours"):
                    template(n, 5, 3, patterns)


class TestRolesAndPeel:
    def test_pair_roles(self):
        ra = assign_roles(PathFactor(((1, 2),)))
        assert ra == {1: "pair", 2: "pair"}

    def test_triple_roles_smaller_end_left(self):
        ra = assign_roles(PathFactor(((5, 4, 8),)))
        assert ra == {5: "left", 4: "mid", 8: "right"}

    def test_t1_roles(self):
        ra = assign_roles(find_p23_factor(T1))
        want = {1: "left", 2: "mid", 6: "right", 3: "pair", 7: "pair",
                5: "left", 4: "mid", 8: "right"}
        assert ra == want

    def test_peel_p4(self):
        order = component_peel_order(path_graph(4), PathFactor(((1, 2), (3, 4))))
        assert order.components == ((1, 2), (3, 4))
        assert order.links == ((2, 3), None)

    def test_peel_t1_is_path_of_components(self):
        factor = find_p23_factor(T1)
        order = component_peel_order(T1, factor)
        assert order.components == ((1, 2, 6), (3, 7), (5, 4, 8))
        # each link leaves its component for one peeled later
        assert order.links == ((2, 3), (3, 4), None)
        # every prefix removal keeps the remainder of the tree connected
        from boxham.graphs import is_connected
        removed = set()
        for comp in order.components[:-1]:
            removed |= set(comp)
            rest = [v for v in T1.vertices() if v not in removed]
            relabel = {v: i + 1 for i, v in enumerate(rest)}
            sub = Graph.from_edges(len(rest), [(relabel[u], relabel[v])
                                               for u, v in T1.edges
                                               if u in relabel and v in relabel])
            assert is_connected(sub)

    def test_single_component(self):
        order = component_peel_order(path_graph(2), PathFactor(((1, 2),)))
        assert order.components == ((1, 2),)

    def test_not_tree(self):
        with pytest.raises(PreconditionFailedError, match="not a tree"):
            component_peel_order(cycle_graph(4), PathFactor(((1, 2), (3, 4))))

    def test_factor_that_misses_the_tree(self):
        with pytest.raises(PreconditionFailedError, match="factor does not cover the tree"):
            component_peel_order(path_graph(4), PathFactor(((1, 2),)))

    def test_order_minus_one_edges_that_are_no_tree(self):
        # a triangle beside a 3-path: 5 edges on 6 vertices, under an
        # invalid factor and under a valid one that no edge joins
        g = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)])
        for factor in (PathFactor(((1, 2),)), PathFactor(((1, 2, 3), (4, 5, 6)))):
            with pytest.raises(PreconditionFailedError, match="not a tree"):
                component_peel_order(g, factor)


class TestMatchingBuilder:
    def test_p2_any_n_counts(self):
        for n in (2, 3, 5, 9):
            res = build_cycle_matching(n, path_graph(2), PathFactor(((1, 2),)))
            assert verify_cycle(product_over(n, path_graph(2)), res.cycle)
            assert res.column_counts == {1: n - 1, 2: n - 1}

    def test_p4_n2(self):
        res = build_cycle_matching(2, path_graph(4), PathFactor(((1, 2), (3, 4))))
        assert verify_cycle(product_over(2, path_graph(4)), res.cycle)
        assert res.column_counts == {1: 1, 2: 0, 3: 0, 4: 1}

    def test_star_with_matching_at_min_layers(self):
        t = Graph.from_edges(6, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6)])
        res = build_cycle_matching(3, t, find_perfect_matching(t))
        assert verify_cycle(product_over(3, t), res.cycle)
        assert res.column_counts[1] == 0
        assert verify_column_contract(res.cycle, t, res.roles, 3)

    def test_degenerate_single_layer(self):
        res = build_cycle_matching(1, path_graph(2), PathFactor(((1, 2),)))
        assert verify_cycle(product_over(1, path_graph(2)), res.cycle)
        assert res.column_counts == {1: 0, 2: 0}

    def test_layer_bound(self):
        t = Graph.from_edges(6, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6)])
        with pytest.raises(LayerBoundError) as exc:
            build_cycle_matching(2, t, find_perfect_matching(t))
        assert exc.value.minimum_layers == 3

    def test_sweep_small(self):
        for t in enumerate_trees(8):
            m = find_perfect_matching(t)
            if m is None:
                continue
            dmax = max_degree(t)
            for n in range(max(dmax, 2), dmax + 3):
                res = build_cycle_matching(n, t, m)
                assert verify_cycle(product_over(n, t), res.cycle)
                assert verify_column_contract(res.cycle, t, res.roles, n)

    def test_rejects_a_factor_with_a_triple(self):
        with pytest.raises(PreconditionFailedError, match="not a perfect matching"):
            build_cycle_matching(4, path_graph(3), PathFactor(((1, 2, 3),)))

    def test_determinism(self):
        t = T1_pm_tree()
        a = build_cycle_matching(4, t, find_perfect_matching(t))
        b = build_cycle_matching(4, t, find_perfect_matching(t))
        assert a.cycle == b.cycle


def T1_pm_tree():
    # T1 itself has a perfect matching? no (8 vertices but leaves clash);
    # use the 8-vertex caterpillar that does
    return Graph.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7), (4, 8)])


class TestPathFactorBuilder:
    def test_p3_base_case(self):
        res = build_cycle_path_factor(6, path_graph(3), PathFactor(((1, 2, 3),)))
        assert res.cycle.edge_set == reference_column_cycle_edges(6, 3)
        assert res.column_counts == {1: 4, 2: 2, 3: 4}

    def test_p2_base_case(self):
        res = build_cycle_path_factor(4, path_graph(2), PathFactor(((1, 2),)))
        assert res.cycle.edge_set == reference_column_cycle_edges(4, 2)

    def test_t1_at_minimum_layers(self):
        res = build_cycle_path_factor(10, T1, find_p23_factor(T1))
        assert len(res.cycle.seq) == 80
        assert verify_cycle(product_over(10, T1), res.cycle)
        assert verify_column_contract(res.cycle, T1, res.roles, 10)

    def test_odd_layers(self):
        with pytest.raises(LayerBoundError, match="needs even n >= 6") as exc:
            build_cycle_path_factor(9, path_graph(3), PathFactor(((1, 2, 3),)))
        assert exc.value.minimum_layers == path_factor_min_layers(2) == 6

    def test_too_few_layers(self):
        with pytest.raises(LayerBoundError, match="route needs n >= 10") as exc:
            build_cycle_path_factor(8, T1, find_p23_factor(T1))
        assert exc.value.minimum_layers == 10

    def test_sweep_small(self):
        for t in enumerate_trees(7):
            f = find_p23_factor(t)
            if f is None:
                continue
            dmax = max_degree(t)
            for n in (4 * dmax - 2, 4 * dmax):
                res = build_cycle_path_factor(n, t, f)
                assert verify_cycle(product_over(n, t), res.cycle)
                assert verify_column_contract(res.cycle, t, res.roles, n)


class TestBuildPipeline:
    def test_k4_auto(self):
        res = build_cycle(3, complete_graph(4))
        assert res.mode == "matching"
        assert len(res.cycle.seq) == 12
        assert verify_cycle(product_over(3, complete_graph(4)), res.cycle)

    def test_fig4_pathfactor(self):
        fig4 = fixtures().fig4
        res = build_cycle(10, fig4, "pathfactor")
        assert len(res.cycle.seq) == 60
        assert verify_cycle(product_over(10, fig4), res.cycle)

    def test_star_no_factor(self):
        with pytest.raises(NoFactorError) as exc:
            build_cycle(4, star_graph(3))
        assert exc.value.certificate.witness == {1}

    def test_matching_mode_certifies_a_tree_without_a_matching(self):
        # the builders take their factor; the search runs in build_cycle
        p3 = path_graph(3)
        with pytest.raises(NoFactorError) as exc:
            build_cycle(4, p3, "matching")
        barrier = exc.value.certificate
        odd = sum(size % 2 for size in component_sizes_after(p3, barrier.witness))
        assert odd == barrier.odd_components > len(barrier.witness)

    def test_pathfactor_mode_certifies_a_tree_without_a_factor(self):
        star = star_graph(3)
        with pytest.raises(NoFactorError) as exc:
            build_cycle(10, star, "pathfactor")
        cert = exc.value.certificate
        isolated = component_sizes_after(star, cert.witness).count(1)
        assert isolated == cert.isolated_count > 2 * len(cert.witness)

    def test_star_no_factor_runs_one_pick_map_search(self, monkeypatch):
        from boxham import factors
        calls = []
        original = factors._pick_map
        monkeypatch.setattr(factors, "_pick_map",
                            lambda g: calls.append(g) or original(g))
        with pytest.raises(NoFactorError):
            build_cycle(4, star_graph(3))
        assert len(calls) == 1

    def test_path_factor_layer_bound(self):
        assert [path_factor_min_layers(d) for d in range(5)] == [2, 2, 6, 10, 14]
        with pytest.raises(LayerBoundError) as exc:
            build_cycle(8, fixtures().t1, "pathfactor")
        assert exc.value.minimum_layers == path_factor_min_layers(3) == 10

    def test_layer_bound_reports_minimum(self):
        with pytest.raises(LayerBoundError) as exc:
            build_cycle(2, complete_graph(4), "matching")
        assert exc.value.minimum_layers == 3

    def test_p3_odd_n_needs_matching_route_fails(self):
        # odd base order has no matching; odd n blocks the factor route
        with pytest.raises(LayerBoundError, match="needs even n >= 6") as exc:
            build_cycle(7, path_graph(3))
        assert exc.value.minimum_layers == 6

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            build_cycle(4, path_graph(2), mode="x")

    def test_cycle_base(self):
        # cyclic base graphs work through the spanning tree
        res = build_cycle(4, cycle_graph(6))
        assert verify_cycle(product_over(4, cycle_graph(6)), res.cycle)


class TestValidators:
    def test_detects_repeat(self):
        c = column_cycle(5, 2)
        bad = HamCycle(5, 2, c.seq[:-1] + (c.seq[0],))
        assert not verify_cycle(product_over(5, path_graph(2)), bad)

    def test_detects_non_edge(self):
        prod = product_over(2, path_graph(2))
        bad = HamCycle(2, 2, (1, 4, 2, 3))
        assert not verify_cycle(prod, bad)

    def test_wrong_contract_mode_fails(self):
        # check a pair-style cycle against a triple-style contract: the mid
        # column pattern cannot account for the verticals the ring uses
        c = column_cycle(5, 2)
        fake_roles = assign_roles(PathFactor(((1, 2, 3),)))
        t = path_graph(3)
        assert not verify_column_contract(c, t, fake_roles, 5)

    def test_contract_counts_follow_the_tree_degrees(self):
        # the same matching on a tree of other degrees: every vertical
        # index lies in a pair's pattern, so only the count can fail
        res = build_cycle_matching(4, path_graph(4), PathFactor(((1, 2), (3, 4))))
        other = Graph.from_edges(4, [(1, 2), (1, 3), (3, 4)])
        assert verify_column_contract(res.cycle, path_graph(4), res.roles, 4)
        assert not verify_column_contract(res.cycle, other, res.roles, 4)

    def test_roundtrip_cycle_file(self):
        c = column_cycle(6, 3)
        assert parse_cycle(format_cycle(c)) == c

    @pytest.mark.parametrize("bad", [
        "",
        "3\n1_1\n",
        "3 12\n",                       # token count mismatch
        "3 12\n" + " ".join(["1_1"] * 12) + "\n",  # repeated token, wrong ranges ok
        "2 4\n1_1 1_2 2_2 3_1\n",       # layer out of range
        "2 4\n1_1 1_2 2_2 x\n",         # malformed token
        "0 4\n1_1 1_2 2_2 2_1\n",       # bad layer count
        "3 4\n1_1 1_2 2_2 2_1\n",       # order not divisible by layers
    ])
    def test_cycle_file_malformed(self, bad):
        from boxham.errors import MalformedGraphError
        try:
            cyc = parse_cycle(bad)
        except MalformedGraphError:
            return
        # a parseable but repeated-vertex file must still fail validation
        assert not verify_cycle(product_over(cyc.layers, path_graph(cyc.base_order)), cyc)

    def test_degenerate_single_layer_pipeline(self):
        res = build_cycle(1, path_graph(2))
        assert res.mode == "matching"
        assert verify_cycle(product_over(1, path_graph(2)), res.cycle)
        assert parse_cycle(format_cycle(res.cycle)) == res.cycle

    def test_path_factor_builder_determinism(self):
        a = build_cycle_path_factor(10, T1, find_p23_factor(T1))
        b = build_cycle_path_factor(10, T1, find_p23_factor(T1))
        assert a.cycle == b.cycle and a.column_counts == b.column_counts


def spine_tree(m):
    # vertex v >= 2 hangs off one of the three vertices before it; plain
    # arithmetic, so the pinned digests below do not depend on `random`
    return [(v - 1 - (v * 7919) % min(v - 1, 3), v) for v in range(2, m + 1)]


def shuffled(order, edges):
    # a fixed relabelling; 1237 is prime and divides neither 2000 nor 2001
    def perm(x):
        return (x - 1) * 1237 % order + 1
    return Graph.from_edges(order, [(perm(u), perm(v)) for u, v in edges])


def matching_tree_2000():
    """A 1000-vertex spine tree with a leaf on every vertex."""
    return shuffled(2000, spine_tree(1000) + [(v, 1000 + v) for v in range(1, 1001)])


def p23_tree_2001():
    """A 667-vertex spine tree with a pendant 2-path on each odd vertex and
    two leaves on each even one: odd order, so no perfect matching."""
    m = 667
    edges = spine_tree(m)
    for v in range(1, m + 1):
        a, b = m + 2 * v - 1, m + 2 * v
        edges += [(v, a), (a, b)] if v % 2 else [(v, a), (v, b)]
    return shuffled(3 * m, edges)


def naive_peel_order(tree, factor):
    """Second opinion: rescan every remaining component for leaves at each
    step and peel the one with the smallest first vertex."""
    comps = factor.components
    owner = {v: i for i, comp in enumerate(comps) for v in comp}
    adj = {i: set() for i in range(len(comps))}
    for u, v in tree.edges:
        if owner[u] != owner[v]:
            adj[owner[u]].add(owner[v])
            adj[owner[v]].add(owner[u])
    remaining = set(range(len(comps)))
    order = []
    while remaining:
        pick = min((i for i in remaining if len(adj[i]) <= 1), key=lambda i: comps[i][0])
        order.append(pick)
        remaining.remove(pick)
        for j in adj[pick]:
            adj[j].discard(pick)
    return tuple(comps[i] for i in order)


def digest(cycle):
    return hashlib.sha256(format_cycle(cycle).encode()).hexdigest()


class TestBuildersAtScale:
    # The pinned digests are the format_cycle output of the builder that kept
    # the cycle as a set of (layer, base) label edges, before the slot form.

    def test_matching_tree_2000(self):
        t = matching_tree_2000()
        n = max_degree(t)
        res = build_cycle_matching(n, t, find_perfect_matching(t))
        assert verify_cycle(product_over(n, t), res.cycle)
        for v in t.vertices():
            assert res.column_counts[v] == n - t.degree(v)
        assert digest(res.cycle) == \
            "ae64a4158e2db1a6efe6c820af0291fc2b3a34abcec5e1bb6c6bc0b0ed3f8ba9"

    def test_p23_tree_2001(self):
        t = p23_tree_2001()
        assert find_perfect_matching(t) is None
        n = 4 * max_degree(t) - 2
        factor = find_p23_factor(t)
        assert {len(c) for c in factor.components} == {2, 3}
        res = build_cycle_path_factor(n, t, factor)
        assert verify_cycle(product_over(n, t), res.cycle)
        assert digest(res.cycle) == \
            "dfb81c81079055f929f1533ef6c3fd7857a6f3dd826ea6f74836008f0ea08524"

    def test_peel_order_matches_naive(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 200:
            order = rng.randint(2, 40)
            labels = rng.sample(range(1, order + 1), order)
            t = Graph.from_edges(order, [(labels[rng.randint(0, v - 1)], labels[v])
                                         for v in range(1, order)])
            for factor in (find_perfect_matching(t), find_p23_factor(t)):
                if factor is not None:
                    assert (component_peel_order(t, factor).components
                            == naive_peel_order(t, factor)), t.edges
                    checked += 1


class TestProductFreeVerifier:
    """``verify_product_cycle`` against the product-graph validator."""

    @pytest.mark.parametrize("make, builder", [
        (matching_tree_2000, build_cycle_matching),
        (p23_tree_2001, build_cycle_path_factor),
    ])
    def test_agrees_with_product_validator(self, make, builder):
        t = make()
        dmax = max_degree(t)
        matching = builder is build_cycle_matching
        n = dmax if matching else 4 * dmax - 2
        prod = product_over(n, t)
        factor = (find_perfect_matching if matching else find_p23_factor)(t)
        good = builder(n, t, factor).cycle.seq

        def agree(seq, layers=n, base_order=t.order):
            c = HamCycle(layers, base_order, tuple(seq))
            verdict = verify_product_cycle(t, n, c)
            assert verdict == verify_cycle(prod, c)
            return verdict

        assert agree(good)
        assert agree(good, 1, len(good))  # the oracle's shape of the same cycle
        assert agree(good[::-1]) and agree(good[5:] + good[:5])
        rng = random.Random(11)
        for _ in range(40):
            seq = list(good)
            i, j = rng.sample(range(len(seq)), 2)
            seq[i], seq[j] = seq[j], seq[i]  # swap two vertices
            assert not agree(seq)
            seq = list(good)
            i = rng.randrange(len(seq) - 1)
            seq[i], seq[i + 1] = seq[i + 1], seq[i]  # reverse one edge
            assert not agree(seq)
            seq = list(good)
            i = rng.randrange(len(seq) - 1)
            j = rng.randrange(i + 2, i + 40)
            seq[i:j] = seq[i:j][::-1]  # reverse a run
            agree(seq)
        for seq in (good[:-1], good + good[:1], good[:-1] + good[:1], ()):
            assert not agree(seq, 1, max(len(seq), 1))
            if len(seq) % t.order == 0 and seq:
                assert not agree(seq, len(seq) // t.order)
        for bad in (0, len(good) + 1):
            assert not agree((bad,) + good[1:])

    def test_small_shapes(self):
        for base in (path_graph(1), path_graph(2), cycle_graph(5), star_graph(3)):
            for n in (1, 2, 3):
                prod = product_over(n, base)
                ids = tuple(range(1, n * base.order + 1))
                rng = random.Random(n * 31 + base.order)
                for seq in (ids, ids[::-1], tuple(rng.sample(ids, len(ids)))):
                    c = HamCycle(n, base.order, seq)
                    assert verify_product_cycle(base, n, c) == verify_cycle(prod, c)

    def test_rejects_nonpositive_layers(self):
        with pytest.raises(ValueError):
            verify_product_cycle(path_graph(2), 0, column_cycle(2, 2))


def corruptions(rng, good, n, k):
    """The cycle ``good`` as given, reversed and started elsewhere, then
    corrupted: two vertices swapped, a run reversed (2-opt), one layer's
    columns rotated, every layer moved up one, every id moved up one."""
    total = n * k
    yield good
    yield good[::-1]
    yield good[3:] + good[:3]
    for _ in range(3):
        seq = list(good)
        i, j = rng.sample(range(total), 2)
        seq[i], seq[j] = seq[j], seq[i]
        yield tuple(seq)
        i, j = sorted(rng.sample(range(total + 1), 2))
        yield good[:i] + good[i:j][::-1] + good[j:]
    layer = rng.randrange(n) * k  # the ids of one layer are layer + 1..layer + k
    yield tuple(layer + (x - layer) % k + 1 if 0 < x - layer <= k else x for x in good)
    yield tuple((x + k - 1) % total + 1 for x in good)
    yield tuple(x % total + 1 for x in good)


class TestProductCheckReference:
    """``verify_product_cycle`` tests a step within a layer by one column
    and one neighbour lookup; it must accept exactly the cycles that the
    reference, which decodes both ends' columns, accepts."""

    def test_agrees_on_corrupted_cycles(self):
        rng = random.Random(35)
        bases = [path_graph(2), path_graph(5), star_graph(4), T1, fixtures().fig4,
                 cycle_graph(5), cycle_graph(6), complete_graph(4)]
        bases += [random_connected_graph(rng, 3, 8) for _ in range(6)]
        checked, verdicts, trees = 0, set(), set()
        for base in bases:
            k = base.order
            trees.add(base.size == k - 1)
            for n in range(1, 9):
                seeds = [tuple(range(1, n * k + 1))]
                spliced = splice_attempt(base, n)
                if spliced is not None:
                    seeds.append(spliced.seq)
                _, found, _ = kernels.ham_cycle(product_over(n, base), max_nodes=2000)
                if found is not None:
                    seeds.append(found)
                for good in seeds:
                    for seq in corruptions(rng, good, n, k):
                        c = HamCycle(n, k, seq)
                        verdict = verify_product_cycle(base, n, c)
                        assert verdict == reference_verify_product_cycle(base, n, c), \
                            (base, n, seq)
                        verdicts.add(verdict)
                        checked += 1
        assert checked >= 1000 and verdicts == {True, False} and trees == {True, False}

    @pytest.mark.parametrize("base", [
        cycle_graph(5), cycle_graph(7), star_graph(2),
        Graph.from_edges(5, [(5, 1), (1, 2), (2, 3), (3, 4)]),  # a path with ends 5, 4
    ])
    def test_rejects_the_step_from_column_k_to_column_1_one_layer_up(self, base):
        # with the base edge (1, k), ids a = i * k (column k, layer i) and
        # a + 1 (column 1, layer i + 1) have columns adjacent in the base.
        # A spanning path of the product between them closes with that
        # step; it is a Hamiltonian cycle through a new vertex z joined to
        # both.  On a tree base the two share a colour, so only an odd n
        # has one.
        k = base.order
        assert base.has_edge(1, k)
        found = 0
        for n in (2, 3, 4):
            prod = product_over(n, base)
            z = prod.order + 1
            for i in range(1, n):
                a = i * k
                _, order, _ = kernels.ham_cycle(
                    Graph.from_edges(z, prod.edges + ((a, z), (a + 1, z))))
                if order is None:
                    continue
                at = order.index(z)
                path = order[at + 1:] + order[:at]
                assert {path[0], path[-1]} == {a, a + 1}
                forged = Graph.from_edges(prod.order, prod.edges + ((a, a + 1),))
                for seq in (path, path[::-1]):
                    c = HamCycle(n, k, seq)
                    # every other step is a product edge
                    assert verify_cycle(forged, c) and not verify_cycle(prod, c)
                    assert not verify_product_cycle(base, n, c)
                    assert not reference_verify_product_cycle(base, n, c)
                found += 1
        assert found


class TestColumnCounts:
    """The builder's column counts, taken from the splices, are the
    vertical steps read off its cycle."""

    def test_counts_match_the_cycle(self):
        rng = random.Random(3535)
        builds = [build_cycle(n, complete_graph(2)) for n in (1, 2, 3, 4)]
        builds += [build_cycle(n, path_graph(2)) for n in (1, 5)]
        builds += [build_cycle(n, path_graph(3)) for n in (6, 8, 10)]
        builds += [build_cycle(n, T1) for n in (10, 12)]
        for _ in range(15):
            t = factor_tree(rng, (2,) * rng.randint(1, 10), 0)
            dmax = max_degree(t)
            builds += [build_cycle_matching(n, t, find_perfect_matching(t))
                       for n in range(dmax, dmax + 4)]
            sizes = [rng.choice((2, 3)) for _ in range(rng.randint(1, 6))]
            t = factor_tree(rng, sizes, 0)
            n = path_factor_min_layers(max_degree(t)) + 2 * rng.randint(0, 1)
            builds.append(build_cycle_path_factor(n, t, find_p23_factor(t)))
            g = factor_tree(rng, sizes + [rng.choice((2, 3))], rng.randint(1, 3))
            assert g.size > g.order - 1
            builds.append(build_cycle(path_factor_min_layers(max_degree(g)), g))
        assert {res.mode for res in builds} == {"matching", "pathfactor"}
        for res in builds:
            assert res.column_counts == vertical_step_counts(res.cycle)


class TestCycleText:
    def test_matches_reference_and_roundtrips(self):
        rng = random.Random(2024)
        shapes = [(1, k) for k in (1, 2, 7)] + [(m, 1) for m in (1, 2, 9)]
        shapes += [(rng.randint(1, 12), rng.randint(1, 15)) for _ in range(60)]
        for layers, base_order in shapes:
            seq = rng.sample(range(1, layers * base_order + 1), layers * base_order)
            c = HamCycle(layers, base_order, tuple(seq))
            assert format_cycle(c) == reference_format_cycle(c)
            assert parse_cycle(format_cycle(c)) == c

    def test_builder_cycles_match_reference(self):
        t = matching_tree_2000()
        c = build_cycle_matching(max_degree(t), t, find_perfect_matching(t)).cycle
        assert format_cycle(c) == reference_format_cycle(c)
        c = build_cycle(1, path_graph(2)).cycle
        assert format_cycle(c) == reference_format_cycle(c)

    def test_ids_out_of_range(self):
        for seq in ((0, 1, 2, 3), (1, 2, 3, 5)):
            with pytest.raises(ValueError):
                format_cycle(HamCycle(2, 2, seq))


class TestForgedCycle:
    """Each builder's cycle is checked against the product over the tree,
    which a cycle that keeps the column contract can still fail."""

    @pytest.mark.parametrize("builder, n, tree, steps", [
        (build_cycle_matching, 4, path_graph(4), (0, 2)),
        (build_cycle_path_factor, 10, T1, (0, 34)),
    ])
    def test_builders_raise(self, monkeypatch, builder, n, tree, steps):
        factor = (find_perfect_matching if builder is build_cycle_matching
                  else find_p23_factor)(tree)
        res = builder(n, tree, factor)
        forging = forged_assembly(cycles._assemble, *steps)
        monkeypatch.setattr(cycles, "_assemble", forging)
        forged, _, counts = forging(n, tree, factor, component_peel_order(tree, factor))
        assert counts == res.column_counts == vertical_step_counts(forged)
        assert verify_column_contract(forged, tree, res.roles, n)
        assert not verify_product_cycle(tree, n, forged)
        with pytest.raises(AssertionError, match="failed its check"):
            builder(n, tree, factor)
        with pytest.raises(AssertionError, match="failed its check"):
            build_cycle(n, tree)


def _count_calls(monkeypatch, names):
    """Wrap every module binding of the named functions with a counter."""
    from boxham import cycles, factors, graphs
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (graphs, factors, cycles):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


class TestChecksRunOnce:
    # a tree base is its own spanning tree; a chord makes the route build one
    @pytest.mark.parametrize("base, n, mode, trees_built", [
        pytest.param(T1_pm_tree(), 3, "matching", 0, id="base0-3-matching"),
        pytest.param(T1, 10, "pathfactor", 0, id="base1-10-pathfactor"),
        pytest.param(Graph.from_edges(8, T1_pm_tree().edges + ((6, 7),)), 3, "matching", 1,
                     id="chord-3-matching"),
        pytest.param(Graph.from_edges(8, T1.edges + ((5, 8),)), 10, "pathfactor", 1,
                     id="chord-10-pathfactor"),
    ])
    def test_build_cycle(self, monkeypatch, base, n, mode, trees_built):
        calls = _count_calls(monkeypatch, ("is_connected", "validate_path_factor",
                                           "spanning_tree_containing", "max_degree",
                                           "_check_layers"))
        res = build_cycle(n, base)
        assert res.mode == mode
        assert calls["is_connected"] == 1
        assert calls["validate_path_factor"] == 1
        assert calls["spanning_tree_containing"] == trees_built
        # the layer rule once, on the base's maximum degree, which the
        # builder takes in place of its tree's
        assert calls["max_degree"] == calls["_check_layers"] == 1
        tree = cycles._route(base, "auto")[2]
        assert (tree is base) == (not trees_built)
        assert tree.size == base.order - 1

    def test_spanning_tree_still_rejects_a_forest(self):
        forest = Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)])
        for seed in ([(1, 2)], [(4, 5)], [(1, 2), (4, 5)]):
            with pytest.raises(DisconnectedError):
                spanning_tree_containing(forest, seed)


SRC = str(Path(__file__).resolve().parents[1] / "src")

_UNDER_O = """
import boxham.cycles as c
from boxham.oracle import fixtures
from boxham.factors import find_p23_factor, find_perfect_matching
from boxham.graphs import path_graph
from helpers import forged_assembly

def outcome(fn, *args):
    try:
        fn(*args)
    except AssertionError:
        return "raised"
    return "returned"

assemble = c._assemble
for builder, n, tree, steps, search in (
        (c.build_cycle_matching, 4, path_graph(4), (0, 2), find_perfect_matching),
        (c.build_cycle_path_factor, 10, fixtures().t1, (0, 34), find_p23_factor)):
    c._assemble = forged_assembly(assemble, *steps)
    print(outcome(builder, n, tree, search(tree)), outcome(c.build_cycle, n, tree))
c._assemble = assemble
print(outcome(c._walk, c.Slots([0, 2, 1], [0, 0, 0]), 1, 2))  # degree 1
print(outcome(c._walk, c.Slots([0, 2, 1, 4, 3], [0, 2, 1, 4, 3]), 1, 4))  # two cycles
"""


def test_builder_checks_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, str(Path(__file__).parent), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["raised"] * 6
