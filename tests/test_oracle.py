import concurrent.futures
import hashlib
import os
import random
import time
from collections import Counter
from concurrent.futures import Executor, Future

import pytest

from boxham import cycles, kernels, oracle
from boxham.cycles import (
    HamCycle,
    build_cycle,
    component_peel_order,
    verify_cycle,
    verify_product_cycle,
)
from boxham.errors import (
    BudgetExceededError,
    NoFactorError,
    PreconditionFailedError,
    SpliceStockError,
)
from boxham.factors import find_perfect_matching
from boxham.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    degree_stats,
    path_graph,
    star_graph,
)
from boxham.oracle import (
    canonical_form,
    enumerate_trees,
    find_hamiltonian_cycle,
    find_product_cycle,
    find_spanning_path,
    fixtures,
    format_scan_report,
    scan_balanced_odd,
    scan_below_layer_bound,
    splice_attempt,
)
from boxham.toughness import is_one_tough
from helpers import (
    PETERSEN_EDGES,
    all_pairs,
    isomorphic,
    random_connected_bipartite,
    random_connected_graph,
    random_scan_base,
)


class TestHamOracle:
    def test_square(self):
        res = find_hamiltonian_cycle(cycle_graph(4))
        assert res.found and res.cycle.seq == (1, 2, 3, 4)

    def test_degenerate_edge(self):
        res = find_hamiltonian_cycle(path_graph(2))
        assert res.found and res.cycle.seq == (1, 2)

    def test_single_vertex(self):
        assert find_hamiltonian_cycle(Graph(1)).status == "none"

    def test_unbalanced_bipartite_shortcut(self):
        res = find_hamiltonian_cycle(star_graph(3))
        assert res.status == "none" and res.nodes == 0

    def test_found_cycles_verify(self):
        rng = random.Random(3)
        found = 0
        for _ in range(100):
            g = random_connected_graph(rng, 3, 10)
            res = find_hamiltonian_cycle(g)
            if res.found:
                found += 1
                assert verify_cycle(g, res.cycle)
        assert found > 10

    def test_budget(self):
        prod = cartesian_product(path_graph(4), fixtures().t1)
        res = find_hamiltonian_cycle(prod, max_nodes=3)
        assert res.status == "unknown"

    def test_a_forged_search_cycle_raises(self, monkeypatch):
        monkeypatch.setattr(oracle.kernels, "ham_cycle",
                            lambda g, **_: ("found", tuple(range(1, g.order + 1)), 1))
        petersen = Graph.from_edges(10, PETERSEN_EDGES)
        with pytest.raises(AssertionError, match="search cycle on 1 layers failed its check"):
            find_hamiltonian_cycle(petersen)
        # 1-2-3-4-5-...: the step 4 -> 5 leaves the first layer of P2 x P4
        with pytest.raises(AssertionError, match="search cycle on 2 layers failed its check"):
            find_product_cycle(path_graph(4), 2)

    def test_a_wrong_split_raises(self, monkeypatch):
        # the splice cycle of a split is checked against the graph itself:
        # the ladder's cycle is no cycle of the 24-cycle
        monkeypatch.setattr(oracle, "product_split", lambda g: (path_graph(2), 12))
        with pytest.raises(AssertionError, match="splice cycle on 1 layers failed its check"):
            find_hamiltonian_cycle(cycle_graph(24))

    def test_verdicts(self):
        assert [find_hamiltonian_cycle(g).verdict for g in (
            cycle_graph(4), star_graph(3), fixtures().fig1)] == [
            "hamiltonian", "non_hamiltonian", "non_hamiltonian"]
        prod = cartesian_product(path_graph(4), fixtures().t1)
        assert find_hamiltonian_cycle(prod, max_nodes=3).verdict == "unknown"


class TestTraceableOracle:
    def test_path_itself(self):
        res = find_spanning_path(path_graph(5))
        assert res.path == (1, 2, 3, 4, 5)

    def test_star_none(self):
        assert find_spanning_path(star_graph(3)).status == "none"

    def test_fig1_traceable(self):
        assert find_spanning_path(fixtures().fig1).status == "found"

    def test_found_paths_are_spanning(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_connected_graph(rng, 2, 9)
            res = find_spanning_path(g)
            if res.status == "found":
                p = res.path
                assert sorted(p) == list(g.vertices())
                assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))

    def test_ladder_without_recursion(self):
        # 1201 vertices with the apex, far past the interpreter's recursion
        # limit; one node per vertex and one for the apex's root
        ladder = cartesian_product(path_graph(600), path_graph(2))
        res = find_spanning_path(ladder)
        assert (res.status, res.nodes) == ("found", 1201)
        assert sorted(res.path) == list(range(1, 1201))
        assert all(ladder.has_edge(u, v) for u, v in zip(res.path, res.path[1:]))

    @pytest.mark.parametrize("forged", [(1, 2, 3, 5, 4), (1, 2, 3, 4, 4), (1, 2, 3, 4)])
    def test_forged_path_raises(self, monkeypatch, forged):
        # the search runs on P5 plus the apex 1, where P5's vertex v is v + 1
        cycle = (1, *(v + 1 for v in forged))
        monkeypatch.setattr(oracle.kernels, "ham_cycle", lambda g, **_: ("found", cycle, 1))
        with pytest.raises(AssertionError, match="search path"):
            find_spanning_path(path_graph(5))


class TestFixtures:
    def test_t1_shape(self):
        t1 = fixtures().t1
        assert (t1.order, t1.size) == (8, 7)
        assert degree_stats(t1).maximum == 3

    def test_fig4_shape(self):
        fig4 = fixtures().fig4
        assert (fig4.order, fig4.size) == (6, 5)
        assert fig4.degree(2) == 3

    def test_fig1_shape(self):
        fig1 = fixtures().fig1
        assert (fig1.order, fig1.size) == (7, 9)


def unicyclic_by_order(max_order: int) -> dict[int, list[Graph]]:
    """Every tree of enumerate_trees plus each edge it lacks, by order:
    each graph with one cycle, up to isomorphism, at least once."""
    out: dict[int, list[Graph]] = {}
    for t in enumerate_trees(max_order):
        out.setdefault(t.order, []).extend(
            Graph.from_edges(t.order, t.edges + ((u, v),))
            for u, v in all_pairs(t.vertices()) if not t.has_edge(u, v))
    return out


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(g.vertices())
    rng.shuffle(perm)
    return Graph.from_edges(g.order, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


class TestTreeEnumeration:
    def test_counts(self):
        # one tree per distinct form: OEIS A000055, free trees by order
        by_order = Counter(t.order for t in enumerate_trees(10))
        assert [by_order[n] for n in range(2, 11)] == [1, 1, 2, 3, 6, 11, 23, 47, 106]

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_trees(13))

    def test_deterministic(self):
        a = [t.edges for t in enumerate_trees(7)]
        b = [t.edges for t in enumerate_trees(7)]
        assert a == b

    def test_pairwise_non_isomorphic_up_to_8(self):
        for order in range(2, 9):
            trees = [t for t in enumerate_trees(8) if t.order == order]
            for a, b in all_pairs(trees):
                assert not isomorphic(a, b)

    def test_canonical_form_invariant_under_relabel(self):
        # the trees, and up to 60 graphs with one cycle of each order
        rng = random.Random(4)
        graphs = list(enumerate_trees(7))
        for gs in unicyclic_by_order(9).values():
            graphs += rng.sample(gs, min(len(gs), 60))
        for g in graphs:
            assert canonical_form(relabelled(g, rng)) == canonical_form(g)


class TestCanonicalForm:
    def test_tree_forms_and_order_are_pinned(self):
        assert canonical_form(path_graph(4)) == "(())|(())"
        assert canonical_form(star_graph(3)) == "(()()())"
        # the trees' order, as it was before forms covered graphs with a cycle
        edges = repr([t.edges for t in enumerate_trees(10)]).encode()
        assert hashlib.sha256(edges).hexdigest() == \
            "18c65b738340db786442674f934d5818568e27ec4f13533698772530aa396df0"

    def test_cycle_graphs(self):
        # leaf pruning stops at the cycle: a graph with no leaf is its core
        assert canonical_form(cycle_graph(5)) == "()" * 5
        assert canonical_form(cycle_graph(3)) != canonical_form(star_graph(2))

    @pytest.mark.parametrize("g", [
        complete_graph(4),
        Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]),
        Graph.from_edges(4, [(1, 2), (3, 4)]),
        Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)]),
    ], ids=["k4", "bowtie", "two_edges", "triangle_and_path"])
    def test_two_cycles_or_disconnected_raise(self, g):
        with pytest.raises(ValueError):
            canonical_form(g)

    def test_counts_match_a001429(self):
        # distinct forms of the trees plus one edge: OEIS A001429,
        # connected graphs with exactly one cycle, by order
        counts = [len(set(map(canonical_form, gs)))
                  for _, gs in sorted(unicyclic_by_order(10).items()) if gs]
        assert counts == [1, 2, 5, 13, 33, 89, 240, 657]

    def test_agrees_with_backtracking_isomorphism_up_to_8(self):
        pairs = 0
        for gs in unicyclic_by_order(8).values():
            forms = [canonical_form(g) for g in gs]
            for (a, fa), (b, fb) in all_pairs(zip(gs, forms)):
                assert (fa == fb) == isomorphic(a, b), (a.edges, b.edges)
                pairs += 1
        assert pairs == 131871


class TestOracleBuilderAgreement:
    def test_builder_success_implies_oracle_success(self):
        rng = random.Random(51)
        checked = 0
        for _ in range(40):
            g = random_connected_graph(rng, 2, 6)
            for n in (2, 3, 4):
                if n * g.order > 24:
                    continue
                try:
                    res = build_cycle(n, g)
                except Exception:
                    continue
                prod = cartesian_product(path_graph(n), g)
                assert verify_cycle(prod, res.cycle)
                assert searched(prod) == "found"
                checked += 1
        assert checked > 20

    def test_matching_boundary(self):
        # below the layer requirement the product really is non-Hamiltonian
        for t in enumerate_trees(8):
            m = find_perfect_matching(t)
            if m is None:
                continue
            dmax = degree_stats(t).maximum
            for n in range(1, dmax):
                if n * t.order > 24:
                    continue
                prod = cartesian_product(path_graph(n), t)
                assert find_hamiltonian_cycle(prod).status == "none"

    def test_oracle_success_implies_one_tough(self):
        rng = random.Random(99)
        hits = 0
        for _ in range(60):
            g = random_connected_graph(rng, 3, 9)
            if find_hamiltonian_cycle(g).found:
                hits += 1
                assert is_one_tough(g).verdict == "yes"
        assert hits > 5

    @pytest.mark.slow
    def test_builder_vs_oracle_soak(self):
        # constructed cycles and exhaustive search agree on every tree
        # product up to 32 vertices along both routes
        for t in enumerate_trees(8):
            dmax = degree_stats(t).maximum
            m = find_perfect_matching(t)
            from boxham.factors import find_p23_factor
            f = find_p23_factor(t)
            candidates = []
            if m is not None:
                candidates.extend(n for n in range(dmax, dmax + 3))
            if f is not None:
                candidates.append(4 * dmax - 2)
            for n in candidates:
                if n * t.order > 32 or n < 1:
                    continue
                res = build_cycle(n, t)
                prod = cartesian_product(path_graph(n), t)
                assert verify_cycle(prod, res.cycle)
                if n * t.order >= 3:
                    assert searched(prod) == "found", (t.edges, n)


def product(n, g):
    return cartesian_product(path_graph(n), g)


def searched(prod, **caps):
    """``kernels.ham_cycle`` on the product graph: the exhaustive search
    itself, never the entry, which splices a layer-major product.  The
    search charges at least one node on three or more vertices, the
    splice none, and a cycle it finds passes the check."""
    status, seq, nodes = kernels.ham_cycle(prod, **caps)
    assert nodes > 0, "answer without a search"
    assert seq is None or verify_cycle(prod, HamCycle(1, prod.order, seq))
    return status


class TestSpliceAttempt:
    """The splice builder run below its proven bound of 4 * max_degree - 2
    layers."""

    def test_flagship_is_none_at_four_layers(self):
        # P4 x T1 is the paper's 1-tough non-Hamiltonian product
        assert splice_attempt(fixtures().t1, 4) is None

    @pytest.mark.parametrize("n", [6, 8])
    def test_flagship_below_the_bound(self, n):
        t1 = fixtures().t1
        cycle = splice_attempt(t1, n)
        assert cycle is not None and verify_product_cycle(t1, n, cycle)

    def test_stock_exhaustion_has_its_own_class(self):
        t1 = fixtures().t1
        _, factor, tree = cycles._route(t1, "auto")
        with pytest.raises(SpliceStockError):
            cycles._assemble(4, tree, factor, component_peel_order(tree, factor))
        assert issubclass(SpliceStockError, AssertionError)

    def test_other_builder_faults_propagate(self, monkeypatch):
        def broken_walk(*args):
            raise AssertionError("assembled edges are not a single cycle")

        monkeypatch.setattr(cycles, "_walk", broken_walk)
        with pytest.raises(AssertionError) as exc:
            splice_attempt(fixtures().t1, 8)
        assert not isinstance(exc.value, SpliceStockError)

    def test_no_factor_odd_layers_and_disconnected_are_none(self):
        assert splice_attempt(star_graph(3), 8) is None
        assert splice_attempt(fixtures().t1, 7) is None  # a triple at odd n
        assert splice_attempt(Graph.from_edges(4, [(1, 2), (3, 4)]), 4) is None
        # a perfect matching closes at odd n too
        cycle = splice_attempt(path_graph(4), 5)
        assert verify_product_cycle(path_graph(4), 5, cycle)

    def test_exhaustive_search_never_refutes_a_splice_cycle(self):
        # seeded bases of the gap scanner's family, orders 6-8 and 0-2
        # chords, at the gap layer count 8 and below it
        rng = random.Random(14)
        checked = found = 0
        for i in range(36):
            base = random_scan_base(rng, 6 + i % 3, i % 3)
            for n in (4, 6, 8):
                cycle = splice_attempt(base, n)
                if cycle is None:
                    continue
                prod = product(n, base)
                assert verify_cycle(prod, cycle) and verify_product_cycle(base, n, cycle)
                status = searched(prod, max_nodes=20000)
                assert status != "none", (base.edges, n)
                checked += 1
                found += status == "found"
        assert checked >= 100 and found >= 0.9 * checked


class TestProductEntry:
    def test_stages_on_the_caterpillar(self):
        t1 = fixtures().t1
        stages = {n: find_product_cycle(t1, n) for n in (3, 4, 8)}
        assert [(r.status, r.decided_by, r.nodes) for r in stages.values()] == [
            ("none", "bipartite_imbalance", 0), ("none", "search", 408),
            ("found", "splice", 0)]
        cycle = stages[8].cycle
        assert (cycle.layers, cycle.base_order) == (8, 8)
        assert verify_product_cycle(t1, 8, cycle)

    def test_search_cycles_come_in_the_product_shape(self):
        res = find_product_cycle(path_graph(4), 5)
        assert (res.decided_by, res.cycle.layers, res.cycle.base_order) == ("search", 5, 4)

    def test_gate_keeps_small_products_off_the_attempt(self, monkeypatch):
        def no_attempt(base, n):
            raise AssertionError("splice attempted")

        monkeypatch.setattr(oracle, "splice_attempt", no_attempt)
        # 20 vertices: below the order gate
        assert find_product_cycle(path_graph(4), 5).found
        # 24 vertices on 2 and 3 layers: below the layer gate
        assert find_product_cycle(path_graph(12), 2).decided_by == "search"
        assert find_product_cycle(path_graph(8), 3).decided_by == "search"

    def test_no_degree_gate_below_the_proven_bound(self):
        # T1 has maximum degree 3, so 6 layers are four short of its
        # proven bound; the splice closes there and needs no search node
        res = find_product_cycle(fixtures().t1, 6, max_nodes=0)
        assert (res.status, res.decided_by, res.nodes) == ("found", "splice", 0)

    def test_balanced_odd_scan_instance_spliced_under_its_cap(self):
        # a base of ``scan 2 --max-h 8``: a perfect matching, maximum
        # degree 3, balanced sides; 7 layers, under the scan's node cap
        base = Graph.from_edges(8, [(1, 2), (1, 3), (2, 4), (2, 8), (3, 4), (3, 5),
                                    (4, 6), (5, 7)])
        res = find_product_cycle(base, 7, max_nodes=1000)
        assert (res.verdict, res.decided_by, res.nodes) == ("hamiltonian", "splice", 0)

    def test_failed_attempt_falls_back_to_the_search(self):
        # no {P2,P3}-factor; the search sees the centre's layer-1 vertex
        # forced onto three cycle edges
        star = star_graph(3)
        res = find_product_cycle(star, 8)
        assert (res.status, res.decided_by) == ("none", "search")

    def test_product_side_gap_needs_no_product(self):
        rng = random.Random(15)
        bases = list(enumerate_trees(8))
        bases += [random_connected_graph(rng, 2, 9) for _ in range(40)]
        bases += [random_connected_bipartite(rng, 2, 9) for _ in range(40)]
        # disconnected: two random connected graphs side by side
        for _ in range(20):
            a, b = random_connected_graph(rng, 1, 5), random_connected_graph(rng, 1, 5)
            bases.append(Graph.from_edges(a.order + b.order, list(a.edges) + [
                (u + a.order, v + a.order) for u, v in b.edges]))
        gaps = set()
        for base in bases:
            for n in range(1, 10):
                gap = oracle._side_gap(product(n, base))
                assert oracle._product_side_gap(base, n) == gap, (base.edges, n)
                gaps.add(gap > 0)
        assert gaps == {True, False}

    def test_imbalance_and_splice_build_no_product(self, monkeypatch):
        def no_product(*args):
            raise AssertionError("the product graph was built")

        monkeypatch.setattr(oracle, "cartesian_product", no_product)
        t1 = fixtures().t1
        assert find_product_cycle(t1, 3).decided_by == "bipartite_imbalance"
        assert find_product_cycle(t1, 8).decided_by == "splice"
        with pytest.raises(AssertionError, match="was built"):
            find_product_cycle(t1, 4)

    def test_layer_count_below_one_is_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="layer count"):
                find_product_cycle(fixtures().t1, n)

    def test_a_splice_cycle_that_fails_its_check_raises(self, monkeypatch):
        t1 = fixtures().t1
        monkeypatch.setattr(oracle, "splice_attempt",
                            lambda base, n: HamCycle(n, base.order, tuple(range(1, 65))))
        with pytest.raises(AssertionError, match="failed its check"):
            find_product_cycle(t1, 8)


class TestScans:
    def test_scan1_rejects_small_k(self):
        with pytest.raises(PreconditionFailedError):
            scan_below_layer_bound(2, 5)

    def test_scan1_k3_includes_t1(self):
        report = scan_below_layer_bound(3, 8, max_nodes_per_instance=200000)
        t1_entries = [e for e in report.entries
                      if e.base.order == 8 and isomorphic(e.base, fixtures().t1)]
        assert [(e.layers, e.verdict) for e in t1_entries] == [(8, "hamiltonian")]
        assert not [e.key for e in report.entries if e.verdict == "unknown"]
        assert report.params["layers"] == 8

    def test_scan1_small_complete(self):
        report = scan_below_layer_bound(3, 5)
        assert report.status == "complete"
        assert all(e.layers == 8 for e in report.entries)
        # every base really has max degree 3 and a factor
        for e in report.entries:
            assert degree_stats(e.base).maximum == 3

    def test_scan2_fig4_entry(self):
        report = scan_balanced_odd(6, 5)
        fig4 = fixtures().fig4
        hit = [e for e in report.entries
               if e.layers == 5 and e.base.order == 6 and isomorphic(e.base, fig4)]
        assert len(hit) == 1
        assert hit[0].verdict == "hamiltonian"
        assert not hit[0].in_range  # 5 < 4*3 - 2

    def test_scan2_p2_in_range(self):
        report = scan_balanced_odd(2, 5)
        entries = [(e.layers, e.verdict, e.in_range) for e in report.entries]
        assert (3, "hamiltonian", True) in entries
        assert (5, "hamiltonian", True) in entries

    def test_scan_truncation_and_resume(self):
        full = scan_balanced_odd(4, 5)
        part1 = scan_balanced_odd(4, 5, deadline=time.monotonic())
        assert part1.status == "truncated"
        resumed = scan_balanced_odd(4, 5, start_index=part1.last_index + 1)
        keys = [(e.key, e.layers) for e in part1.entries] + \
               [(e.key, e.layers) for e in resumed.entries]
        assert keys == [(e.key, e.layers) for e in full.entries]

    @pytest.mark.parametrize("scan", [
        lambda: scan_below_layer_bound(3, 8, deadline=time.monotonic()),
        lambda: scan_balanced_odd(6, 5, deadline=time.monotonic()),
    ], ids=["below_layer_bound", "balanced_odd"])
    def test_scan_budget_covers_the_enumeration(self, monkeypatch, scan):
        # the enumeration reads the caller's deadline, so one already
        # passed stops it before the first base is tested for a factor
        tested = []
        search = oracle.find_p23_factor

        def counting(g):
            tested.append(g)
            return search(g)

        monkeypatch.setattr(oracle, "find_p23_factor", counting)
        report = scan()
        assert (len(tested), report.entries, report.status, report.last_index) == \
            (0, (), "truncated", -1)

    def test_scan_budget_stops_a_running_instance(self, monkeypatch):
        # the third search runs past the scan's deadline, as a budget-stopped
        # "unknown": its verdict comes after the deadline and is not recorded
        deadlines = []
        search = oracle.find_product_cycle

        def spends_its_budget(base, n, *, deadline=None, max_nodes=None):
            deadlines.append(deadline)
            if len(deadlines) == 3:
                time.sleep(max(0.0, deadline - time.monotonic()) + 0.05)
                return oracle.OracleResult("unknown", None, 0)
            return search(base, n, deadline=deadline, max_nodes=max_nodes)

        monkeypatch.setattr(oracle, "find_product_cycle", spends_its_budget)
        start = time.monotonic()
        deadline = start + 1.0
        report = scan_below_layer_bound(3, 5, deadline=deadline)
        assert time.monotonic() - start < 5
        # every instance takes the scan's one deadline, unchanged
        assert deadlines == [deadline] * 3
        assert report.status == "truncated" and report.last_index == 1
        assert [e.verdict for e in report.entries] == ["hamiltonian"] * 2
        assert "unknown" not in format_scan_report(report)
        # a resumed scan examines the instance again
        monkeypatch.setattr(oracle, "find_product_cycle", search)
        resumed = scan_below_layer_bound(3, 5, start_index=report.last_index + 1)
        assert resumed.status == "complete" and resumed.instances_examined == 3

    @pytest.mark.parametrize("start_index", [-1, -3])
    @pytest.mark.parametrize("scan", [
        lambda start: scan_below_layer_bound(3, 6, start_index=start),
        lambda start: scan_balanced_odd(4, 5, start_index=start),
    ], ids=["below_layer_bound", "balanced_odd"])
    def test_negative_start_index_is_rejected_before_the_enumeration(
            self, monkeypatch, scan, start_index):
        # a negative index would slice from the end, judge the last
        # instances and still report last_index -1
        def enumerates(*args, **kwargs):
            raise AssertionError("the bases were enumerated")

        monkeypatch.setattr(oracle, "_candidate_bases", enumerates)
        with pytest.raises(ValueError, match="start_index"):
            scan(start_index)

    def test_scan_budget_bounds_a_runaway_search(self):
        # at 8 layers the 9-vertex base n9:1-2,1-3,1-8,2-4,2-6,3-5,3-7,8-9
        # takes the search millions of nodes; with no time budget in the
        # jobs this scan ran for over a minute
        start = time.monotonic()
        report = scan_below_layer_bound(3, 10, deadline=time.monotonic() + 0.5)
        assert report.status == "truncated"
        assert time.monotonic() - start < 10

    def test_workers_agree(self):
        a = scan_balanced_odd(5, 5, workers=1)
        b = scan_balanced_odd(5, 5, workers=2)
        assert [(e.key, e.layers, e.verdict) for e in a.entries] == \
               [(e.key, e.layers, e.verdict) for e in b.entries]

    def test_pool_starts_at_most_one_process_per_job_and_cpu(self, monkeypatch):
        class Pool(Executor):
            """Runs each job at submit and records the pool sizes asked for."""
            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, arg):
                fut = Future()
                fut.set_result(fn(arg))
                return fut

        # the scanner imports the pool class from here when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        serial = scan_below_layer_bound(3, 5)
        assert serial.instances_examined == 5
        for cpus, workers, size in ((3, 5000, 3), (3, 2, 2), (3, 1, None),
                                    (8, 5000, 5), (None, 5000, None)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            Pool.sizes.clear()
            report = scan_below_layer_bound(3, 5, workers=workers)
            assert Pool.sizes == ([] if size is None else [size]), (cpus, workers)
            assert report.entries == serial.entries
        # a single instance is judged in this process
        Pool.sizes.clear()
        assert scan_below_layer_bound(3, 4, workers=5000).instances_examined == 1
        assert Pool.sizes == []

    def test_report_format_round(self):
        report = scan_balanced_odd(4, 3)
        text = format_scan_report(report)
        assert text.startswith("scan balanced_odd\nparam max_h_order = 4\nparam max_n = 3\n"
                               "param start_index = 0\ninstance ")
        assert f"examined {report.instances_examined}" in text
        assert "status complete" in text
