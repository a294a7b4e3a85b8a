"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Budgeted criteria get
their stated wall-clock budgets; an "unknown" inside a budget is a
failure, never a skip.
"""

import random
import time
from fractions import Fraction

import pytest

from boxham.cycles import (
    ROLE_COMPONENT_DEGREE,
    build_cycle_matching,
    build_cycle_path_factor,
    pattern_overlap_counts,
    three_column_cycle,
    used_column_indices,
    verify_column_contract,
    verify_cycle,
)
from boxham.factors import (
    factor_obstruction,
    find_p23_factor,
    find_perfect_matching,
    validate_path_factor,
)
from boxham.graphs import (
    cartesian_product,
    complete_bipartite,
    cycle_graph,
    degree_stats,
    path_graph,
)
from boxham.oracle import enumerate_trees, find_hamiltonian_cycle, fixtures
from boxham.toughness import (
    is_complete,
    is_one_tough,
    product_cut_from_bipartite,
    toughness_exact,
)
from helpers import (
    connected_bipartite_up_to_iso,
    random_connected_bipartite,
    random_connected_graph,
    removal_stats,
)


def ok(num, text):
    print(f"\n[criterion {num:2d}] PASS  {text}")


def product_over(n, base):
    return cartesian_product(path_graph(n), base)


def contract_counts(t, roles, n):
    """Each column's vertical-edge count by the paper's column contract."""
    return {v: len(used_column_indices(role, n)) - t.degree(v) + ROLE_COMPONENT_DEGREE[role]
            for v, role in roles.items()}


def test_criterion_01_matching_builder_sweep():
    """Every tree of order <= 10 with a perfect matching, every layer count
    from the tree's max degree up to max degree + 3: the constructed cycle
    passes both validators with exact per-column counts."""
    built = 0
    for t in enumerate_trees(10):
        matching = find_perfect_matching(t)
        if matching is None:
            continue
        dmax = degree_stats(t).maximum
        for n in range(dmax, dmax + 4):
            res = build_cycle_matching(n, t, matching)
            prod = product_over(n, t)
            assert verify_cycle(prod, res.cycle), (t.edges, n)
            assert verify_column_contract(res.cycle, t, res.roles, n), \
                (t.edges, n)
            assert res.column_counts == contract_counts(t, res.roles, n)
            for v in t.vertices():
                assert res.column_counts[v] == n - t.degree(v)
            built += 1
    ok(1, f"matching-route builder: {built} (tree, layers) instances, zero failures")


def test_criterion_02_path_factor_builder_sweep():
    """Every tree of order <= 7 with a 2/3-path factor at layer counts
    4*max_degree - 2 and 4*max_degree: both validators pass, including the
    pattern-subset condition."""
    built = 0
    for t in enumerate_trees(7):
        factor = find_p23_factor(t)
        if factor is None:
            continue
        dmax = degree_stats(t).maximum
        for n in (4 * dmax - 2, 4 * dmax):
            res = build_cycle_path_factor(n, t, factor)
            prod = product_over(n, t)
            assert verify_cycle(prod, res.cycle), (t.edges, n)
            assert verify_column_contract(res.cycle, t, res.roles, n), \
                (t.edges, n)
            assert res.column_counts == contract_counts(t, res.roles, n)
            built += 1
    ok(2, f"path-factor builder: {built} (tree, layers) instances, zero failures")


def test_criterion_03_equivalence_sweep():
    """For trees with a perfect matching and products of at most 18
    vertices, three verdicts coincide: the Hamiltonicity oracle, the
    1-toughness decision, and the layer count reaching the max degree.

    The one-layer product over the lone edge is the two-vertex graph,
    where the package-wide convention (the doubled edge is a closed
    spanning walk, and complete graphs are 1-tough) keeps all three
    verdicts in agreement, so no instance is excluded.  Tree orders stop
    at 12, the enumeration cap; larger orders would only contribute more
    single-layer products.
    """
    checked = 0
    for t in enumerate_trees(12):
        if find_perfect_matching(t) is None:
            continue
        dmax = degree_stats(t).maximum
        n = 1
        while n * t.order <= 18:
            prod = product_over(n, t)
            oracle = find_hamiltonian_cycle(prod)
            assert oracle.status in ("found", "none")
            tough = is_one_tough(prod)
            assert tough.verdict in ("yes", "no")
            bound = n >= dmax
            assert (oracle.status == "found") == (tough.verdict == "yes") == bound, \
                (t.edges, n)
            checked += 1
            n += 1
    ok(3, f"oracle / 1-tough / layer-bound equivalence on {checked} products")


def test_criterion_04_flagship_not_hamiltonian():
    """The 4-layer product over the 8-vertex caterpillar is not
    Hamiltonian; exhaustive search must settle it inside 5 minutes."""
    prod = product_over(4, fixtures().t1)
    start = time.monotonic()
    res = find_hamiltonian_cycle(prod, deadline=time.monotonic() + 300)
    elapsed = time.monotonic() - start
    assert res.status == "none", f"expected none, got {res.status}"
    ok(4, f"flagship product non-Hamiltonian ({res.nodes} nodes, {elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_05_flagship_is_one_tough():
    """The same 32-vertex product is 1-tough; the exact decision must
    finish inside 30 minutes, and unknown counts as failure."""
    prod = product_over(4, fixtures().t1)
    start = time.monotonic()
    res = is_one_tough(prod, deadline=time.monotonic() + 1800)
    elapsed = time.monotonic() - start
    assert res.verdict == "yes", f"expected yes, got {res.verdict}"
    ok(5, f"flagship product 1-tough ({res.nodes} nodes, {elapsed:.2f}s)")


def test_criterion_06_seven_vertex_fixture():
    """The 7-vertex fixture has toughness exactly 1 and no Hamiltonian
    cycle."""
    fig1 = fixtures().fig1
    res = toughness_exact(fig1)
    assert res.value == Fraction(1, 1)
    assert find_hamiltonian_cycle(fig1).status == "none"
    ok(6, "7-vertex fixture: toughness exactly 1, non-Hamiltonian")


def test_criterion_07_ten_layer_three_column_cycle():
    """The 10-layer three-column cycle equals the transcribed reference
    drawing edge for edge."""
    want = set()
    for col, idxs in ((1, (1, 3, 4, 5, 7, 8, 9)),
                      (2, (2, 4, 6, 8)),
                      (3, (1, 2, 3, 5, 6, 7, 9))):
        for i in idxs:
            want.add(frozenset(((i, col), (i + 1, col))))
    for i in (1, 2, 3, 6, 7, 10):
        want.add(frozenset(((i, 1), (i, 2))))
    for i in (1, 4, 5, 8, 9, 10):
        want.add(frozenset(((i, 2), (i, 3))))
    cyc = three_column_cycle(10)
    labels = cyc.labels()
    got = {frozenset((a, b)) for a, b in zip(labels, labels[1:] + labels[:1])}
    assert got == want
    ok(7, "10-layer three-column cycle matches the transcribed drawing exactly")


def test_criterion_08_five_layer_balanced_product():
    """The 5-layer product over the 6-vertex caterpillar is Hamiltonian
    and the found cycle verifies."""
    prod = product_over(5, fixtures().fig4)
    res = find_hamiltonian_cycle(prod, deadline=time.monotonic() + 5)
    assert res.status == "found"
    assert verify_cycle(prod, res.cycle)
    ok(8, f"5-layer balanced product Hamiltonian ({res.nodes} nodes)")


def test_criterion_09_overlap_counts():
    """Pattern overlap counts obey the chain inequality with the closed
    form ceil((n-4)/4) for left-mid, for every even layer count in
    [4, 200]."""
    for n in range(4, 201, 2):
        lr, rc, lc = pattern_overlap_counts(n)
        assert lr >= rc >= lc
        assert lc == -((4 - n) // 4)
    ok(9, "overlap chain inequality and closed form on all even n in [4, 200]")


def test_criterion_10_factor_dichotomy():
    """Factor or obstruction, never both and never neither, over all trees
    of order <= 8 plus 1000 seeded random connected graphs of order <= 10;
    both answers validate independently."""
    population = list(enumerate_trees(8))
    rng = random.Random(20240817)
    population += [random_connected_graph(rng, 2, 10) for _ in range(1000)]
    for g in population:
        factor = find_p23_factor(g)
        cert = factor_obstruction(g)
        assert (factor is None) != (cert is None), g.edges
        if factor is not None:
            assert validate_path_factor(g, factor), g.edges
        else:
            comps, iso = removal_stats(g, cert.witness)
            assert iso == cert.isolated_count > 2 * len(cert.witness), g.edges
    ok(10, f"factor/obstruction dichotomy on {len(population)} graphs")


def test_criterion_11_bipartite_product_witnesses():
    """For every connected bipartite base of order <= 7 without a path
    factor and 1 to 4 layers, the constructed product cut is a verified
    non-1-toughness witness."""
    checked = 0
    for h in connected_bipartite_up_to_iso(7):
        if find_p23_factor(h) is not None:
            continue
        for n in (1, 2, 3, 4):
            witness = product_cut_from_bipartite(n, h)
            prod = product_over(n, h)
            comps, _ = removal_stats(prod, witness.cut)
            assert comps == witness.components, (h.edges, n)
            assert comps > len(witness.cut), (h.edges, n)
            checked += 1
    ok(11, f"bipartite product witnesses verified on {checked} (base, layers) pairs")


def test_criterion_12_bipartite_toughness_cap():
    """Every connected non-complete bipartite graph tested has toughness
    at most 1: the full order-7 census, all trees to order 10, even
    cycles, complete bipartite shapes, grids, and 300 seeded random
    connected bipartite graphs of order <= 10."""
    population = [g for g in connected_bipartite_up_to_iso(7)]
    population += [t for t in enumerate_trees(10)]
    population += [cycle_graph(n) for n in (4, 6, 8, 10)]
    population += [complete_bipartite(a, b)
                   for a in range(1, 5) for b in range(a, 6) if a + b <= 10]
    population += [cartesian_product(path_graph(2), path_graph(k)) for k in (3, 4, 5)]
    rng = random.Random(991)
    population += [random_connected_bipartite(rng, 3, 10) for _ in range(300)]
    checked = 0
    for g in population:
        if is_complete(g):
            continue
        res = toughness_exact(g)
        assert res.value <= 1, g.edges
        checked += 1
    ok(12, f"toughness cap at 1 verified on {checked} bipartite graphs")
