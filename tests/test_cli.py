import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from boxham import cli, cycles, graphs, oracle, toughness
from boxham.cli import main
from boxham.cycles import parse_cycle, verify_cycle, verify_product_cycle
from boxham.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    format_graph,
    parse_graph,
    path_graph,
    star_graph,
)
from boxham.oracle import fixtures
from helpers import caterpillar, factor_tree, removal_stats


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, g in [("p2", path_graph(2)), ("p3", path_graph(3)),
                    ("k4", complete_graph(4)), ("k13", star_graph(3)),
                    ("t1", fixtures().t1), ("fig4", fixtures().fig4),
                    ("fig1", fixtures().fig1)]:
        path = tmp_path / f"{name}.el"
        path.write_text(format_graph(g))
        out[name] = str(path)
    out["dir"] = tmp_path
    return out


CAT28 = caterpillar(7, 3)  # three leaves on every spine vertex: no path factor


def no_factor_tree_28(tmp_path) -> str:
    path = tmp_path / "cat28.el"
    path.write_text(format_graph(CAT28))
    return str(path)


def assert_recounts(cert: dict):
    _, iso = removal_stats(CAT28, set(cert["witness"]))
    assert iso == cert["isolated"] > 2 * len(cert["witness"])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def usage_error(capsys, *argv):
    """The --json object of argv, a usage error: exit 1, argparse's usage
    text on stderr and exactly one object on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: boxham")
    payload = json.loads(captured.out)
    assert payload["status"] == "error" and payload["error"]["kind"] == "usage"
    assert set(payload) == {"command", "status", "error"}
    return payload


class TestProduct:
    def test_square(self, capsys, files):
        code, payload = run_json(capsys, "product", "--n", "2", "--graph", files["p2"])
        assert code == 0
        assert payload["order"] == 4 and payload["edges"] == 4

    def test_p10_p3(self, capsys, files):
        code, payload = run_json(capsys, "product", "--n", "10", "--graph", files["p3"])
        assert (payload["order"], payload["edges"]) == (30, 47)

    def test_t1_product_file(self, capsys, files, tmp_path):
        out = str(tmp_path / "prod.el")
        code, payload = run_json(capsys, "product", "--n", "4", "--graph", files["t1"],
                                 "--out", out)
        assert code == 0
        g = parse_graph(open(out).read())
        assert g.order == 32 and g.size == 52

    def test_layer_count_below_one_is_a_precondition_error(self, capsys, files):
        for n in ("0", "-1"):
            code, payload = run_json(capsys, "product", "--n", n, "--graph", files["p3"])
            assert (code, payload["error"]) == (
                3, {"kind": "precondition", "message": "layer count must be positive"})


    def test_dot_file(self, capsys, files, tmp_path):
        dot = tmp_path / "p2p3.dot"
        code, payload = run_json(capsys, "product", "--n", "2", "--graph", files["p3"],
                                 "--dot", str(dot))
        assert code == 0 and payload["dot_file"] == str(dot)
        text = dot.read_text()
        # the product's seven edges under its i_v labels, none bold
        assert text == graphs.to_dot(cartesian_product(path_graph(2), path_graph(3)),
                                     layers=2)
        assert text.count(" -- ") == 7 and "bold" not in text
        assert '"1_1" -- "1_2";' in text and '"1_3" -- "2_3";' in text


class TestHamcycle:
    def test_k4(self, capsys, files, tmp_path):
        out = str(tmp_path / "c.cycle")
        code, payload = run_json(capsys, "hamcycle", "--n", "3", "--graph", files["k4"],
                                 "--out", out)
        assert code == 0 and payload["cycle_order"] == 12
        # the written cycle re-verifies through the CLI
        code2, payload2 = run_json(capsys, "verify", "--n", "3", "--graph", files["k4"],
                                   "--cycle", out)
        assert code2 == 0 and payload2["valid"] is True

    def test_cycle_file_verifies_only_at_its_own_n(self, capsys, files, tmp_path):
        out = str(tmp_path / "p3x6.cycle")
        code, _ = run_json(capsys, "hamcycle", "--n", "6", "--graph", files["p3"],
                           "--out", out)
        assert code == 0
        for n, valid in (("6", True), ("4", False)):
            code, payload = run_json(capsys, "verify", "--n", n, "--graph", files["p3"],
                                     "--cycle", out)
            assert code == 0 and payload["valid"] is valid

    def test_fig4_pathfactor(self, capsys, files):
        code, payload = run_json(capsys, "hamcycle", "--n", "10",
                                 "--graph", files["fig4"], "--mode", "pathfactor")
        assert code == 0 and payload["cycle_order"] == 60

    def test_no_factor_exit_code_and_certificate(self, capsys, files):
        code, payload = run_json(capsys, "hamcycle", "--n", "4", "--graph", files["k13"])
        assert code == 4
        assert payload["status"] == "error"
        assert payload["error"]["kind"] == "no-factor"
        assert payload["error"]["certificate"] == {"isolated": 3, "witness": [1]}

    def test_no_factor_without_json_prints_the_certificate(self, capsys, files):
        code, out, err = run(capsys, "hamcycle", "--n", "4", "--graph", files["k13"])
        assert (code, out) == (4, "")
        assert err.splitlines()[1:] == ["S = {1}; i(G-S) = 3; 2|S| = 2"]
        assert err.startswith("error (no-factor): ")

    def test_no_factor_certificate_at_order_28(self, capsys, tmp_path):
        graph = no_factor_tree_28(tmp_path)
        code, payload = run_json(capsys, "hamcycle", "--n", "4", "--graph", graph)
        assert code == 4 and payload["error"]["kind"] == "no-factor"
        assert_recounts(payload["error"]["certificate"])

    def test_matching_mode_certificate(self, capsys, tmp_path):
        # 1-2-3-4-5 with 2-6 has a {P2,P3}-factor but no perfect matching
        tree = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
        path = tmp_path / "tree6.el"
        path.write_text(format_graph(tree))
        code, payload = run_json(capsys, "hamcycle", "--n", "3", "--graph", str(path),
                                 "--mode", "matching")
        assert code == 4 and payload["error"]["kind"] == "no-factor"
        assert payload["error"]["certificate"] == {"witness": [2, 4], "odd_components": 4}

    def test_layer_bound_exit(self, capsys, files):
        code, payload = run_json(capsys, "hamcycle", "--n", "2", "--graph", files["k4"],
                                 "--mode", "matching")
        assert code == 3 and payload["error"]["kind"] == "precondition"

    def test_dot_output(self, capsys, files, tmp_path):
        dot = tmp_path / "c.dot"
        run_json(capsys, "hamcycle", "--n", "3", "--graph", files["k4"],
                 "--dot", str(dot))
        text = dot.read_text()
        assert "style=bold" in text and '"1_1"' in text


class TestPathfactor:
    def test_t1(self, capsys, files):
        code, payload = run_json(capsys, "pathfactor", "--graph", files["t1"],
                                 "--kind", "p23")
        assert code == 0
        assert payload["factor"] == [[1, 2, 6], [3, 7], [5, 4, 8]]

    def test_p3_pm_none(self, capsys, files):
        code, payload = run_json(capsys, "pathfactor", "--graph", files["p3"],
                                 "--kind", "pm")
        assert code == 0 and payload["factor"] is None
        assert payload["certificate"] == {"witness": [2], "odd_components": 2}

    def test_pm_barrier_with_a_path_factor(self, capsys, tmp_path, monkeypatch):
        # 1-2-3-4-5 with 2-6 has a {P2,P3}-factor but no perfect matching
        from boxham import factors
        calls = {"_pick_map": 0, "_matching_search": 0}
        for name in calls:
            original = getattr(factors, name)
            monkeypatch.setattr(factors, name, lambda g, name=name, original=original:
                                calls.__setitem__(name, calls[name] + 1) or original(g))
        tree = Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
        path = tmp_path / "tree6.el"
        path.write_text(format_graph(tree))
        code, payload = run_json(capsys, "pathfactor", "--graph", str(path), "--kind", "pm")
        assert code == 0 and payload["factor"] is None
        # removing 2 and 4 leaves the four single vertices 1, 3, 5 and 6
        assert payload["certificate"] == {"witness": [2, 4], "odd_components": 4}
        assert calls == {"_pick_map": 0, "_matching_search": 1}

    def test_k13_certificate(self, capsys, files):
        code, payload = run_json(capsys, "pathfactor", "--graph", files["k13"],
                                 "--kind", "p23")
        assert code == 0
        assert payload["certificate"] == {"isolated": 3, "witness": [1]}

    def test_k13_pm_barrier(self, capsys, files):
        code, payload = run_json(capsys, "pathfactor", "--graph", files["k13"],
                                 "--kind", "pm")
        assert code == 0 and payload["factor"] is None
        assert payload["certificate"] == {"witness": [1], "odd_components": 3}

    def test_certificate_at_order_28(self, capsys, tmp_path):
        code, payload = run_json(capsys, "pathfactor", "--graph", no_factor_tree_28(tmp_path))
        assert code == 0 and payload["factor"] is None
        assert_recounts(payload["certificate"])

    def test_no_factor_runs_one_pick_map_search(self, capsys, tmp_path, monkeypatch):
        from boxham import factors
        calls = []
        original = factors._pick_map
        monkeypatch.setattr(factors, "_pick_map",
                            lambda g: calls.append(g) or original(g))
        code, payload = run_json(capsys, "pathfactor", "--graph", no_factor_tree_28(tmp_path))
        assert code == 0 and payload["factor"] is None
        assert_recounts(payload["certificate"])
        assert len(calls) == 1


class TestToughness:
    def test_p3(self, capsys, files):
        code, payload = run_json(capsys, "toughness", "--graph", files["p3"])
        assert code == 0 and payload["toughness"] == "1/2"

    def test_k4_infinite(self, capsys, files):
        code, payload = run_json(capsys, "toughness", "--graph", files["k4"])
        assert payload["toughness"] == "infinite"
        assert payload["nodes"] == 0

    def test_fig1(self, capsys, files):
        code, payload = run_json(capsys, "toughness", "--graph", files["fig1"])
        assert payload["toughness"] == "1/1"

    def test_exact_reports_subsets_counted(self, capsys, files):
        code, payload = run_json(capsys, "toughness", "--graph", files["fig1"])
        assert code == 0 and payload["nodes"] == 64
        code, out, _ = run(capsys, "toughness", "--graph", files["fig1"])
        assert code == 0 and out.splitlines()[0] == "toughness: 1 (64 subsets)"

    def test_one_tough_budget_unknown_is_ok_exit(self, capsys, files, tmp_path):
        big = tmp_path / "big.el"
        from boxham.graphs import cartesian_product
        big.write_text(format_graph(
            cartesian_product(path_graph(4), fixtures().t1)))
        code, payload = run_json(capsys, "toughness", "--graph", str(big))
        assert code == 0 and payload["verdict"] == "unknown"
        code, payload = run_json(capsys, "toughness", "--graph", str(big),
                                 "--one-tough")
        assert code == 0 and payload["verdict"] == "yes"

    def test_one_tough_reports_decider_and_nodes(self, capsys, files):
        p4 = files["dir"] / "p4.el"
        p4.write_text(format_graph(path_graph(4)))
        c6 = files["dir"] / "c6.el"
        c6.write_text(format_graph(cycle_graph(6)))
        expect = [(files["k4"], "yes", "trivial"),
                  (files["p3"], "no", "matching_barrier"),
                  (files["fig4"], "no", "matching_barrier"),
                  (str(p4), "no", "small_cut"),
                  (str(c6), "yes", "hamiltonian_cycle"),
                  (files["fig1"], "yes", "frontier_dp")]
        for path, verdict, decider in expect:
            code, payload = run_json(capsys, "toughness", "--graph", path, "--one-tough")
            assert code == 0
            assert (payload["verdict"], payload["decided_by"]) == (verdict, decider)
            assert isinstance(payload["nodes"], int)
            # the cycle appears exactly when it decided the answer
            assert ("cycle" in payload) == (decider == "hamiltonian_cycle")
        code, payload = run_json(capsys, "toughness", "--graph", str(c6), "--one-tough")
        assert payload["cycle"] == [1, 2, 3, 4, 5, 6] and payload["nodes"] == 6
        assert "witness" not in payload
        code, payload = run_json(capsys, "toughness", "--graph", files["p3"], "--one-tough")
        assert payload["nodes"] == 0 and payload["witness"] == {"cut": [2], "components": 2}

    def test_budget_without_one_tough_is_a_usage_error(self, capsys, files):
        # the exact scan takes no budget, so it would run to the end
        payload = usage_error(capsys, "toughness", "--graph", files["p3"],
                              "--budget-seconds", "1", "--json")
        assert payload["error"]["message"] == "--budget-seconds needs --one-tough"
        code, payload = run_json(capsys, "toughness", "--graph", files["p3"],
                                 "--one-tough", "--budget-seconds", "5")
        assert (code, payload["verdict"]) == (0, "no")


class TestCheckVerify:
    def test_check_product_t1(self, capsys, files):
        code, payload = run_json(capsys, "check", "--n", "4", "--graph", files["t1"],
                                 "--budget-seconds", "120")
        assert code == 0 and payload["verdict"] == "non_hamiltonian"

    def test_check_reports_the_deciding_stage(self, capsys, files):
        # a degree-3 tree of order 8 from the scan 1 --k 3 family
        tree = Graph.from_edges(8, [(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (4, 8), (5, 7)])
        path = files["dir"] / "tree8.el"
        path.write_text(format_graph(tree))
        cases = [(str(path), "8", "hamiltonian", "splice", 0),
                 (files["t1"], "3", "non_hamiltonian", "bipartite_imbalance", 0),
                 (files["t1"], "4", "non_hamiltonian", "search", 408)]
        for graph, n, verdict, stage, nodes in cases:
            code, payload = run_json(capsys, "check", "--n", n, "--graph", graph)
            assert code == 0
            assert (payload["verdict"], payload["decided_by"], payload["nodes"]) == (
                verdict, stage, nodes)
            code, out, _ = run(capsys, "check", "--n", n, "--graph", graph)
            assert out.splitlines()[0] == (
                f"oracle: {verdict} (decided by {stage}, {nodes} nodes)")
        code, payload = run_json(capsys, "check", "--n", "8", "--graph", str(path))
        assert verify_product_cycle(tree, 8, parse_cycle(payload["cycle"]))
        # the builder keeps its proven bound: 4 * 3 - 2 layers
        code, payload = run_json(capsys, "hamcycle", "--n", "8", "--graph", files["t1"])
        assert code == 3 and payload["error"]["kind"] == "precondition"
        assert payload["error"]["message"] == "path-factor route needs n >= 10"

    def test_check_finds_a_gap_cycle_by_search(self, capsys, files):
        # a base of the scan 1 --k 3 family at 4k - 4 = 8 layers that the
        # splice leaves open: the search meets its cycle at node 9,119.
        # Without the rule that at most one vertex may need the start's
        # closing edge it is "unknown" at this cap, and still after
        # 55,701,504 nodes uncapped
        base = Graph.from_edges(9, [(1, 2), (1, 3), (1, 9), (2, 4), (2, 5), (3, 5),
                                    (4, 6), (4, 8), (5, 7)])
        path = files["dir"] / "gap9.el"
        path.write_text(format_graph(base))
        code, payload = run_json(capsys, "check", "--n", "8", "--max-nodes", "20000",
                                 "--graph", str(path))
        assert code == 0
        assert (payload["verdict"], payload["decided_by"], payload["nodes"]) == (
            "hamiltonian", "search", 9119)
        assert verify_product_cycle(base, 8, parse_cycle(payload["cycle"]))

    def test_check_splices_a_matching_tree_at_its_degree(self, capsys, files):
        # a 20-vertex tree with a perfect matching and maximum degree 4:
        # 4 layers meet the matching bound, and the search alone is
        # "unknown" after 20,000 nodes
        tree = factor_tree(random.Random(0), [2] * 10, 0)
        assert graphs.max_degree(tree) == 4
        path = files["dir"] / "matching20.el"
        path.write_text(format_graph(tree))
        code, payload = run_json(capsys, "check", "--n", "4", "--max-nodes", "20000",
                                 "--graph", str(path))
        assert code == 0
        assert (payload["verdict"], payload["decided_by"], payload["nodes"]) == (
            "hamiltonian", "splice", 0)
        assert verify_product_cycle(tree, 4, parse_cycle(payload["cycle"]))

    def test_check_fig1(self, capsys, files):
        code, payload = run_json(capsys, "check", "--graph", files["fig1"])
        assert payload["verdict"] == "non_hamiltonian"

    def test_verify_corrupted_cycle(self, capsys, files, tmp_path):
        out = tmp_path / "c.cycle"
        run_json(capsys, "check", "--n", "5", "--graph", files["p2"],
                 "--out", str(out))
        text = out.read_text()
        head, body = text.splitlines()
        tokens = body.split()
        tokens[0], tokens[1] = tokens[1], tokens[0]
        bad = tmp_path / "bad.cycle"
        bad.write_text(head + "\n" + " ".join(tokens) + "\n")
        code, payload = run_json(capsys, "verify", "--n", "5", "--graph", files["p2"],
                                 "--cycle", str(bad))
        assert code == 0 and payload["valid"] is False

    def test_verify_n_rejects_a_header_of_another_shape(self, capsys, files, tmp_path):
        # P3 x C4's cycle under the header "2 12" reads as ids of a
        # 2-layer product over 6 columns, labels such as 1_6 included, and
        # those ids coincide with the 3-layer ones
        c4 = tmp_path / "c4.el"
        c4.write_text(format_graph(cycle_graph(4)))
        out = tmp_path / "c4.cycle"
        code, payload = run_json(capsys, "check", "--n", "3", "--graph", str(c4),
                                 "--out", str(out))
        assert (code, payload["verdict"]) == (0, "hamiltonian")
        seq = parse_cycle(out.read_text()).seq
        forged = tmp_path / "forged.cycle"
        forged.write_text(cycles.format_cycle(cycles.HamCycle(2, 6, seq)))
        assert forged.read_text().startswith("2 12\n")
        assert {"1_6", "2_5"} <= set(forged.read_text().split())
        for cycle, valid in ((out, True), (forged, False)):
            code, payload = run_json(capsys, "verify", "--n", "3", "--graph", str(c4),
                                     "--cycle", str(cycle))
            assert (code, payload["valid"]) == (0, valid)
        # without --n any cycle file is checked against the graph itself:
        # both files hold the same ids, a Hamiltonian cycle of the product
        prod = tmp_path / "p3c4.el"
        run_json(capsys, "product", "--n", "3", "--graph", str(c4), "--out", str(prod))
        for cycle in (out, forged):
            code, payload = run_json(capsys, "verify", "--graph", str(prod),
                                     "--cycle", str(cycle))
            assert (code, payload["valid"]) == (0, True)

    def test_verify_without_n_checks_the_graph_itself(self, capsys, files, tmp_path):
        out = tmp_path / "k4.cycle"
        code, payload = run_json(capsys, "check", "--graph", files["k4"], "--out", str(out))
        assert (code, payload["verdict"]) == (0, "hamiltonian")
        code, payload = run_json(capsys, "verify", "--graph", files["k4"], "--cycle", str(out))
        assert code == 0 and payload["valid"] is True
        # K4's cycle is no cycle of the 3-vertex path
        code, payload = run_json(capsys, "verify", "--graph", files["p3"], "--cycle", str(out))
        assert code == 0 and payload["valid"] is False

    def test_verify_n_builds_no_product(self, capsys, files, tmp_path, monkeypatch):
        out = tmp_path / "t1.cycle"
        code, _ = run_json(capsys, "hamcycle", "--n", "10", "--graph", files["t1"],
                           "--out", str(out))
        assert code == 0

        def no_product(*args):
            raise AssertionError("verify --n built the product graph")

        monkeypatch.setattr(graphs, "cartesian_product", no_product)
        code, payload = run_json(capsys, "verify", "--n", "10", "--graph", files["t1"],
                                 "--cycle", str(out))
        assert code == 0 and payload["valid"] is True
        code, payload = run_json(capsys, "verify", "--n", "8", "--graph", files["t1"],
                                 "--cycle", str(out))
        assert code == 0 and payload["valid"] is False
        code, payload = run_json(capsys, "verify", "--n", "-1", "--graph", files["t1"],
                                 "--cycle", str(out))
        assert code == 3 and payload["error"]["kind"] == "precondition"

    def test_check_n_builds_no_product_when_the_splice_answers(self, capsys, files,
                                                                monkeypatch):
        # a degree-3 tree of order 8 from the scan 1 --k 3 family
        tree = Graph.from_edges(8, [(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (4, 8), (5, 7)])
        path = files["dir"] / "tree8.el"
        path.write_text(format_graph(tree))

        def no_product(*args):
            raise AssertionError("check --n built the product graph")

        monkeypatch.setattr(graphs, "cartesian_product", no_product)
        monkeypatch.setattr(oracle, "cartesian_product", no_product)
        code, payload = run_json(capsys, "check", "--n", "8", "--graph", str(path))
        assert code == 0
        assert (payload["order"], payload["verdict"], payload["decided_by"]) == (
            64, "hamiltonian", "splice")
        assert verify_product_cycle(tree, 8, parse_cycle(payload["cycle"]))

    @pytest.mark.parametrize("command, n, key, answer", [
        ("hamcycle", "10", "mode", "pathfactor"),
        ("check", "8", "decided_by", "splice"),
    ])
    def test_one_independent_check_per_cycle(self, capsys, files, monkeypatch,
                                             command, n, key, answer):
        calls = dict.fromkeys(("verify_product_cycle", "verify_column_contract"), 0)

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            original = getattr(cycles, name)
            for module in (cycles, oracle, toughness):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        code, payload = run_json(capsys, command, "--n", n, "--graph", files["t1"])
        assert (code, payload[key]) == (0, answer)
        assert calls == {"verify_product_cycle": 1, "verify_column_contract": 0}

    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("not a graph\n")
        code, payload = run_json(capsys, "check", "--graph", str(bad))
        assert code == 2 and payload["error"]["kind"] == "parse"

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_undecodable_input_is_a_parse_error(self, capsys, files, tmp_path, command):
        binary = tmp_path / "binary.el"
        binary.write_bytes(b"\xff\xfe\x00")
        argv = {"check": ["check", "--graph", str(binary)],
                "verify": ["verify", "--graph", files["p3"], "--cycle", str(binary)]}
        code, payload = run_json(capsys, *argv[command])
        assert (code, payload["status"], payload["error"]["kind"]) == (2, "error", "parse")
        assert "codec can't decode" in payload["error"]["message"]

    @pytest.mark.parametrize("text", ["3 2\n1 2\n2 1\n", "2 1\n0 1\n"])
    def test_malformed_edges_exit(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.el"
        bad.write_text(text)
        code, payload = run_json(capsys, "check", "--graph", str(bad))
        assert code == 2 and payload["error"]["kind"] == "parse"

    def test_budget_exit(self, capsys, files):
        code, payload = run_json(capsys, "check", "--n", "4", "--graph", files["t1"],
                                 "--max-nodes", "3")
        assert code == 5 and payload["verdict"] == "unknown"

    def test_negative_max_nodes_is_a_usage_error(self, capsys, files):
        for argv in (["check", "--n", "4", "--graph", files["t1"]], ["scan", "2"]):
            payload = usage_error(capsys, *argv, "--max-nodes", "-1", "--json")
            assert payload["command"] == argv[0]
            assert payload["error"]["message"] == "--max-nodes must be at least 0"
        # a cap of 0 is a budget spent at once, not a usage error
        code, payload = run_json(capsys, "check", "--n", "4", "--graph", files["t1"],
                                 "--max-nodes", "0")
        assert (code, payload["verdict"]) == (5, "unknown")

    def test_layer_count_below_one_is_a_precondition_error(self, capsys, files, tmp_path):
        cycle = tmp_path / "t1.cycle"
        code, _ = run_json(capsys, "hamcycle", "--n", "10", "--graph", files["t1"],
                           "--out", str(cycle))
        assert code == 0
        for argv in (["check", "--graph", files["t1"]],
                     ["verify", "--graph", files["t1"], "--cycle", str(cycle)]):
            for n in ("0", "-1"):
                code, payload = run_json(capsys, *argv, "--n", n)
                assert code == 3 and payload["error"]["kind"] == "precondition", (argv, n)

    def test_check_on_the_ladder(self, capsys, tmp_path):
        # P600 x K2 under layer-major ids: 1200 vertices, far past the
        # recursion limit for a search that recursed once per path vertex.
        # The entry splits it into K2 and 600 layers and splices it.
        ladder = cartesian_product(path_graph(600), path_graph(2))
        path = tmp_path / "ladder.el"
        path.write_text(format_graph(ladder))
        code, payload = run_json(capsys, "check", "--graph", str(path))
        assert (code, payload["verdict"], payload["decided_by"], payload["nodes"]) == (
            0, "hamiltonian", "splice", 0)
        assert verify_cycle(ladder, parse_cycle(payload["cycle"]))
        # the cycle file is in the graph's own ids: verify needs no --n
        cycle = tmp_path / "ladder.cycle"
        code, _ = run_json(capsys, "check", "--graph", str(path), "--out", str(cycle))
        assert code == 0
        code, payload = run_json(capsys, "verify", "--graph", str(path), "--cycle", str(cycle))
        assert code == 0 and payload["valid"] is True

    def test_check_on_a_relabelled_ladder_searches(self, capsys, tmp_path):
        # the same ladder in shuffled ids is no layer-major product, so the
        # search answers it, in as many nodes as before the entry split
        ladder = cartesian_product(path_graph(600), path_graph(2))
        labels = list(ladder.vertices())
        random.Random(0).shuffle(labels)
        g = Graph.from_edges(1200, [(labels[u - 1], labels[v - 1]) for u, v in ladder.edges])
        path = tmp_path / "shuffled.el"
        path.write_text(format_graph(g))
        code, payload = run_json(capsys, "check", "--graph", str(path))
        assert (code, payload["verdict"], payload["decided_by"], payload["nodes"]) == (
            0, "hamiltonian", "search", 2028)
        assert verify_cycle(g, parse_cycle(payload["cycle"]))


class TestParserReuse:
    def test_built_once_and_stateless(self, capsys, files, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counting_build():
            built.append(1)
            return build_parser()

        def outcome(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr().out

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        calls = [("check", "--n", "3", "--graph", files["p2"], "--json"),
                 ("check", "--n", "3", "--json"),  # no --graph: usage error
                 ("check", "--graph", files["fig1"], "--json")]
        reused = [outcome(argv) for argv in calls]
        assert len(built) == 1
        assert [code for code, _ in reused] == [0, 1, 0]
        assert json.loads(reused[0][1])["verdict"] == "hamiltonian"
        assert json.loads(reused[2][1])["verdict"] == "non_hamiltonian"
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(outcome(argv))
        assert len(built) == 1 + len(calls)
        assert fresh == reused


def two_level_parse(argv):
    """argparse's own dispatch: the top-level parser hands the rest of argv
    to the subcommand's parser."""
    return cli.build_parser().parse_args(argv)


def parse_outcome(capsys, parse, argv):
    """vars of the parsed Namespace, or the exit code."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as exc:
        outcome = exc.code
    capsys.readouterr()
    return outcome


# per command: valid argv, then the missing required argument, a bad int
# or float (pathfactor takes none: an option of another command), a bad
# choice and an unknown option, each as a variant of it
PARSE_TABLE = {
    "product": ("product --n 3 --graph g.el --out o.el --dot d.dot --json",
                "product --graph g.el", "product --n x --graph g.el",
                "product --n 3 --graph g.el --mode auto", "product --n 3 --graph g.el --k 3"),
    "hamcycle": ("hamcycle --n 10 --graph g.el --mode matching",
                 "hamcycle --n 10", "hamcycle --n 1.5 --graph g.el",
                 "hamcycle --n 10 --graph g.el --mode snake",
                 "hamcycle --n 10 --graph g.el --bogus"),
    "pathfactor": ("pathfactor --graph g.el --kind pm --json",
                   "pathfactor --kind pm", "pathfactor --graph g.el --n 3",
                   "pathfactor --graph g.el --kind p4", "pathfactor --graph g.el -x"),
    "toughness": ("toughness --graph g.el --one-tough --budget-seconds 2",
                  "toughness --one-tough", "toughness --graph g.el --budget-seconds soon",
                  "toughness --graph g.el --kind pm", "toughness --graph g.el --n 4"),
    "check": ("check --graph g.el --n 4 --max-nodes 10 --out c.cycle --json",
              "check --n 4", "check --graph g.el --max-nodes ten",
              "check --graph g.el --mode matching", "check --graph g.el --workers 2"),
    "verify": ("verify --graph g.el --cycle c.cycle --n 2",
               "verify --graph g.el", "verify --graph g.el --cycle c.cycle --n two",
               "verify --graph g.el --cycle c.cycle --kind pm",
               "verify --graph g.el --cycle c.cycle --out o"),
    "scan": ("scan 2 --max-h 5 --max-n 7 --workers 2 --budget-seconds 1 --json",
             "scan --max-h 5", "scan 1 --k three", "scan 3", "scan 2 --graph g.el"),
}
# abbreviations, help, and argv that names no command
PARSE_EXTRA = ("check --graph g.el --max 5", "scan 2 --max 5", "hamcycle --n 4 --gr g.el --mo matching",
               "toughness --graph g.el --one", "verify --gr g.el --cy c.cycle",
               "check -h", "scan --help", "-h", "", "bogus --graph g.el", "--json check",
               "check --graph g.el --graph h.el", "scan 2 extra")


class TestUsageContract:
    @pytest.mark.parametrize("argv", [*(a for row in PARSE_TABLE.values() for a in row),
                                      *PARSE_EXTRA])
    def test_one_level_parse_matches_argparse_dispatch(self, capsys, argv):
        # compare Namespaces and exit codes, not stderr: argparse's wording
        # differs between Python versions
        argv = argv.split()
        one = parse_outcome(capsys, cli._parse, argv)
        two = parse_outcome(capsys, two_level_parse, argv)
        assert one == two

    def test_parse_table_covers_every_command(self, capsys):
        # each row's first argv parses and every variant is a usage error
        assert set(PARSE_TABLE) == set(cli.build_parser().commands)
        for command, (valid, *invalid) in PARSE_TABLE.items():
            assert parse_outcome(capsys, cli._parse, valid.split())["command"] == command
            for argv in invalid:
                assert parse_outcome(capsys, cli._parse, argv.split()) == 1, argv

    def test_usage_errors_print_one_object(self, capsys, files):
        cases = [
            (["check", "--graph", files["p3"], "--n", "4", "--max-nodes", "-1", "--json"],
             "check"),
            (["scan", "1", "--k", "2", "--json"], "scan"),
            (["check", "--n", "4", "--json"], "check"),  # no --graph
            (["bogus", "--json"], None),
            (["--json"], None),
            # argparse takes --js for --json, so the object follows it
            (["check", "--n", "4", "--js"], "check"),
        ]
        for argv, command in cases:
            assert usage_error(capsys, *argv)["command"] == command, argv
        # without --json a usage error prints nothing on stdout
        with pytest.raises(SystemExit) as exc:
            main(["check", "--n", "4"])
        assert exc.value.code == 1 and capsys.readouterr().out == ""

    def test_help_prints_no_object(self, capsys):
        for argv in (["-h"], ["check", "-h", "--json"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: boxham")

    def test_negative_or_nan_budget_is_a_usage_error(self, capsys, files):
        for argv in (["check", "--graph", files["p3"], "--n", "4"],
                     ["toughness", "--graph", files["p3"], "--one-tough"],
                     ["scan", "1", "--k", "3"]):
            for budget in ("-1", "nan", "-inf"):
                payload = usage_error(capsys, *argv, f"--budget-seconds={budget}", "--json")
                assert payload["command"] == argv[0]
                assert payload["error"]["message"] == "--budget-seconds must be at least 0"
        # 0 is a deadline already past: the scan stops before its first base
        code, payload = run_json(capsys, "scan", "1", "--k", "3", "--budget-seconds", "0")
        assert (code, payload["status"], payload["examined"]) == (0, "truncated", 0)

    def test_module_entry_point_reads_sys_argv(self, files):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))

        def boxham(*argv):
            out = subprocess.run([sys.executable, "-m", "boxham.cli", *argv, "--json"],
                                 env=env, capture_output=True, text=True, timeout=60)
            return out.returncode, json.loads(out.stdout), out.stderr

        code, payload, _ = boxham("check", "--graph", files["p3"], "--n", "4")
        assert (code, payload["verdict"]) == (0, "hamiltonian")
        code, payload, err = boxham("check", "--n", "4")
        assert (code, payload["command"], payload["error"]["kind"]) == (1, "check", "usage")
        assert err.startswith("usage: boxham check")


class TestScan:
    def test_usage_error_on_small_k(self, capsys, files):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "1", "--k", "2"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_scan1_writes_report(self, capsys, files, tmp_path):
        out = tmp_path / "report.log"
        code, payload = run_json(capsys, "scan", "1", "--k", "3",
                                 "--max-order", "5", "--out", str(out))
        assert code == 0
        assert payload["status"] == "complete"
        assert out.read_text().startswith("scan below_layer_bound")

    def test_scan2_report(self, capsys, files, tmp_path):
        out = tmp_path / "report2.log"
        code, payload = run_json(capsys, "scan", "2", "--max-h", "6",
                                 "--max-n", "5", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "verdict=hamiltonian" in text
        assert payload["counterexamples"] == []
        assert payload["params"] == {"max_h_order": 6, "max_n": 5, "start_index": 0}


    def test_scan_prints_its_report(self, capsys):
        # without --json or --out, the report itself goes to stdout
        code, out, _ = run(capsys, "scan", "1", "--k", "3", "--max-order", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "scan below_layer_bound"
        assert "param k = 3" in lines and "status complete" in lines
        assert lines == oracle.format_scan_report(
            oracle.scan_below_layer_bound(3, 5)).splitlines()

    def test_order_past_the_tree_enumeration_cap_is_a_budget_error(self, capsys):
        code, payload = run_json(capsys, "scan", "1", "--k", "3", "--max-order", "13")
        assert code == 5 and payload["status"] == "error"
        assert payload["error"]["kind"] == "budget"

    def test_counterexample_bases_are_written(self, capsys, tmp_path, monkeypatch):
        t1 = fixtures().t1

        def scanner(k, max_order, **caps):
            return oracle.ScanReport("below_layer_bound", {"k": k}, (
                oracle.ScanEntry("t1", t1, 8, "non_hamiltonian", True),
                oracle.ScanEntry("t1", t1, 8, "non_hamiltonian", False),
            ), "complete", 1)

        monkeypatch.setattr(oracle, "scan_below_layer_bound", scanner)
        monkeypatch.chdir(tmp_path)
        code, payload = run_json(capsys, "scan", "1", "--k", "3")
        assert code == 0
        assert payload["counterexamples"] == [{"key": "t1", "layers": 8}]
        assert payload["counterexample_files"] == ["scan.cx0.edgelist"]
        assert parse_graph((tmp_path / "scan.cx0.edgelist").read_text()) == t1
        assert not (tmp_path / "scan.cx1.edgelist").exists()

    def test_workers_below_one_is_a_usage_error(self, capsys):
        for workers in ("0", "-3"):
            payload = usage_error(capsys, "scan", "1", "--k", "3", "--max-order", "4",
                                  "--workers", workers, "--json")
            assert payload["error"]["message"] == "--workers must be at least 1"


class TestStability:
    def test_json_byte_identical(self, capsys, files):
        # a benchmark hashes each answer's stdout and counts one that
        # changes between runs as a failure, so no payload may carry a
        # wall time or anything else that varies from run to run
        commands = [("hamcycle", "--n", "10", "--graph", files["fig4"]),
                    ("check", "--graph", files["fig1"]),
                    ("check", "--n", "4", "--graph", files["t1"]),
                    ("toughness", "--graph", files["fig1"]),
                    ("toughness", "--one-tough", "--graph", files["fig1"]),
                    ("pathfactor", "--graph", files["k13"]),
                    ("scan", "1", "--k", "3", "--max-order", "5")]
        for argv in commands:
            first, second = (run(capsys, *argv, "--json") for _ in range(2))
            assert first[0] == 0, argv
            assert first[1] == second[1], argv


# (seed, component sizes, chords, extra layers): trees and trees with one
# or two chords; an odd order has no perfect matching, so the last four
# take the {P2,P3} route at 4 * max degree - 2 layers
GOLDEN_BASES = (
    (1, (2,) * 8, 0, 0), (2, (2,) * 11, 0, 1), (3, (2,) * 9, 1, 0), (4, (2,) * 10, 2, 2),
    (5, (3, 2, 3, 2, 3), 0, 0), (6, (2, 3, 3, 2, 2, 3, 2), 0, 2),
    (7, (3, 3, 2, 3, 2), 1, 0), (8, (2, 3, 2, 3, 3, 2), 2, 0),
)
GOLDEN_SHA256 = "eaf45923319605aa5dfea5f4861427a1f7a3988189164be4ef53e1b14b974976"


def test_hamcycle_json_is_pinned(capsys, tmp_path):
    """The ``hamcycle --json`` answers on seeded bases, byte for byte."""
    digest = hashlib.sha256()
    for seed, sizes, chords, extra in GOLDEN_BASES:
        base = factor_tree(random.Random(seed), sizes, chords)
        path = tmp_path / f"golden{seed}.el"
        path.write_text(format_graph(base))
        dmax = max(base.degree(v) for v in base.vertices())
        route = "matching" if base.order % 2 == 0 else "pathfactor"
        n = dmax if route == "matching" else cycles.path_factor_min_layers(dmax)
        code, out, _ = run(capsys, "hamcycle", "--n", str(n + extra),
                           "--graph", str(path), "--json")
        assert code == 0 and json.loads(out)["mode"] == route
        assert base.size == base.order - 1 + chords
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def _hamcycle_sweep():
    """(base, argv tail, route) for 30 seeded bases: pairs only on the
    matching route, an odd order on the {P2,P3} route, and an even order
    with triples with the path-factor route forced; of each kind's ten
    bases, three are trees and the rest have one to three chords."""
    rng = random.Random(35)
    for i in range(30):
        kind, chords = i % 3, i // 3 % 4
        if kind == 0:
            sizes = (2,) * rng.randint(2, 10)
        else:
            sizes = [rng.choice((2, 3)) for _ in range(rng.randint(2, 7))]
            if (sum(sizes) % 2 == 0) == (kind == 1):
                sizes.append(3)
        base = factor_tree(rng, sizes, chords)
        dmax = max(base.degree(v) for v in base.vertices())
        extra = rng.randint(0, 2)
        if kind == 0:
            yield base, ("--n", str(dmax + extra)), "matching"
        else:
            n = cycles.path_factor_min_layers(dmax) + 2 * extra
            mode = ("--mode", "pathfactor") if kind == 2 else ()
            yield base, ("--n", str(n), *mode), "pathfactor"


SWEEP_SHA256 = "e157be77b13c30e025ab571cd72a487e01ae1772988afa7e67af3b187650bc36"


def test_hamcycle_json_sweep_is_pinned(capsys, tmp_path):
    """The ``hamcycle --json`` answers on 30 seeded bases, trees and not,
    on both routes, byte for byte."""
    digest = hashlib.sha256()
    seen = set()
    for i, (base, tail, route) in enumerate(_hamcycle_sweep()):
        path = tmp_path / f"sweep{i}.el"
        path.write_text(format_graph(base))
        code, out, _ = run(capsys, "hamcycle", "--graph", str(path), *tail, "--json")
        assert code == 0 and json.loads(out)["mode"] == route, (i, out)
        seen.add((route, base.size == base.order - 1))
        digest.update(out.encode())
    assert len(seen) == 4
    assert digest.hexdigest() == SWEEP_SHA256
