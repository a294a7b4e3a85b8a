import json

import pytest

from boxham import cli
from boxham.cli import main
from boxham.cycles import parse_cycle, verify_cycle
from boxham.graphs import (
    Graph,
    cartesian_product,
    complete_graph,
    format_graph,
    parse_graph,
    path_graph,
    star_graph,
)
from boxham.oracle import fixtures
from boxham.toughness import removal_stats
from helpers import caterpillar


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
        expect = [(files["k4"], "yes", "trivial"),
                  (files["p3"], "no", "bipartite_imbalance"),
                  (files["fig4"], "no", "matching_barrier"),
                  (str(p4), "no", "small_cut"),
                  (files["fig1"], "yes", "frontier_dp")]
        for path, verdict, decider in expect:
            code, payload = run_json(capsys, "toughness", "--graph", path, "--one-tough")
            assert code == 0
            assert (payload["verdict"], payload["decided_by"]) == (verdict, decider)
            assert isinstance(payload["nodes"], int)
            assert "cycle" not in payload
        code, payload = run_json(capsys, "toughness", "--graph", files["p3"], "--one-tough")
        assert payload["nodes"] == 0 and payload["witness"] == {"cut": [2], "components": 2}


class TestCheckVerify:
    def test_check_product_t1(self, capsys, files):
        code, payload = run_json(capsys, "check", "--n", "4", "--graph", files["t1"],
                                 "--budget-seconds", "120")
        assert code == 0 and payload["verdict"] == "non_hamiltonian"

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

    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("not a graph\n")
        code, payload = run_json(capsys, "check", "--graph", str(bad))
        assert code == 2 and payload["error"]["kind"] == "parse"

    def test_budget_exit(self, capsys, files):
        code, payload = run_json(capsys, "check", "--n", "4", "--graph", files["t1"],
                                 "--max-nodes", "3")
        assert code == 5 and payload["verdict"] == "unknown"

    def test_check_on_the_ladder(self, capsys, tmp_path):
        # P600 x K2 under layer-major ids: 1200 vertices, far past the
        # recursion limit for a search that recursed once per path vertex
        ladder = cartesian_product(path_graph(600), path_graph(2))
        path = tmp_path / "ladder.el"
        path.write_text(format_graph(ladder))
        code, payload = run_json(capsys, "check", "--graph", str(path))
        assert (code, payload["verdict"]) == (0, "hamiltonian")
        assert verify_cycle(ladder, parse_cycle(payload["cycle"]))


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


class TestStability:
    def test_json_byte_identical(self, capsys, files):
        _, out1, _ = run(capsys, "toughness", "--graph", files["fig1"], "--json")
        _, out2, _ = run(capsys, "toughness", "--graph", files["fig1"], "--json")
        assert out1 == out2
        _, out3, _ = run(capsys, "hamcycle", "--n", "10", "--graph", files["fig4"],
                         "--json")
        _, out4, _ = run(capsys, "hamcycle", "--n", "10", "--graph", files["fig4"],
                         "--json")
        assert out3 == out4
