"""Tests of the benchmark itself: checkers, generator, tracer, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

BOX = run.load_boxham()
MODS = vars(BOX)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# P3 x K2 and one of its Hamiltonian cycles
LADDER3 = (2, [(1, 2)])
CYCLE3 = "3 6\n1_1 2_1 3_1 3_2 2_2 1_2\n"


# ---------------------------------------------------------------------------
# checkers


def test_cycle_checker_accepts_a_cycle_and_rejects_corruptions():
    assert checks.check_cycle(CYCLE3, 3, *LADDER3) is None
    swapped = "3 6\n1_1 3_1 2_1 3_2 2_2 1_2\n"
    assert "not an edge" in checks.check_cycle(swapped, 3, *LADDER3)
    repeated = "3 6\n1_1 2_1 3_1 3_2 2_2 2_1\n"
    assert "repeats" in checks.check_cycle(repeated, 3, *LADDER3)
    short = "3 6\n1_1 2_1 3_1 3_2 2_2\n"
    assert "vertices" in checks.check_cycle(short, 3, *LADDER3)
    assert "header" in checks.check_cycle("2 6\n" + CYCLE3.split("\n")[1], 3, *LADDER3)


def test_cut_checker_rejects_a_non_witness():
    star = (4, [(1, 2), (1, 3), (1, 4)])
    assert checks.check_cut(*star, [1], 3) is None
    assert "components" in checks.check_cut(*star, [1], 2)   # miscounted
    path = (3, [(1, 2), (2, 3)])
    assert "only" in checks.check_cut(*path, [1], 1)          # c(G-S) <= |S|


def test_obstruction_toughness_and_factor_checkers():
    star = (4, [(1, 2), (1, 3), (1, 4)])
    assert checks.check_obstruction(*star, [1], 3) is None
    assert "isolates only" in checks.check_obstruction(*star, [2], 0)
    assert checks.check_toughness(*star, "1/3", [1], 3) is None
    assert "answer says" in checks.check_toughness(*star, "1/2", [1], 3)
    assert "above" in checks.check_toughness(*star, "1/3", [1], 3, bound=checks.Fraction(1, 4))
    path = (4, [(1, 2), (2, 3), (3, 4)])
    assert checks.check_factor(*path, [[1, 2], [3, 4]]) is None
    assert "non-edge" in checks.check_factor(*path, [[1, 3], [2, 4]])


def test_stdout_must_hold_exactly_one_json_object():
    assert checks.parse_json_object('{"a": 1}\n') == ({"a": 1}, None)
    _, reason = checks.parse_json_object('{"a": 1}\n{"b": 2}\n')
    assert reason and "2 lines" in reason
    assert checks.parse_json_object("")[1]
    assert checks.parse_json_object("[1]\n")[1]


def test_a_non_hamiltonian_verdict_on_a_grid_product_is_wrong():
    path, star = (4, [(1, 2), (2, 3), (3, 4)]), (4, [(1, 2), (1, 3), (1, 4)])
    assert checks.has_hamiltonian_path(*path)
    assert not checks.has_hamiltonian_path(*star)
    assert workloads.spans_grid(3, *path)
    assert not workloads.spans_grid(3, 3, [(1, 2), (2, 3)])  # P3 x P3 has 9 vertices
    no = run.Answer(payload={"verdict": "non_hamiltonian"})
    known = workloads.oracle_answer(3, *path, known_hamiltonian=True)
    assert "Hamiltonian graph" in known(no)
    assert workloads.oracle_answer(3, *star)(no) is None


def test_a_generated_request_rejects_a_corrupted_cycle(tmp_path):
    req = workloads.build("construct", 3, str(tmp_path), BOX, tiny=True)[0]
    a = run.execute(BOX.cli, req)
    assert run.judge(req, a) == run.Outcome()
    payload = json.loads(a.stdout)
    head, labels = payload["cycle"].split("\n", 1)
    labels = labels.split()
    labels[1], labels[2] = labels[2], labels[1]  # the product is bipartite
    payload["cycle"] = head + "\n" + " ".join(labels) + "\n"
    a.stdout = json.dumps(payload) + "\n"
    outcome = run.judge(req, a)
    assert outcome.failure == "wrong_answer" and "not an edge" in outcome.fatal


# ---------------------------------------------------------------------------
# generator


def _files(work):
    out = {}
    for name in sorted(os.listdir(work)):
        with open(os.path.join(work, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        workloads.build(name, seed, str(d), BOX, tiny=True)
    assert _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])


def test_generated_bases_have_the_promised_structure():
    rng = gen.random.Random(3)
    order, edges = gen.p23_graph(rng, 101, 3)
    assert gen.is_connected(order, edges) and len(edges) == order - 1
    order, edges, witness = gen.no_factor_graph(rng, 14, "bipartite")
    assert gen.is_connected(order, edges)
    assert checks.bipartite_sides(order, edges) is not None
    _, isolated = checks.removal_counts(order, edges, witness)
    assert isolated > 2 * len(witness)
    order, edges, _ = gen.no_factor_graph(rng, 14, "general")
    assert checks.bipartite_sides(order, edges) is None


# ---------------------------------------------------------------------------
# harness


class FakeCli:
    """Stands in for boxham.cli: prints a canned stdout per subcommand."""

    def __init__(self, replies):
        self.replies = replies
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        text, code = self.replies[argv[0]]
        print(text(self.calls) if callable(text) else text, end="")
        return code


def _loop(replies, requests):
    box = types.SimpleNamespace(cli=FakeCli(replies))
    loop = run.Loop(box, requests, yardstick.Yardstick())
    loop.run_pass()
    loop.run_pass()
    return loop


def test_latencies_are_scaled_to_the_reference_speed():
    yard = yardstick.Yardstick()
    assert yard.scale(yardstick.REF_S, yardstick.REF_S) == 1
    # a host running at half speed doubles both the yardstick and the request
    assert yard.scale(yardstick.REF_S, 3 * yardstick.REF_S) == 0.5
    loop = _loop({"check": ('{"status": "ok"}\n', 0)},
                 [workloads.Request("check", 1, ["check"], workloads.unchecked)] * 3)
    # one at construction; per pass, one before the first request and one after each
    assert len(loop.yard.samples) == 1 + 2 * (1 + 3)
    for p in loop.passes:
        assert 0 < p.verified_s == pytest.approx(sum(p.latencies))


def test_two_json_objects_count_as_a_failure():
    loop = _loop({"check": ('{"status": "ok"}\n{"status": "ok"}\n', 0)},
                 [workloads.Request("check", 1, ["check"], workloads.unchecked)])
    assert loop.failures == {"json": 2} and not loop.fatal


def test_contradicting_verdicts_are_fatal():
    ham = json.dumps({"status": "ok", "verdict": "hamiltonian"}) + "\n"
    not_tough = json.dumps({"status": "ok", "verdict": "no"}) + "\n"
    loop = _loop({"check": (ham, 0), "toughness": (not_tough, 0)},
                 [workloads.Request("check", 1, ["check"], workloads.unchecked, group="x"),
                  workloads.Request("toughness", 1, ["toughness"], workloads.unchecked,
                                    group="x")])
    assert loop.failures == {"contradiction": 2}
    assert "Hamiltonian but not 1-tough" in loop.fatal[0]


def test_answers_that_change_between_passes_are_fatal():
    def reply(calls):
        return json.dumps({"status": "ok", "verdict": "v%d" % calls}) + "\n"
    loop = _loop({"check": (reply, 0)},
                 [workloads.Request("check", 1, ["check"], workloads.unchecked)])
    assert loop.failures == {"nondeterministic": 1}


def test_exit_code_must_match_the_cli_table():
    budget = json.dumps({"status": "error", "error": {"kind": "budget"}}) + "\n"
    loop = _loop({"hamcycle": (budget, 4)},
                 [workloads.Request("hamcycle", 1, ["hamcycle"], workloads.unchecked)])
    assert loop.failures == {"exit_code": 2}
    loop = _loop({"hamcycle": (budget, 5)},
                 [workloads.Request("hamcycle", 1, ["hamcycle"], workloads.unchecked,
                                           certificate_expected=True)])
    assert loop.failures == {"no_certificate": 2} and loop.unknown == 2


def test_tracer_rebinds_every_import_and_restores_it():
    cycles, factors = MODS["cycles"], MODS["factors"]
    original = factors.find_perfect_matching
    tr = tracing.Tracer(MODS)
    tr.install()
    try:
        assert cycles.find_perfect_matching is factors.find_perfect_matching
        assert factors.find_perfect_matching is not original
        g = MODS["graphs"].path_graph(4)
        cycles.build_cycle(2, g)
    finally:
        tr.close()
    assert cycles.find_perfect_matching is original is factors.find_perfect_matching
    st = tr.stats
    assert st["factors.find_perfect_matching"].calls == 1
    assert st["cycles.build_cycle"].s >= st["cycles.build_cycle_matching"].s > 0
    assert st["cycles.build_cycle"].self_s < st["cycles.build_cycle"].s


@pytest.mark.parametrize("corrupt", [False, True])
def test_compiled_kernel_calls_replay_on_the_pure_backend(monkeypatch, corrupt):
    pure = MODS["_pykernels"]
    pure_ham_cycle = pure.ham_cycle  # bound now: the tracer marks pure.ham_cycle

    def ham_cycle(*args):
        status, order, nodes = pure_ham_cycle(*args)
        return status, order, nodes + corrupt

    fake = types.SimpleNamespace(ham_cycle=ham_cycle, scattering_max=pure.scattering_max,
                                 toughness_scan=pure.toughness_scan,
                                 count_isolated=pure.count_isolated,
                                 count_components=pure.count_components)
    kernels = MODS["kernels"]
    monkeypatch.setattr(kernels, "_fast", fake)
    tr = tracing.Tracer(dict(MODS, _ckernels=fake))
    tr.install()
    try:
        g = MODS["graphs"].cartesian_product(MODS["graphs"].path_graph(3), MODS["graphs"].path_graph(2))
        kernels.ham_cycle(g)
        kernels.count_isolated_after(g, {1})
    finally:
        tr.close()
    assert tr.stats["kernels.ham_cycle"].pure_calls == 0
    assert tr.stats["kernels.count_isolated_after"].pure_calls == 1
    assert len(tr.replay) == 1
    assert bool(tr.replay_on_pure()) == corrupt


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_at_tiny_size(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_REQUESTS", 1)
    result, info = run.run(name, 3, 0, trace, str(tmp_path / "w"), tiny=True)
    assert result["correct"], info["wrong_answers"]
    assert result["failed"] == 0, info["failed_by_kind"]
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_no_source_tree_means_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
