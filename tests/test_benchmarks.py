"""The scripts in ``benchmarks/`` and the benchmark's own test suite, each
run as a subprocess on this checkout's ``src``.

``perfbench/tests`` gets a process of its own: its loader drops and
re-imports every ``boxham`` module, which would leave the tests here
holding stale classes.  It guards the names and call chains that
``perfbench/tracer.py`` binds to, such as ``oracle.find_hamiltonian_cycle``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_bench_scripts_run_and_validate():
    for kind in ("matching", "p23"):
        out = run("benchmarks/bench_builder.py", "--row", kind, "1000")
        assert out.returncode == 0, out.stderr
        row = json.loads(out.stdout.splitlines()[-1])
        assert row["kind"] == kind
        flags = (row["contract_ok"], row["verify_product_cycle_ok"], row["verify_cycle_ok"])
        assert flags == (True, True, True), row


def test_bench_kernels_file_matches_its_pins(tmp_path):
    # the quick set stops with an error when a pinned node count or
    # deciding stage changes, so a clean run's rows are the pins
    out = run("benchmarks/bench_kernels.py", "--out", str(tmp_path / "BENCH_kernels.json"))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "check --n" in out.stdout
    fresh = json.loads((tmp_path / "BENCH_kernels.json").read_text())
    committed = json.loads((ROOT / "BENCH_kernels.json").read_text())

    def pins(report):
        return [(r["table"], r["instance"], r["decided_by"], r["nodes"]) for r in report["rows"]]

    assert pins(committed) == pins(fresh)
    assert {r["table"] for r in fresh["rows"]} == {"kernel", "is_one_tough", "check --n",
                                                    "cli.main"}
    for report in (fresh, committed):
        assert report["backend"] and report["python"] and report["nproc"] >= 1
        assert all(r["seconds"] >= 0 for r in report["rows"])
        assert all(r["median_us"] > 0 and 0 < r["parse_share"] < 1
                   for r in report["rows"] if r["table"] == "cli.main")


def test_bench_cli_file_matches_its_pins(tmp_path):
    # the script stops with an error when a command's exit code, answer,
    # deciding stage or nodes differ from its pins; the times are not checked
    out = run("benchmarks/bench_cli.py", "--quick", "--out", str(tmp_path / "BENCH_cli.json"))
    assert out.returncode == 0, out.stdout + out.stderr
    fresh = json.loads((tmp_path / "BENCH_cli.json").read_text())
    committed = json.loads((ROOT / "BENCH_cli.json").read_text())

    def pins(report):
        return [(r["command"], r["exit_code"], r["answer"], r["decided_by"], r["nodes"])
                for r in report["rows"]]

    assert pins(committed) == pins(fresh)
    assert not committed["quick"] and all(r["runs"] >= 11 for r in committed["rows"])
    for report in (fresh, committed):
        assert all(r["median_s"] > 0 for r in report["rows"])
        imports = report["import_time"]
        assert imports["boxham.cli_cumulative_us"] > 0
        assert {"boxham", "boxham.cli", "boxham.graphs"} <= set(imports["self_us"])


def test_perfbench_suite_passes():
    out = run("-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert " passed" in out.stdout.splitlines()[-1]
