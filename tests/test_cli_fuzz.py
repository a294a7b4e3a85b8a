"""Seeded fuzz of the command line: ``cli.main`` runs in-process on argv
lists drawn from ``random.Random(30)`` over all seven commands, small,
broken and missing graph files, and the boundary values of every numeric
option.  Each outcome must keep the exit-code and --json contract.  No
argv starts a process pool (--workers is 0 or 1), and the scans stay at
base order 5 and layer count 5."""

import json
import random

from boxham import cli
from boxham.cycles import HamCycle, format_cycle
from boxham.graphs import cycle_graph, format_graph, path_graph, star_graph
from boxham.oracle import fixtures

COMMANDS = ("product", "hamcycle", "pathfactor", "toughness", "check", "verify", "scan")
RUNS = 210  # 30 per command

N = ("-1", "0", "1", "2", "4")
MAX_NODES = ("-1", "0", "1")
BUDGET = ("-1", "0", "nan", "0.01")

# per command: (flag, values or None for a switch, the chance it is passed);
# "<out>" and "<cycle>" are filled in from the files of the run
OPTIONS = {
    "product": [("--n", N, 0.9), ("--out", "<out>", 0.3), ("--dot", "<out>", 0.3)],
    "hamcycle": [("--n", N, 0.9), ("--mode", ("auto", "matching", "pathfactor"), 0.5),
                 ("--out", "<out>", 0.3), ("--dot", "<out>", 0.3)],
    "pathfactor": [("--kind", ("pm", "p23"), 0.7)],
    "toughness": [("--one-tough", None, 0.7), ("--budget-seconds", BUDGET, 0.4)],
    "check": [("--n", N, 0.7), ("--max-nodes", MAX_NODES, 0.4),
              ("--budget-seconds", BUDGET, 0.4), ("--out", "<out>", 0.3)],
    "verify": [("--n", N, 0.5), ("--cycle", "<cycle>", 0.9)],
    "scan": [("--k", ("2", "3", "3"), 0.9), ("--max-nodes", MAX_NODES, 0.3),
             ("--budget-seconds", BUDGET, 0.3), ("--workers", ("0", "1", "1"), 0.4),
             ("--out", "<out>", 0.3)],
}

# always passed to scan, so that no scan outgrows the test
SCAN_CAPS = [("--max-order", ("-1", "0", "3", "5")), ("--max-h", ("-1", "0", "2", "4")),
             ("--max-n", ("-1", "0", "1", "3", "5"))]

BROKEN = ("malformed", "empty", "binary", "missing")


def write_files(tmp_path) -> dict[str, str]:
    texts = {
        "p3": format_graph(path_graph(3)),
        "c4": format_graph(cycle_graph(4)),
        "k13": format_graph(star_graph(3)),
        "t1": format_graph(fixtures().t1),
        "disconnected": "4 2\n1 2\n3 4\n",
        "one_vertex": "1 0\n",
        "malformed": "not a graph\n",
        "empty": "",
        "binary": b"\xff\xfe\x00\x81",
        "c4_cycle": format_cycle(HamCycle(1, 4, (1, 2, 3, 4))),
    }
    paths = {"missing": str(tmp_path / "missing.el")}
    for name, text in texts.items():
        path = tmp_path / f"{name}.el"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def draw(rng: random.Random, command: str, paths: dict[str, str], tmp_path):
    """(argv, names of the input files it reads)."""
    # each readable graph twice as often as each broken file
    graphs = [name for name in paths if name != "c4_cycle"]
    graphs += [name for name in graphs if name not in BROKEN]
    argv, inputs = [command], []
    if command == "scan":
        argv.append(rng.choice(("1", "2")))
        for flag, values in SCAN_CAPS:
            argv += [flag, rng.choice(values)]
    else:
        inputs.append(rng.choice(graphs))
        argv += ["--graph", paths[inputs[-1]]]
    for flag, values, chance in OPTIONS[command]:
        if rng.random() >= chance:
            continue
        if values == "<out>":
            # a directory cannot be written: an I/O error
            argv += [flag, rng.choice((str(tmp_path / "out"), str(tmp_path)))]
        elif values == "<cycle>":
            inputs.append(rng.choice(graphs + ["c4_cycle"] * 3))
            argv += [flag, paths[inputs[-1]]]
        else:
            argv += [flag] if values is None else [flag, rng.choice(values)]
    if rng.random() < 0.85:
        argv.append("--json")
    return argv, inputs


def outcome(capsys, argv):
    """(exit code, stdout, escaped): ``escaped`` is True when main raised
    SystemExit rather than returning."""
    try:
        code, escaped = cli.main(argv), False
    except SystemExit as exc:
        code, escaped = exc.code, True
    return code, capsys.readouterr().out, escaped


def test_seeded_cli_fuzz(capsys, tmp_path, monkeypatch):
    # a scan writes counterexample bases next to its report, or here
    monkeypatch.chdir(tmp_path)
    paths = write_files(tmp_path)
    rng = random.Random(30)
    seen = set()
    for i in range(RUNS):
        command = COMMANDS[i % len(COMMANDS)]
        argv, inputs = draw(rng, command, paths, tmp_path)
        code, out, escaped = outcome(capsys, argv)
        seen.add((command, code))
        assert code in range(6) and (not escaped or code == 1), (argv, code)
        if "--json" not in argv:
            continue
        assert out.count("\n") == 1, (argv, out)
        payload = json.loads(out)
        assert isinstance(payload, dict), argv
        status, error = payload["status"], payload.get("error", {})
        if escaped:
            assert (status, error["kind"]) == ("error", "usage"), (argv, payload)
            continue
        if code == 0:
            assert status in (("complete", "truncated") if command == "scan" else ("ok",))
        elif code == 5:
            assert ((status, error.get("kind")) == ("error", "budget")
                    or (status, payload.get("verdict")) == ("ok", "unknown")), (argv, payload)
        else:
            assert status == "error", (argv, payload)
            assert code == (1 if error["kind"] == "usage" else cli._ERROR_KINDS[error["kind"]])
        if any(name in BROKEN for name in inputs):
            assert (code, error["kind"]) == (2, "parse"), (argv, payload)
    # every command ran, and got past the parser at least once
    assert {c for c, code in seen if code != 1} == set(COMMANDS)
