"""The source distribution agrees with the tracked files: every ``include``
line of ``MANIFEST.in`` names files that exist, and the sdist ships what
the benchmark tests read."""

import ast
from fnmatch import fnmatch
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def manifest_rules():
    """The ``include`` patterns, and the ``recursive-include`` patterns by
    directory, of ``MANIFEST.in``."""
    includes, recursive = [], {}
    for line in (ROOT / "MANIFEST.in").read_text(encoding="utf-8").splitlines():
        words = line.split()
        if words[:1] == ["include"]:
            includes += words[1:]
        elif words[:1] == ["recursive-include"]:
            recursive.setdefault(words[1], []).extend(words[2:])
    return includes, recursive


def root_entries_named(path):
    """Repo-root files and directories that a string literal of the Python
    file names as its first path part; hidden ones (caches) left out."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            first = node.value.split("/")[0]
            if (first and not first.startswith(".") and "\n" not in first
                    and (ROOT / first).exists()):
                found.add(first)
    return found


def test_manifest_includes_exist():
    includes, _ = manifest_rules()
    assert includes
    for pattern in includes:
        assert any(path.is_file() for path in ROOT.glob(pattern)), pattern


def test_manifest_ships_what_the_benchmark_tests_read():
    # the entries test_benchmarks.py names, and those named by the scripts
    # and the suite it runs from the directories among them
    read = root_entries_named(ROOT / "tests" / "test_benchmarks.py")
    for name in sorted(read):
        if (ROOT / name).is_dir():
            for script in (ROOT / name).rglob("*.py"):
                read |= root_entries_named(script)
    read.discard("src")  # setuptools ships the package itself
    assert {"BENCH_kernels.json", "BENCH_cli.json", "benchmarks", "perfbench"} <= read
    includes, recursive = manifest_rules()
    for name in sorted(read):
        path = ROOT / name
        if path.is_file():
            assert any(fnmatch(name, p) for p in includes), name
            continue
        assert name in recursive, name
        for f in path.rglob("*"):
            parts = f.relative_to(path).parts
            if f.is_file() and not any(p.startswith((".", "__pycache__")) for p in parts):
                assert any(fnmatch(f.name, p) for p in recursive[name]), f
