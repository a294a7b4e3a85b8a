"""Module boundaries inside ``src/boxham``: no module imports an
underscore name from a sibling, so each private helper has callers in
its own module only.  Importing a private module whole, such as
``from . import _pykernels``, stays allowed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boxham"


def test_no_private_names_cross_modules():
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                crossings += [f"{path.name}: {node.module}.{alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not crossings, crossings
