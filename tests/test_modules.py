"""Module boundaries inside ``src/boxham``: no module imports an
underscore name from a sibling, so each private helper has callers in
its own module only.  Importing a private module whole, such as
``from . import _pykernels``, stays allowed.  Every name a module
exports in ``__all__`` exists, so a deleted name cannot linger there."""

import ast
import importlib
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


def test_every_exported_name_exists():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "boxham" if path.stem == "__init__" else f"boxham.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert not missing, missing
