"""Module boundaries inside ``src/boxham``: no module imports an
underscore name from a sibling, so each private helper has callers in
its own module only.  Importing a private module whole, such as
``from . import _pykernels``, stays allowed.  Every name a module
exports in ``__all__`` exists, so a deleted name cannot linger there.
Below the command line a time budget is one ``time.monotonic()``
deadline, never a count of seconds."""

import ast
import importlib
import inspect
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


def test_no_public_function_takes_budget_seconds():
    # the public names of each module: its __all__, or what it defines
    # without an underscore when it has none (kernels)
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("cli", "__init__") or path.stem.startswith("_"):
            continue
        module = importlib.import_module(f"boxham.{path.stem}")
        names = getattr(module, "__all__", None) or [
            name for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__]
        for name in names:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and "budget_seconds" in inspect.signature(obj).parameters:
                offenders.append(f"{module.__name__}.{name}")
    assert not offenders, offenders
