"""Module boundaries inside ``src/boxham``: no module imports an
underscore name from a sibling, so each private helper has callers in
its own module only.  Importing a private module whole, such as
``from . import _pykernels``, stays allowed.  Every name a module
exports in ``__all__`` exists, so a deleted name cannot linger there.
Below the command line a time budget is one ``time.monotonic()``
deadline, never a count of seconds.  No module of the package, the tests
or the benchmarks imports a name it never uses.  Every exception class
marks a distinction: the package tells it apart, or it carries data."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boxham"


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


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads; a name in ``__all__`` is read."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for folder in (PACKAGE, ROOT / "tests", ROOT / "benchmarks")
              for path in sorted(folder.glob("*.py")) for name in unused_imports(path)]
    assert not unused, unused


def type_tested_names(path: Path) -> set[str]:
    """Names that an ``except`` clause or an ``isinstance`` call in ``path``
    tests against."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            tested = node.type
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            tested = node.args[1]
        else:
            continue
        names.update(n.id for n in ast.walk(tested) if isinstance(n, ast.Name))
    return names


def test_every_error_class_makes_a_distinction():
    # PreconditionFailedError is the one class for a precondition that no
    # code tells apart from another; every other class is caught or tested
    # by type in the package, or defines its own __init__ to carry data
    from boxham import errors
    tested = set().union(*map(type_tested_names, PACKAGE.glob("*.py")))
    idle = [name for name, obj in vars(errors).items()
            if isinstance(obj, type) and obj.__module__ == errors.__name__
            and obj is not errors.PreconditionFailedError
            and name not in tested and "__init__" not in vars(obj)]
    assert not idle, idle
