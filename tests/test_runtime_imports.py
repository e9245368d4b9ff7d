"""The runtime stays pure Python with no dependencies: every module of
placer imports only the standard library and placer itself."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "placer"

# The seed sweep forks with os and sends parts back with marshal, which
# the interpreter loads at start-up anyway.  These would add imports or
# helper threads, and every command pays its imports in set-up time.
BANNED = {"multiprocessing", "concurrent", "pickle", "subprocess"}


def imported_modules(path: Path) -> set[str]:
    """The top-level names of every module that `path` imports, at
    module level or inside a function; a relative import is placer."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("placer" if node.level else node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        modules = imported_modules(path)
        outside = {m for m in modules if m != "placer" and m not in sys.stdlib_module_names}
        assert not outside, f"{path.name} imports {sorted(outside)}"
        assert not modules & BANNED, f"{path.name} imports {sorted(modules & BANNED)}"


def unused_imports(path: Path) -> set[str]:
    """The names that `path` imports, at module level or inside a
    function, and never reads; `__future__` imports are directives."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used():
    # The package's __init__ imports to re-export.
    sources = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert sources
    for path in sources:
        assert not unused_imports(path), f"{path.name} never uses {sorted(unused_imports(path))}"
