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
