"""Module-level imports of the package that no module of it uses (no linter is installed)."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schwarzball"


def _bound_names(tree):
    """(name, line) of each name a module-level import statement binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(package: Path) -> list[str]:
    """``file:line name`` of each module-level import of a module (``__init__.py`` excepted)
    that the module never reads and no module of the package takes from it, by
    ``from .module import name`` or ``module.name``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    taken = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                taken.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                taken.add((node.value.id, node.attr))
    unused = []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{stem}.py:{line} {name}" for name, line in _bound_names(tree)
                   if name not in read and (stem, name) not in taken]
    return unused


# imports their module no longer reads, and why they stay: perfbench/smoke.py checks
# that its tracer wraps bergman's binding of schwarzian_of, which bergman stopped
# calling when its norms took the S^k-only route
KEPT_IMPORTS = {"bergman.py schwarzian_of"}


def test_every_module_level_import_is_used():
    unused = {re.sub(r":\d+ ", " ", entry) for entry in unused_imports(PACKAGE)}
    assert unused <= KEPT_IMPORTS


BENCH = Path(__file__).resolve().parents[1] / "perfbench"
# exports no module of the package or of the benchmark reads yet, and why they stay:
# acceptance criterion 6 reads map_eval, and ROADMAP item 3 gives membership_check
# its first caller
UNREAD_EXPORTS = {"map_eval", "membership_check"}


def unread_exports(package: Path, bench: Path) -> set[str]:
    """Names ``__init__.py`` takes from the package's modules that no other module of
    the package and no ``perfbench/*.py`` reads, as a name or as an attribute."""
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {name for name, _ in _bound_names(init)}
    read = set()
    for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py")):
        if path == package / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return exported - read


def test_every_export_is_read_or_kept_for_a_named_reason():
    assert unread_exports(PACKAGE, BENCH) <= UNREAD_EXPORTS
