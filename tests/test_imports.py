"""Module-level imports of the package that no module of it uses (no linter is installed)."""

import ast
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


def test_every_module_level_import_is_used():
    assert unused_imports(PACKAGE) == []
