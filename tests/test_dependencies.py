"""The package imports the standard library, numpy and itself, and nothing else."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nfisac"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "nfisac"}


def imported_roots(path: Path) -> set[str]:
    """Top-level package of every absolute import in a module, at any depth of its code."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_every_module_imports_only_the_stdlib_numpy_and_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = {(path.name, root) for path in modules for root in imported_roots(path) - ALLOWED}
    assert not foreign
