"""Every module of the package uses each name it imports, and every
private name a module defines is read somewhere in the package.

No linter runs on this repository, so an import or a helper left behind
when code moves or is deleted would go unnoticed; these tests read each
module's syntax tree instead. __init__.py imports to re-export and is
not checked for unused imports.
"""
import ast

import pytest

from shared import REPO

PACKAGE = REPO / "src" / "hfgdm"
# Imported but not read: pipeline keeps energy and laplacian_energy as
# names of its own, which the benchmark's tracer rebinds and restores.
KEPT = {"pipeline.py": {"energy", "laplacian_energy"}}


def _unused_imports(tree: ast.Module) -> set[str]:
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("name", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_a_module_imports_only_what_it_uses(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == KEPT.get(name, set())


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import a, b\n"
                     "np.zeros(a)\n")
    assert _unused_imports(tree) == {"os", "b"}


def _read_names(tree: ast.Module) -> set[str]:
    """Every name tree reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module binds at its top level: the functions,
    classes and assigned names that start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _unread_private_names(trees: dict) -> set[tuple[str, str]]:
    """(module, name) for each private top-level name of the modules in
    trees that none of them reads."""
    read = set().union(*map(_read_names, trees.values()))
    return {(module, name) for module, tree in trees.items()
            for name in _private_definitions(tree) - read}


def test_every_private_name_is_read_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py")}
    assert _unread_private_names(trees) == set()


def test_an_unread_private_helper_is_found():
    trees = {"a.py": ast.parse("def _used(): pass\ndef _left(): pass\n"
                               "_TABLE = {}\n_x: int = 1\n__all__ = []\n"),
             "b.py": ast.parse("from a import _used\n_used()\nprint(_x)\n")}
    assert _unread_private_names(trees) == {("a.py", "_left"),
                                            ("a.py", "_TABLE")}
