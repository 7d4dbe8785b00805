"""Every module of the package uses each name it imports.

No linter runs on this repository, so an import left behind when a
helper moves between modules would go unnoticed; this test reads each
module's syntax tree instead. __init__.py imports to re-export and is
not checked.
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
