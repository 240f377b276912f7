"""Every top-level import in the package's modules is used by that module.

Imports on a line marked `# noqa: F401` are deliberate re-exports (the
package `__init__`) and are exempt."""

import ast
from pathlib import Path

import pytest

import qshannon

MODULES = sorted(Path(qshannon.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1] or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []
