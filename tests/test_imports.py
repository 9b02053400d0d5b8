"""Every name a module of the package imports is referenced in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "consensus_lab"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name that ``source`` imports and never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_a_name_never_referenced():
    source = "import os\nimport os.path as osp\nfrom math import pi, tau as t\nprint(pi, osp.sep)\n"
    assert unused_imports(source) == [(1, "os"), (3, "t")]


# __init__.py imports names to re-export them
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
