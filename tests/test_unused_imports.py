"""Every name a library module imports is used in that module."""

import ast
import os

import pytest

import stanley_lab

PACKAGE_DIR = os.path.dirname(stanley_lab.__file__)
MODULES = sorted(
    name for name in os.listdir(PACKAGE_DIR)
    if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nprint(d)\n") == [
        "os (line 1)", "c (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nx: int = 1\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
