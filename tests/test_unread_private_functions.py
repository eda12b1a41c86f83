"""Every top-level private function of a library module is read in the library."""

import ast
import os

import stanley_lab

PACKAGE_DIR = os.path.dirname(stanley_lab.__file__)


def unread_private_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level ``_name`` function that no statement
    of any module reads, its own definition aside (recursion is no use)."""
    defined = []
    reads: dict[str, set[int]] = {}  # name -> ids of the statements reading it
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            name = statement.name if isinstance(statement, ast.FunctionDef) else ""
            if name.startswith("_") and not name.startswith("__"):
                defined.append((module, statement))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add(id(statement))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.attr, set()).add(id(statement))
    return [
        f"{module}.{fn.name}"
        for module, fn in defined
        if not reads.get(fn.name, set()) - {id(fn)}
    ]


def test_checker_flags_an_unread_private_function():
    sources = {
        "a": (
            "def _used(): pass\n"
            "def _unread(): pass\n"
            "def _recursive(): return _recursive()\n"
            "def _decorator(f): return f\n"
            "@_decorator\n"
            "def public(): return _used()\n"
        ),
        "b": "from . import a\nx = a._attribute_read\ndef _attribute_read(): pass\n",
    }
    assert unread_private_functions(sources) == ["a._unread", "a._recursive"]


def test_no_unread_private_functions():
    sources = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as fh:
                sources[name[:-3]] = fh.read()
    assert unread_private_functions(sources) == []
