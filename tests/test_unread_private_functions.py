"""Every top-level private function of a library module is read in the
library, and every top-level public one in the library, the tests or the
benchmark."""

import ast
import os

import stanley_lab

PACKAGE_DIR = os.path.dirname(stanley_lab.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reads(bodies) -> dict[str, set[int]]:
    """name -> ids of the top-level statements reading it: a name or an
    attribute load, or a string equal to the name (``getattr`` by name)."""
    reads: dict[str, set[int]] = {}
    for body in bodies:
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                reads.setdefault(name, set()).add(id(statement))
    return reads


def unread_functions(library: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function of the library that no
    statement reads, its own definition aside (recursion is no use).  A
    private function (``_name``) must be read in the library, a public one in
    the library or in ``readers``."""
    modules = {module: ast.parse(source).body for module, source in library.items()}
    own = _reads(modules.values())
    every = _reads([*modules.values(), *(ast.parse(source).body for source in readers.values())])
    return [
        f"{module}.{fn.name}"
        for module, body in modules.items()
        for fn in body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
        and not (own if fn.name.startswith("_") else every).get(fn.name, set()) - {id(fn)}
    ]


def _sources(directory: str, root: str) -> dict[str, str]:
    """Path under root, without ``.py`` -> source, of every Python file under
    directory."""
    sources = {}
    for folder, _, names in os.walk(directory):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    sources[os.path.relpath(path, root)[:-3]] = fh.read()
    return sources


def test_checker_flags_an_unread_function():
    library = {
        "a": (
            "def _used(): pass\n"
            "def _unread(): pass\n"
            "def _recursive(): return _recursive()\n"
            "def _decorator(f): return f\n"
            "def _read_by_a_test(): pass\n"
            "@_decorator\n"
            "def public(): return _used()\n"
            "def public_unread(): pass\n"
            "def public_recursive(): return public_recursive()\n"
            "def public_by_name(): pass\n"
        ),
        "b": "from . import a\nx = a._attribute_read\ndef _attribute_read(): pass\n",
    }
    readers = {
        "test_a": "from a import public, _read_by_a_test\npublic()\n_read_by_a_test()\n",
        "bench": "import a\ngetattr(a, 'public_by_name')()\n",
    }
    assert unread_functions(library, readers) == [
        "a._unread", "a._recursive", "a._read_by_a_test", "a.public_unread", "a.public_recursive",
    ]


def test_no_unread_functions():
    readers = {}
    for directory in ("tests", "perfbench"):
        readers.update(_sources(os.path.join(ROOT, directory), ROOT))
    assert unread_functions(_sources(PACKAGE_DIR, PACKAGE_DIR), readers) == []
