"""Every private function or method of a library module is read in the
library, and every public one in the library, the tests or the benchmark.
Methods are the functions defined in class bodies; dunders are skipped."""

import ast
import os

import stanley_lab

PACKAGE_DIR = os.path.dirname(stanley_lab.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _units(body):
    """The statements of a module body, with each class split into its
    decorators, bases and body statements, so that a method is a unit of its
    own and a read by a sibling method counts."""
    for statement in body:
        if isinstance(statement, ast.ClassDef):
            yield from statement.decorator_list + statement.bases + statement.keywords
            yield from _units(statement.body)
        else:
            yield statement


def _reads(bodies) -> dict[str, set[int]]:
    """name -> ids of the units reading it: a name or an attribute load, or a
    string equal to the name (``getattr`` by name)."""
    reads: dict[str, set[int]] = {}
    for body in bodies:
        for unit in _units(body):
            for node in ast.walk(unit):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                reads.setdefault(name, set()).add(id(unit))
    return reads


def _functions(body, prefix=""):
    """(qualified name, node) of each function in a module body and, as
    ``Class.method``, in its class bodies."""
    for statement in body:
        if isinstance(statement, ast.ClassDef):
            yield from _functions(statement.body, f"{prefix}{statement.name}.")
        elif isinstance(statement, ast.FunctionDef):
            yield prefix + statement.name, statement


def unread_functions(library: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.name`` of each function or method of the library that no unit
    reads, its own definition aside (recursion is no use).  A private one
    (``_name``) must be read in the library, a public one in the library or
    in ``readers``."""
    modules = {module: ast.parse(source).body for module, source in library.items()}
    own = _reads(modules.values())
    every = _reads([*modules.values(), *(ast.parse(source).body for source in readers.values())])
    return [
        f"{module}.{name}"
        for module, body in modules.items()
        for name, fn in _functions(body)
        if not fn.name.startswith("__")
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


def test_checker_flags_an_unread_method():
    library = {
        "a": (
            "def _base(): return object\n"
            "class C(_base()):\n"
            "    def __init__(self): self._helper()\n"
            "    def _helper(self): pass\n"
            "    def _unread(self): pass\n"
            "    def _recursive(self): return self._recursive()\n"
            "    def _read_by_a_test(self): pass\n"
            "    def public(self): pass\n"
            "    def public_unread(self): pass\n"
            "    class Inner:\n"
            "        def _nested_unread(self): pass\n"
        ),
    }
    readers = {"test_a": "from a import C\nC().public()\nC()._read_by_a_test()\n"}
    assert unread_functions(library, readers) == [
        "a.C._unread", "a.C._recursive", "a.C._read_by_a_test", "a.C.public_unread",
        "a.C.Inner._nested_unread",
    ]


def test_no_unread_functions():
    readers = {}
    for directory in ("tests", "perfbench"):
        readers.update(_sources(os.path.join(ROOT, directory), ROOT))
    assert unread_functions(_sources(PACKAGE_DIR, PACKAGE_DIR), readers) == []
