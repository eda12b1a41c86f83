"""The module layer stands below the graph layer, and each rule has one home.

``monomials``, ``stanley``, ``sdepth`` and ``depth`` see only modules: inside
the package they import from ``errors``, ``monomials`` and ``stanley`` alone.
The closed forms in graph invariants live in ``bounds``.
"""

import ast
import os

import pytest

import stanley_lab

PACKAGE_DIR = os.path.dirname(stanley_lab.__file__)
PACKAGE = "stanley_lab"
MODULE_LAYER = ("monomials", "stanley", "sdepth", "depth")
BELOW_GRAPHS = {"errors", "monomials", "stanley"}


def package_imports(source: str) -> set[str]:
    """The package modules that a source imports from, relatively or by the
    package name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == PACKAGE:
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts:
                found.add(parts[0])
            else:  # from . import x, or from stanley_lab import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and len(parts) > 1:
                    found.add(parts[1])
    return found


def read(module: str) -> str:
    with open(os.path.join(PACKAGE_DIR, f"{module}.py"), encoding="utf-8") as fh:
        return fh.read()


def test_checker_finds_package_imports():
    source = (
        "import os\n"
        "from typing import NamedTuple\n"
        "from .errors import InputError\n"
        "from .stanley import generator_corner as scan_corner\n"
        "from . import graphs\n"
        "from stanley_lab.bounds import module_for\n"
        "from stanley_lab import sweeps\n"
        "import stanley_lab.cli\n"
    )
    assert package_imports(source) == {"errors", "stanley", "graphs", "bounds", "sweeps", "cli"}


@pytest.mark.parametrize("module", MODULE_LAYER)
def test_module_layer_imports_only_modules(module):
    assert package_imports(read(module)) <= BELOW_GRAPHS


def test_quotient_power_minimum_is_stated_once():
    sources = [read(name[:-3]) for name in os.listdir(PACKAGE_DIR) if name.endswith(".py")]
    assert sum(source.count("S/I^k needs k >= 1") for source in sources) == 1
