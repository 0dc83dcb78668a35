"""The independence invariants, read from the import graph of the sources.

Lattice counting, the pyramid volume and the h-vector are the sides each
identity holds localization to, so toricpick.lattice, toricpick.polytope and
toricpick.series must reach neither toricpick.localization nor
toricpick.invariants, directly or through another module of the package.
The sources are parsed with ast, so an import inside a function counts too.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "toricpick")
INDEPENDENT = ("lattice", "polytope", "series")
LOCALIZED = {"localization", "invariants"}


def package_imports(source):
    """The modules of the package that a source imports, by their short names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            found.update(path[1] for path in paths if path[0] == "toricpick" and path[1:])
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[0] != "toricpick":
                    continue
                path = path[1:]
            # `from . import series` and `from toricpick import series` name the module last
            found.update(path[:1] or [alias.name for alias in node.names])
    return found


def reached(module):
    """Every module of the package that module imports, directly or not."""
    seen, stack = set(), [module]
    while stack:
        with open(os.path.join(SRC, stack.pop() + ".py"), encoding="utf-8") as handle:
            for name in package_imports(handle.read()) - seen:
                seen.add(name)
                stack.append(name)
    return seen


def test_the_reader_finds_every_form_of_import():
    source = ("from .polytope import derived\nfrom . import series\n"
              "from toricpick import agw\n"
              "import toricpick.exact\nfrom toricpick.errors import InputError\n"
              "import json\nfrom fractions import Fraction\n"
              "def late():\n    from .localization import localize\n")
    assert package_imports(source) == {"polytope", "series", "agw", "exact", "errors",
                                       "localization"}


@pytest.mark.parametrize("module", INDEPENDENT)
def test_the_independent_sides_never_reach_localization(module):
    assert not reached(module) & LOCALIZED, sorted(reached(module))


def test_the_localized_modules_do_reach_the_independent_ones():
    # so the walk above follows real edges
    assert {"lattice", "polytope", "series", "localization"} <= reached("invariants")
