"""The fixed point Chern route shares no code with the class route.

Route one of chern_number (_chern_fixed_point, through its own vertex sum
_vertex_sum) and the Gysin powers sum their own weights; the class route
localizes a restriction (localize, _fixed_point_value, _chern_restriction).  The
source of toricpick.localization is parsed with ast, and every name the
route-one functions use is followed through the module's own functions and
classes, so a shared helper counts too.
"""

import ast
import os

import pytest

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src",
                      "toricpick", "localization.py")
ROUTE_ONE = ("_chern_fixed_point", "_vertex_sum", "gysin_power")
CLASS_ROUTE = {"localize", "_fixed_point_value", "_chern_restriction"}


def definitions(source):
    """Module-level functions and classes by name, as ast nodes."""
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def used_names(node):
    """Every name and attribute a definition reads, nested functions included."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def reached(source, root):
    """Every name root uses, directly or through the module's definitions
    that it uses."""
    defs = definitions(source)
    seen, stack = set(), [root]
    while stack:
        for name in used_names(defs[stack.pop()]) - seen:
            seen.add(name)
            if name in defs:
                stack.append(name)
    return seen


def read():
    with open(SOURCE, encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("root", ROUTE_ONE)
def test_route_one_reaches_nothing_of_the_class_route(root):
    source = read()
    assert set(ROUTE_ONE) | CLASS_ROUTE <= set(definitions(source))
    assert not reached(source, root) & CLASS_ROUTE, sorted(reached(source, root))


def test_the_class_route_is_reached_where_it_is_used():
    # so the walk above follows real edges: chern_number runs both routes
    assert {"_chern_fixed_point", "_vertex_sum", "localize", "_fixed_point_value",
            "_chern_restriction"} <= reached(read(), "chern_number")


def test_a_vertex_sum_through_the_one_division_is_found():
    # the last definition of a name wins, as at import: _vertex_sum redefined
    # to divide by _fixed_point_value puts it in every route-one function's reach
    source = read() + ("\ndef _vertex_sum(charts, weights, numerator):\n"
                       "    return _fixed_point_value([0], 1, 1)\n")
    for root in ROUTE_ONE:
        assert "_fixed_point_value" in reached(source, root) & CLASS_ROUTE, root


def test_a_shared_helper_is_found():
    source = ("def helper(x):\n    return FixedPointSum(x)\n"
              "class FixedPointSum:\n    pass\n"
              "def _vertex_sum(p):\n    return [helper(p) for _ in p]\n"
              "def gysin_power(p):\n    return _vertex_sum(p)\n"
              "def _chern_fixed_point(p):\n    return p.localize\n")
    assert "FixedPointSum" in reached(source, "gysin_power")
    assert "localize" in reached(source, "_chern_fixed_point")
