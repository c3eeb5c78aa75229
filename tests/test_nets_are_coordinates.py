"""A net is its coordinates.

A uniform net is the grid of its direction space, held as coordinates,
and its descriptors are formatted from them: no ``Direction`` object is
made for a grid point.  ``Direction`` objects are made in ``geometry``
(the log map) and, for the explicit directions of a JSON net spec, in
``harness._directions_from_spec``.  This lint parses each module and
names every call of ``Direction``, bare or as ``geo.Direction``, outside
those two homes, and every mention of ``from_coord``: the rule from a
coordinate to a ``Direction`` lives only in the tests' reference,
``reference.net_directions``.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from stratclt.directions import DirectionNet

SRC = Path(__file__).resolve().parent.parent / "src" / "stratclt"
# module -> the functions in it that may make Direction objects (None: all)
ALLOWED = {"geometry.py": None, "harness.py": {"_directions_from_spec"}}


def direction_calls(source: str, allowed=frozenset()) -> list[int]:
    """The line of each call of ``Direction`` outside the functions named
    in ``allowed`` (anywhere, for None), and of each function, name or
    attribute ``from_coord``."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in allowed
            if node.name == "from_coord":
                found.append(node.lineno)
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Direction":
                found.append(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr == "from_coord":
            found.append(node.lineno)
        if isinstance(node, ast.Name) and node.id == "from_coord":
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), allowed is None)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_makes_no_direction_objects(path):
    allowed = ALLOWED.get(path.name, frozenset())
    assert direction_calls(path.read_text(encoding="utf-8"), allowed) == []


def test_net_holds_no_direction_objects():
    assert "directions" not in {f.name for f in dataclasses.fields(DirectionNet)}


def test_lint_names_each_form():
    source = "\n".join([
        "d = Direction(base, kind, data)",
        "d = geo.Direction(base, kind, data)",
        "d = ds.from_coord(c)",
        "def from_coord(self, c):",
        "    return c",
        "def _directions_from_spec(base, spec):",
        "    return [geo.Direction(base, k, (x,)) for x in spec]",
        # a reference to the class, an annotation and other calls pass
        "cls = Direction",
        "def f(d: Direction) -> str:",
        "    return d.describe()",
        "net = DirectionNet(base, coords)",
    ])
    assert direction_calls(source) == [1, 2, 3, 4, 7]
    assert direction_calls(source, {"_directions_from_spec"}) == [1, 2, 3, 4]
    assert direction_calls(source, None) == [3, 4]
