"""One home for the rule of which space of directions sits at a point.

``geometry.direction_join`` gives the directions at a point as the join
S^(a-1) * Gamma, and ``geometry.link`` alone reads Gamma from a space's
``legs``, ``pages`` or ``circumference``; the direction spaces, the grids
and the cone maximum read the join.  This lint keeps it so: it parses
each module and names, outside ``geometry``, every read of an attribute
``legs``, ``pages`` or ``circumference`` of anything but ``self``, and
every subscript of a ``stratum_of(...)`` call, such as the dimension
``stratum_of(p)[1]``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stratclt"
LINK = {"legs", "pages", "circumference"}
HOME = "geometry.py"


def _calls_stratum_of(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "stratum_of"


def join_reads(source: str) -> list[int]:
    """The line of each read of a link parameter off ``self`` and of each
    subscript of a ``stratum_of`` call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            if node.attr in LINK and not on_self:
                found.append(node.lineno)
        elif isinstance(node, ast.Subscript) and _calls_stratum_of(node.value):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != HOME),
                         ids=lambda p: p.name)
def test_module_leaves_the_join_to_geometry(path):
    assert join_reads(path.read_text(encoding="utf-8")) == []


def test_lint_names_each_form():
    source = "\n".join([
        "n = sp.legs",
        "n = base.space.pages",
        "alpha = space.circumference or 0.0",
        "d = stratum_of(base)[1]",
        "sid = geo.stratum_of(p)[0]",
        "k = len(range(space.legs or space.pages))",
        # a direction space's own field, a write, the join and unpacking pass
        "n = self.pages",
        "self.pages = int(pages)",
        "a, gamma = direction_join(base)",
        "sid, _ = geo.stratum_of(mean)",
        "legs = pages = 3",
    ])
    assert join_reads(source) == [1, 2, 3, 4, 5, 6, 6]
