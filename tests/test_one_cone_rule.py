"""One cone formula for the point layer and one cone maximum for the
tangent layer.

Every model space is R^a x Cone(Gamma), and ``geometry.split`` and
``geometry.join`` turn a point into (s, r, g), its R^a part, cone radius
and point of Gamma, and back.  ``distance``, ``geodesic_point``,
``log_map`` and ``exp_map``, with the cone helpers they share, are
written once on that split, and so are the cone maximum of ``measures``
and the mean and certificate built on it.  This lint keeps them so: it
parses the two modules and names every mention of a space or direction
kind in those bodies, as a kind constant, a kind's string or a
comparison with a ``.kind``.  The split and join, ``SpaceSpec``,
``Point``, the strata and ``direction_kind`` are where the kinds are
told apart.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stratclt"
KIND_NAMES = {"EUCLIDEAN", "SPIDER", "OPEN_BOOK", "FLAT_CONE",
              "D_LEG", "D_SIGN", "D_PAGE_ANGLE", "D_ANGLE", "D_VECTOR"}
KIND_STRINGS = {"euclidean", "spider", "open_book", "flat_cone"}
ONE_FORMULA = ("distance", "geodesic_point", "log_map", "exp_map",
               "_turn", "_beyond", "_undevelop")
ONE_CONE_MAX = ("_cone_max", "_unit_chart", "_closed_form_mean", "_certify", "_circle_max")


def _is_kind(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "kind"


def _mentions(fn: ast.FunctionDef) -> list[int]:
    found = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Name) and node.id in KIND_NAMES
                or isinstance(node, ast.Attribute) and node.attr in KIND_NAMES
                or isinstance(node, ast.Constant) and node.value in KIND_STRINGS
                or isinstance(node, ast.Compare)
                and any(_is_kind(x) for x in (node.left, *node.comparators))):
            found.add(node.lineno)
    return sorted(found)


def kind_mentions(source: str, names=ONE_FORMULA) -> dict[str, list[int]]:
    """The lines that name a space kind in each top-level function of names."""
    return {node.name: _mentions(node) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in names}


def _assert_no_kind(module: str, names):
    found = kind_mentions((SRC / f"{module}.py").read_text(encoding="utf-8"), names)
    assert sorted(found) == sorted(names)  # every one of them is there
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_point_layer_names_no_space_kind():
    _assert_no_kind("geometry", ONE_FORMULA)


def test_tangent_layer_names_no_space_kind():
    _assert_no_kind("measures", ONE_CONE_MAX)


def test_lint_names_each_form():
    source = "\n".join([
        "def distance(p, q):",
        "    if p.space.kind == EUCLIDEAN:",
        "        k = geo.SPIDER",
        "    if 'open_book' == label:",
        "        x = sp.kind in (FLAT_CONE,)",
        "    y = d.kind != D_LEG",
        "    w = geo.D_PAGE_ANGLE in kinds",
        # calls, other strings and other names pass
        "    z = direction_kind(p), split(p), p.space.circumference",
        "    return 'apex', kind",
        "def split(p):",
        "    return p.space.kind == SPIDER",
    ])
    assert kind_mentions(source) == {"distance": [2, 3, 4, 5, 6, 7]}
