"""One home for the rule of which directions exist at a point.

``geometry.direction_kind`` reads the stratum of a point and names the one
kind of direction there, the form of a direction's coordinates; which
space of directions sits at the point is ``geometry.direction_join``'s,
as ``tests/test_one_join_rule.py`` keeps it.  No other module reads a
stratum id: this lint parses each module and names every comparison with
the singular stratum ids "apex" and "spine" outside ``geometry``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stratclt"
SINGULAR = {"apex", "spine"}
HOME = "geometry.py"


def _names_singular(node: ast.expr) -> bool:
    """Whether node is a singular stratum id, or a tuple, list or set of
    literals holding one."""
    if isinstance(node, ast.Constant):
        return node.value in SINGULAR
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_singular(x) for x in node.elts)
    return False


def stratum_compares(source: str) -> list[int]:
    """The line of each comparison or match case with a singular stratum id."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if any(_names_singular(x) for x in operands):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != HOME),
                         ids=lambda p: p.name)
def test_module_leaves_the_stratum_rule_to_geometry(path):
    assert stratum_compares(path.read_text(encoding="utf-8")) == []


def test_lint_names_each_form():
    source = "\n".join([
        'sid == "apex"',
        '"spine" != sid',
        'sid in ("apex", "spine")',
        'stratum_of(p)[0] not in ["apex"]',
        'a < b == "spine"',
        "match sid:\n    case 'apex':\n        pass",
        # other strings, kinds and lookups pass
        'sid == "cone"',
        "kind == D_LEG",
        'label = "apex"',
        'sid in ("leg0", "page1")',
    ])
    assert stratum_compares(source) == [1, 2, 3, 4, 5, 7]
