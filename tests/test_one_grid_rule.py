"""One home for the rule that sizes a uniform net.

``covering.uniform_grid`` turns an eps into the step count m = ceil(L/eps)
of every uniform net, and ``covering`` alone counts grids from it.  This
lint keeps it so: it parses each module and names every call of ``ceil``
outside ``covering``, whether as ``math.ceil``, ``np.ceil`` or a bare
``ceil``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stratclt"
HOME = "covering.py"


def ceil_calls(source: str) -> list[int]:
    """The line of each call of a function named ``ceil``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "ceil":
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != HOME),
                         ids=lambda p: p.name)
def test_module_leaves_the_grid_rule_to_covering(path):
    assert ceil_calls(path.read_text(encoding="utf-8")) == []


def test_lint_names_each_form():
    source = "\n".join([
        "m = math.ceil(length / eps)",
        "m = max(1, np.ceil(x))",
        "m = ceil(x)",
        # other calls and a mere reference pass
        "m = math.floor(x)",
        "f = math.ceil",
        "m = uniform_grid(base, eps)[0]",
    ])
    assert ceil_calls(source) == [1, 2, 3]
