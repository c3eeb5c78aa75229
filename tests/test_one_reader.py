"""One reader for every JSON object.

``errors.json_object`` checks that a value is a JSON object, that it holds
no unknown key and that it holds every required key, with one message form
for each fault.  This lint keeps it the only place that does: it parses each
module outside ``errors`` and names every ``isinstance(..., dict)`` call,
the hand-written object check, and every ``except`` clause that names
``KeyError``, the translation of a missing key after the fact.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stratclt"
HOME = "errors.py"


def _names(node) -> list[str]:
    """The names in a type expression: ``dict``, ``builtins.dict`` or a tuple of them."""
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    return [n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None) for n in nodes]


def object_checks(source: str) -> list[int]:
    """The line of each ``isinstance`` call against ``dict`` and each
    ``except`` clause that catches ``KeyError``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2 and "dict" in _names(node.args[1])):
            found.append(node.lineno)
        elif (isinstance(node, ast.ExceptHandler) and node.type is not None
              and "KeyError" in _names(node.type)):
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != HOME),
                         ids=lambda p: p.name)
def test_module_leaves_objects_to_the_one_reader(path):
    assert object_checks(path.read_text(encoding="utf-8")) == []


def test_lint_names_each_form():
    source = "\n".join([
        "ok = isinstance(obj, dict)",
        "ok = isinstance(obj, (list, dict))",
        "ok = isinstance(obj, builtins.dict)",
        "try:",
        "    x = obj['net']",
        "except KeyError:",
        "    pass",
        "try:",
        "    x = obj['net']",
        "except (KeyError, TypeError) as exc:",
        "    pass",
        # other types, other handlers and a mere reference pass
        "ok = isinstance(obj, (list, tuple))",
        "try:",
        "    x = int(s)",
        "except ValueError:",
        "    pass",
        "try:",
        "    x = int(s)",
        "except:",
        "    pass",
        "kind = dict",
        "obj = json_object(obj, 'net spec', optional=('epsilon',))",
    ])
    assert object_checks(source) == [1, 2, 3, 6, 10]
