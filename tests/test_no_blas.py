"""No module of the package calls BLAS or LAPACK.

Every `clt` and `field` sum is taken in a fixed order by
``fields._fixed_product`` and row reductions, so each output is the same
under any BLAS thread count or kernel, and a CLI run starts numpy with one
BLAS thread.  This lint keeps it so: it parses each module and names every
matrix product and every ``linalg`` call but ``norm`` along an axis, which
is a plain reduction (without ``axis`` it may call ``dot``).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stratclt"
NUMPY = {"np", "numpy"}
PRODUCTS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def _chain(node: ast.expr) -> list[str]:
    """The names of an attribute chain such as ``np.linalg.norm``; a chain
    that does not start at a name starts with ''."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    names.append(node.id if isinstance(node, ast.Name) else "")
    return names[::-1]


def blas_calls(source: str) -> list[str]:
    """'line: what' for each BLAS or LAPACK use in ``source``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{line}: @")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            names = _chain(node.func)
            axis = any(kw.arg == "axis" for kw in node.keywords)
            if names[-1] == "dot" or (names[0] in NUMPY and names[1:] and names[1] in PRODUCTS):
                found.append(f"{line}: {'.'.join(names)}")
            elif names[0] in NUMPY and "linalg" in names and not (names[-1] == "norm" and axis):
                found.append(f"{line}: {'.'.join(names)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            if "linalg" in node.module or names & (PRODUCTS | {"linalg"}):
                found.append(f"{line}: from {node.module} import {', '.join(sorted(names))}")
        elif isinstance(node, ast.Import):
            found += [f"{line}: import {alias.name}" for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_calls_no_blas(path):
    assert blas_calls(path.read_text(encoding="utf-8")) == []


def test_lint_names_each_form():
    source = "\n".join([
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "x.dot(b)",
        "f(a).dot(b)",
        "numpy.matmul(a, b)",
        "np.einsum('ij,jk', a, b)",
        "np.inner(a, b)",
        "np.vdot(a, b)",
        "np.tensordot(a, b)",
        "np.linalg.svd(a)",
        "np.linalg.norm(a)",
        "np.linalg.norm(a, ord=2)",
        "from numpy.linalg import qr",
        "from numpy import linalg",
        "import numpy.linalg",
        # plain reductions and elementwise work pass
        "np.linalg.norm(a - b, axis=-1)",
        "np.add.reduce(a * b, axis=1)",
        "np.multiply(a, b, out=c)",
        "a * b",
        "import numpy as np",
    ])
    assert [int(hit.split(":")[0]) for hit in blas_calls(source)] == list(range(1, 17))
