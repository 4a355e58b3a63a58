"""The package calls no LAPACK routine, so the tests' numpy.linalg oracles
share no code path with it.  ``numpy.linalg.norm`` is plain arithmetic and
the one routine allowed."""
import ast
import pathlib

import pytest

import pseudolab

PACKAGE = pathlib.Path(pseudolab.__file__).parent
ALLOWED = {"norm"}


def _linalg_uses(tree: ast.AST):
    """Names taken from numpy.linalg, however the module was imported."""
    aliases = {"numpy.linalg"}  # dotted names that denote numpy.linalg
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    numpy_names.add(a.asname or "numpy")
                elif a.name == "numpy.linalg":
                    aliases.add(a.asname or "numpy.linalg")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for a in node.names:
                    if a.name == "linalg":
                        aliases.add(a.asname or "linalg")
            elif node.module == "numpy.linalg":
                for a in node.names:
                    yield a.name
    aliases |= {f"{n}.linalg" for n in numpy_names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
            yield node.attr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_linalg_routine_but_norm(path):
    used = set(_linalg_uses(ast.parse(path.read_text())))
    assert used <= ALLOWED, f"{path.name} calls numpy.linalg.{sorted(used - ALLOWED)}"


def test_the_check_sees_every_import_form():
    src = (
        "import numpy as np\nimport numpy.linalg as la\n"
        "from numpy import linalg\nfrom numpy.linalg import eigvals\n"
        "np.linalg.inv(a); la.svd(a); linalg.qr(a); np.linalg.norm(a)\n"
    )
    assert set(_linalg_uses(ast.parse(src))) == {"inv", "svd", "qr", "eigvals", "norm"}
