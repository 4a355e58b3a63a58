"""No module of the package reaches into a sibling's private names: every
name one module takes from another is public, so a module's underscore
helpers can change without breaking its neighbours.  The block budget
max_blocks is a keyword of the engine entries alone, and every name the
package exports is reached from a program path."""
import ast
import importlib
import inspect
import pathlib

import pytest

import pseudolab

PACKAGE = pathlib.Path(pseudolab.__file__).parent
NAME = PACKAGE.name


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_imports(tree: ast.AST):
    """(sibling module, name) for each private name taken from a sibling.

    Covers relative and absolute from-imports at any depth (function-local
    ones included) and attribute access on an imported sibling module.
    """
    modules = {}  # local name or dotted path -> sibling module name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package = node.level == 1 and node.module is None
                module = node.module or ""
            elif node.module == NAME or (node.module or "").startswith(NAME + "."):
                package = node.module == NAME
                module = node.module.partition(".")[2]
            else:
                continue
            for a in node.names:
                if package:
                    modules[a.asname or a.name] = a.name
                    if _private(a.name):
                        yield (".", a.name)
                elif _private(a.name):
                    yield (module, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith(NAME + "."):
                    sibling = a.name.partition(".")[2]
                    modules[a.asname or a.name] = sibling
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            sibling = modules.get(ast.unparse(node.value))
            if sibling is not None:
                yield (sibling, node.attr)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    used = sorted(set(_private_imports(ast.parse(path.read_text()))))
    assert not used, f"{path.name} takes private names from siblings: {used}"


def test_the_check_sees_every_import_form():
    src = (
        "from __future__ import annotations\n"
        "from numpy import _globals\n"
        "from .resolvent import _head_max, resolvent_norm\n"
        "from pseudolab.operators import _verify_anchor as check\n"
        "from . import numkernel as nk, setgeom, _hidden\n"
        "from pseudolab import experiments\n"
        "import pseudolab.cli\n"
        "import pseudolab.errors as errs\n"
        "def f():\n"
        "    from .pseudospectra import _format, __doc__\n"
        "    return (nk._kernel(), setgeom._x, pseudolab.cli._normalize,\n"
        "            errs._y, experiments._z, nk.__name__, np._w)\n"
    )
    assert set(_private_imports(ast.parse(src))) == {
        ("resolvent", "_head_max"),
        ("operators", "_verify_anchor"),
        (".", "_hidden"),
        ("pseudospectra", "_format"),
        ("numkernel", "_kernel"),
        ("setgeom", "_x"),
        ("cli", "_normalize"),
        ("errors", "_y"),
        ("experiments", "_z"),
    }


def _public_callables():
    """(module.qualname, callable) for every public function and method the
    package defines, constructors included."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"{NAME}.{path.stem}")
        for name, obj in vars(module).items():
            if _private(name) or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{path.stem}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (attr == "__init__" or not _private(attr)):
                        yield f"{path.stem}.{name}.{attr}", member


def test_only_the_engine_entries_take_max_blocks():
    takers = {
        name
        for name, fn in _public_callables()
        if "max_blocks" in inspect.signature(fn).parameters
    }
    assert takers == {"resolvent.resolvent_power_norm", "resolvent.resolvent_power_norms"}


REPO = pathlib.Path(__file__).resolve().parents[1]

# exported names no program path reaches yet, each with its reason
UNREACHED_EXPORTS = {
    "read_field_csv": "the reader the field-CSV writer tests compare against",
    "check_constant_norm_condition": (
        "the paper's sufficient condition for a constant norm near 0, "
        "meant to be reported by constant_region_scan"
    ),
}


def _program_files():
    """The package's modules (not __init__), the benchmark and the acceptance gate."""
    yield from (p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    yield from sorted((REPO / "perfbench").glob("*.py"))
    yield REPO / "tests" / "test_acceptance.py"


def test_every_export_is_reached_from_a_program_path():
    used = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unreached = set(pseudolab.__all__) - used
    assert unreached == set(UNREACHED_EXPORTS)
