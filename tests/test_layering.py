"""No module of the package reaches into a sibling's private names: every
name one module takes from another is public, so a module's underscore
helpers can change without breaking its neighbours.  The block budget
max_blocks is a keyword of the engine entries alone, and every public
function, class and method of the package is reached from a program
path."""
import ast
import importlib
import inspect
import pathlib
import types

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


def _max_blocks_passers(tree: ast.AST, scope: str = "<module>"):
    """The innermost function or class around each call that passes max_blocks."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and any(k.arg == "max_blocks" for k in node.keywords):
            yield scope
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _max_blocks_passers(node, node.name if named else scope)


def test_only_the_engine_entries_take_max_blocks():
    takers = {
        name
        for name, fn in _public_callables()
        if "max_blocks" in inspect.signature(fn).parameters
    }
    assert takers == {"resolvent.resolvent_power_norm", "resolvent.resolvent_power_norms"}
    # every other caller, the anchor check included, takes the engine's default
    passers = {
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _max_blocks_passers(ast.parse(path.read_text()))
    }
    assert passers == {"resolvent.resolvent_power_norm", "resolvent.resolvent_power_norms"}
    src = "f(max_blocks=1)\ndef g():\n    def h():\n        f(x, max_blocks=2)\n"
    assert set(_max_blocks_passers(ast.parse(src))) == {"<module>", "h"}


def _callers(tree: ast.AST, callee: str, scope: str = "<module>"):
    """The innermost function or class around each call of callee, by name or attribute."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == callee:
                yield scope
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _callers(node, callee, node.name if named else scope)


def test_one_loop_walks_the_block_chunks():
    # every block model goes through the one block scan; a second loop over
    # the chunk schedule would be a second route to hook into
    callers = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _callers(ast.parse(path.read_text()), "block_chunks")
    ]
    assert callers == ["resolvent._family_values"]
    src = "block_chunks(0, 1)\ndef g():\n    for ks in resolvent.block_chunks(0, 2):\n        pass\n"
    assert list(_callers(ast.parse(src), "block_chunks")) == ["<module>", "g"]


REPO = pathlib.Path(__file__).resolve().parents[1]

# public names no program path reaches yet, each with its reason
UNREACHED = {
    "numkernel.lu_solve_adjoint": (
        "the benchmark's tracer names it only as a string; it goes with the "
        "benchmark repair"
    ),
    "pseudospectra.read_field_csv": "the reader the field-CSV writer tests compare against",
    "operators.DiagBlockFamily.block": "the tests' block-spectrum oracle",
    "pseudolab.__version__": "the package's version string, which no program path reads",
}

# the class members that make up a public surface
MEMBER_KINDS = (types.FunctionType, classmethod, staticmethod, property)


def _public_surface():
    """Qualified name -> name of every public function, class and method the
    package defines, and of every other export."""
    surface = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"{NAME}.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                surface[f"{path.stem}.{name}"] = name
            members = vars(obj).items() if inspect.isclass(obj) else ()
            for attr, member in members:
                if not attr.startswith("_") and isinstance(member, MEMBER_KINDS):
                    surface[f"{path.stem}.{name}.{attr}"] = attr
    defined = set(surface.values())
    surface.update((f"{NAME}.{n}", n) for n in pseudolab.__all__ if n not in defined)
    return surface


def _program_files():
    """The package's modules (not __init__), the benchmark and the acceptance gate."""
    yield from (p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    yield from sorted((REPO / "perfbench").glob("*.py"))
    yield REPO / "tests" / "test_acceptance.py"


MODULES = {p.stem for p in PACKAGE.glob("*.py")} | {NAME}


def _reached(tree: ast.AST, stem: str):
    """The surface names one program file reaches.

    A method or property is reached by an attribute load (``x.name``), a
    module-level name by an import from the package, by an attribute of
    the package or one of its modules (``pl.resolvent.name``) or by a load
    in its own module, so a local variable or numpy's attribute of the
    same bare name reaches nothing.  Yields "member:name" for attribute
    loads, "*.name" for imports and package attributes, and "module.name"
    for loads in the file's own module.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == NAME
        ):
            yield from (f"*.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                yield f"member:{node.attr}"
            base = node.value
            if (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)) in MODULES:
                yield f"*.{node.attr}"
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield f"{stem}.{node.id}"


def _is_reached(qualified: str, name: str, reached: set) -> bool:
    if qualified.count(".") == 2:  # module.Class.member
        return f"member:{name}" in reached
    return qualified in reached or f"*.{name}" in reached


def test_every_public_name_is_reached_from_a_program_path():
    reached = set()
    for path in _program_files():
        reached.update(_reached(ast.parse(path.read_text()), path.stem))
    unreached = {
        q for q, name in _public_surface().items() if not _is_reached(q, name, reached)
    }
    assert unreached == set(UNREACHED)


def test_a_bare_name_of_the_same_spelling_reaches_nothing():
    src = (
        "import numpy\n"
        "from .operators import TruncatedFamily\n"
        "def f(pl, fam):\n"
        "    block = fam.values\n"
        "    x.size = block\n"
        "    return numpy.__version__, pl.setgeom.hausdorff_distance, local_helper()\n"
    )
    reached = set(_reached(ast.parse(src), "resolvent"))
    assert _is_reached("operators.TruncatedFamily", "TruncatedFamily", reached)
    assert _is_reached("setgeom.hausdorff_distance", "hausdorff_distance", reached)
    assert _is_reached("resolvent.local_helper", "local_helper", reached)
    assert _is_reached("operators.AlphaRule.values", "values", reached)
    # a local variable, a stored attribute, numpy's attribute and a load in
    # another module do not count
    assert not _is_reached("operators.DiagBlockFamily.block", "block", reached)
    assert not _is_reached("setgeom.MaskSet.size", "size", reached)
    assert not _is_reached("pseudolab.__version__", "__version__", reached)
    assert not _is_reached("operators.local_helper", "local_helper", reached)


def test_the_surface_covers_exports_methods_and_properties():
    surface = _public_surface()
    assert set(pseudolab.__all__) <= set(surface.values())
    for name in ("setgeom.MaskSet.from_level_set", "setgeom.MaskSet.size",
                 "operators.AlphaRule.values", "pseudolab.__version__"):
        assert name in surface
