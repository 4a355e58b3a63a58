"""Every function the benchmark's tracer wraps still exists in the package.

perfbench/tracing.py names the traced functions as (module, attribute)
pairs and looks each one up when a traced run starts; a missing name would
stop every traced run.  The table is read here with ast, so this check
neither imports nor depends on the benchmark code.
"""
import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name: str):
    """The literal tuple bound to name at module level of tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise LookupError(f"{name} not found in {TRACING}")


def _traced_pairs():
    """(module, attribute) per TRACED row, plus the modules each row patches."""
    pairs, modules = [], set(ast.literal_eval(_table("MODULES")))
    for row in _table("TRACED").elts:
        home, attr = (ast.literal_eval(e) for e in row.elts[:2])
        pairs.append((home, attr))
        if len(row.elts) > 4:
            modules.update(ast.literal_eval(row.elts[4]))
    return pairs, sorted(modules)


PAIRS, MODULES = _traced_pairs()


def test_the_table_is_read():
    assert ("resolvent", "resolvent_power_norm") in PAIRS
    assert "cli" in MODULES


@pytest.mark.parametrize("home, attr", PAIRS, ids=[f"{h}.{a}" for h, a in PAIRS])
def test_traced_function_resolves(home, attr):
    module = importlib.import_module(f"pseudolab.{home}")
    assert callable(getattr(module, attr, None)), f"pseudolab.{home}.{attr} is gone"


@pytest.mark.parametrize("name", MODULES)
def test_patched_module_resolves(name):
    importlib.import_module(f"pseudolab.{name}")
