"""The layer tracer in perfbench/layers.py looks every traced function up
by name; each name it lists must resolve in the package."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _targets():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no TARGETS")


def test_every_traced_function_resolves():
    targets = _targets()
    assert targets
    missing = [f"{module}.{func}" for module, func, _ in targets
               if not callable(getattr(
                   importlib.import_module(f"iidtails.{module}"), func,
                   None))]
    assert not missing, f"traced functions not found: {missing}"
