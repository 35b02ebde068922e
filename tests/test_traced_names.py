"""The names the benchmark's tracer hooks must exist in the package.

``perfbench/layers.py`` rebinds every ``(module, attr)`` of its ``TRACED``
table when a run is traced, and a name that no longer resolves makes every
``--trace 1`` run fail in ``Tracer.install``.  The table is read from the
file, not imported, so the benchmark is neither run nor changed here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _traced() -> list[tuple[str, str]]:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TRACED table in {LAYERS}")


def test_every_traced_name_resolves() -> None:
    traced = _traced()
    assert traced
    for module, attr in traced:
        owner = importlib.import_module(f"polygonspace.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"polygonspace.{module}.{attr} no longer exists"
        assert callable(owner), f"polygonspace.{module}.{attr} is not callable"
