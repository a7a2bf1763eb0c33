"""Every function the benchmark traces still exists where it looks for it.

``perfbench/spans.py`` lists, per layer, the functions it wraps, and its
``patched`` fetches each one with ``getattr(module, name)``: a function
deleted or renamed in ``layerlens`` makes every traced benchmark run raise
``AttributeError``.  The list is read from the source with ``ast``, so
perfbench itself is not imported.
"""

from __future__ import annotations

import ast
from importlib import import_module
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans() -> dict[str, tuple[str, ...]]:
    """The literal value of the module-level ``SPANS`` in spans.py."""
    for node in ast.parse(SPANS_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.AnnAssign, ast.Assign)):
            targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
            if any(isinstance(t, ast.Name) and t.id == "SPANS" for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS in {SPANS_PY}")


def test_every_spanned_name_is_an_attribute_of_its_layer():
    spans = _spans()
    assert spans, "SPANS is empty"
    missing = [
        f"layerlens.{layer}.{name}"
        for layer, names in spans.items()
        for name in names
        if not hasattr(import_module(f"layerlens.{layer}"), name)
    ]
    assert missing == []
