"""The package's import graph: stdlib-only at runtime, and layered.

Every library module below ``reproduce`` and ``cli`` depends on ``core``
alone, except ``bounds``, which also reads the family registry.  The imports
are read from the source with ``ast``, nested ones included, so nothing
is imported to check them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import layerlens

PACKAGE = Path(layerlens.__file__).parent

# module -> the sibling modules it imports
LAYERS: dict[str, set[str]] = {
    "core": set(),
    "families": {"core"},
    "search": {"core"},
    "decomposition": {"core"},
    "oracles": {"core"},
    "export": {"core"},
    "bounds": {"core", "families"},
    "reproduce": {"core", "families", "search", "decomposition", "oracles", "bounds"},
    "cli": {"core", "families", "search", "decomposition", "bounds", "export", "reproduce"},
    "__init__": {"core", "families", "search", "decomposition", "bounds"},
}


def _imports(path: Path) -> tuple[set[str], set[str]]:
    """(top-level names of the absolute imports, sibling modules imported
    relatively) of one source file."""
    absolute: set[str] = set()
    relative: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                absolute.add(node.module.split(".")[0])
            else:
                assert node.level == 1, f"{path.name} imports from outside the package"
                if node.module is None:  # from . import x
                    relative.update(alias.name for alias in node.names)
                else:
                    relative.add(node.module.split(".")[0])
    return absolute, relative


def test_every_module_is_pinned():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


def test_runtime_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        absolute, _ = _imports(path)
        assert absolute <= sys.stdlib_module_names, (path.name, absolute - sys.stdlib_module_names)


def test_module_layering():
    for path in sorted(PACKAGE.glob("*.py")):
        _, relative = _imports(path)
        assert relative == LAYERS[path.stem], path.name


def test_import_leaves_out_multiprocessing():
    # the library runs in one process, so importing it starts no pool machinery
    code = "import sys, layerlens, layerlens.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"
