"""The package's import graph: stdlib-only at runtime, and layered.

Every library module below ``reproduce`` and ``cli`` depends on ``core``
alone, except ``bounds``, which also reads the family registry.  The imports
are read from the source with ``ast``, nested ones included, so nothing
is imported to check them.  What each entry point loads, now that the
package and the CLI import a module on first use, is checked in fresh
interpreters.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

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


def _loaded_after(code: str) -> list[str]:
    """The layerlens modules loaded, in a fresh interpreter, once ``code``
    has run."""
    probe = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.startswith('layerlens')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _loaded_after("import layerlens") == ["layerlens"]


def test_search_names_load_core_and_search_only():
    loaded = _loaded_after("from layerlens import max_density, KPlanar")
    assert loaded == ["layerlens", "layerlens.core", "layerlens.search"]
    # the CLI keeps core and search at module level and nothing else
    loaded = _loaded_after("from layerlens import max_density, KPlanar\nimport layerlens.cli")
    assert loaded == ["layerlens", "layerlens.cli", "layerlens.core", "layerlens.search"]


def test_commands_load_only_what_they_run():
    main = "from layerlens.cli import main\nmain({})"
    loaded = _loaded_after(main.format('["search", "--n", "8", "--k", "5"]'))
    assert not {"layerlens.reproduce", "layerlens.decomposition", "layerlens.oracles"} & set(loaded)
    # the parser reads the family and export choices only when it checks them
    loaded = _loaded_after(main.format('["minimax", "--complete", "2", "3"]'))
    assert loaded == ["layerlens", "layerlens.cli", "layerlens.core", "layerlens.search"]


def test_every_export_is_its_home_modules_object():
    submodules = {name: import_module(f"layerlens.{name}") for name in ("core", "families", "search", "decomposition", "bounds")}
    for name in layerlens.__all__:
        if name in submodules:
            assert getattr(layerlens, name) is submodules[name]
            continue
        homes = [module for module in submodules.values() if name in module.__all__]
        assert len(homes) == 1, (name, homes)
        assert getattr(layerlens, name) is getattr(homes[0], name)
    assert set(layerlens.__all__) <= set(dir(layerlens))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        layerlens.no_such_name  # noqa: B018
