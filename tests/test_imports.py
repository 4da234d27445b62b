"""Imports and names: every package module uses each name it imports, every private
module-level name is read somewhere in the package, and nff needs only numpy."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import nff

MODULES = sorted(
    p for p in Path(nff.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detector():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.sqrt(pi)\n"
    assert _unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unread_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_names`` (not dunders) that no module of the set reads."""
    trees = [ast.parse(source) for source in sources]
    defined: set[str] = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                )
    read = {
        n.id
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_unread_private_name_detector():
    sources = [
        "_A, _B = 1, 2\n_C: int = 3\n__all__ = []\ndef _f():\n    return _A\n",
        "from m import _B\nclass _K:\n    _x = _B\n",
    ]
    assert _unread_private_names(sources) == ["_C", "_K", "_f"]


def test_package_reads_every_private_name():
    package = sorted(Path(nff.__file__).parent.glob("*.py"))
    assert _unread_private_names([p.read_text(encoding="utf-8") for p in package]) == []


def test_import_does_not_load_scipy():
    code = "import sys, nff; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_every_export_resolves_once():
    assert len(nff.__all__) == len(set(nff.__all__))
    assert [name for name in nff.__all__ if not hasattr(nff, name)] == []
