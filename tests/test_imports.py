"""Imports: every package module uses each name it imports, and nff needs only numpy."""

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


def test_import_does_not_load_scipy():
    code = "import sys, nff; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
