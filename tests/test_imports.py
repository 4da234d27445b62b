"""Imports and names: every package module uses each name it imports, every private
module-level name is read somewhere in the package, every export has a caller, block
loops are written once, the boundary criteria stay on the one line primitive, the field
kernels share one distance source, and nff needs only numpy."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import nff

MODULES = sorted(
    p for p in Path(nff.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
#: The benchmark's files: the calls they make of nff are the traffic it serves.
BENCHMARK = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


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


def _unread_exports(exports: list[str], package: list[str], benchmark: list[str]) -> list[str]:
    """``exports`` that no ``package`` module reads, nor a ``benchmark`` file as ``nff.<name>``."""
    read = {
        n.id
        for source in package
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    read |= {
        n.attr
        for source in benchmark
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and isinstance(n.value, ast.Name) and n.value.id == "nff"
    }
    return sorted(set(exports) - read)


def test_unread_export_detector():
    package = ["from m import A, B, C\ndef f():\n    return A\nC = 1\n"]
    benchmark = ["import nff\nnff.B()\nD = 2\nnff.E = D\n"]
    exports = ["A", "B", "C", "D", "E", "F"]
    assert _unread_exports(exports, package, benchmark) == ["C", "D", "E", "F"]


def test_every_export_has_a_caller():
    # a public name that neither the package nor the benchmark reaches is a second path
    # that only its own tests exercise
    read = [p.read_text(encoding="utf-8") for p in MODULES]
    calls = [p.read_text(encoding="utf-8") for p in BENCHMARK]
    assert BENCHMARK
    assert _unread_exports(nff.__all__, read, calls) == []


def _stepped_range_callers(source: str) -> list[str]:
    """Functions (``<module>`` outside any) that call ``range(start, stop, step)``."""
    found: set[str] = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "range"
                and len(child.args) == 3
            ):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_stepped_range_detector():
    source = (
        "def f(n):\n    for i in range(0, n, 4):\n        pass\n"
        "def g(x):\n    return [x[i : i + 2] for i in range(0, len(x), 2)]\n"
        "def h(n):\n    def inner():\n        return range(1, n, 3)\n    return range(n)\n"
        "K = range(0, 9, 3)\n"
    )
    assert _stepped_range_callers(source) == ["<module>", "f", "g", "inner"]


def test_block_loops_go_through_the_one_helper():
    # every walk over blocks of a batch is core._blockwise; no module hand-writes one
    package = sorted(Path(nff.__file__).parent.glob("*.py"))
    callers = {p.name: _stepped_range_callers(p.read_text(encoding="utf-8")) for p in package}
    assert {name: found for name, found in callers.items() if found} == {"core.py": ["_blockwise"]}


def test_criteria_stay_on_the_line_primitive():
    # a test line is one-dimensional: the boundary criteria read distances and excess
    # paths from core._line_excess, not from per-axis offset planes or whole-distance
    # steering phases
    tree = ast.parse((Path(nff.__file__).parent / "boundaries.py").read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert names & {"_plane_offsets", "_point_offsets", "_plane_dot", "ff_precoder"} == set()
    # and one walk reads the line for all of them: a criterion that forms its own distances
    # again is a second walk over the same radius-element pairs
    readers = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and n.id in {"_line_constants", "_line_excess", "_line_distance"}
    }
    assert readers == {"_line_walk"}


def test_field_kernels_take_distances_from_point_offsets():
    # array_field, the line kernel and the focusing weights share sources._point_offsets'
    # distances: the phase exp(-jk dist) of a captured trace then has the sweep's bits, and a
    # second distance formula (a phase from sqrt(s^2 + w) missed the 1e-12 round trip by up
    # to 5.7e-10) has no place in them
    tree = ast.parse((Path(nff.__file__).parent / "sources.py").read_text(encoding="utf-8"))
    kernels = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name in ("array_field", "_line_fields", "nf_precoder"):
        nodes = list(ast.walk(kernels[name]))
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        assert "_point_offsets" in names, name
        assert names & {
            "sqrt", "norm", "hypot", "_line_distance", "_line_excess", "_plane_offsets"
        } == set(), name
        roots = [n for n in nodes if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]
        assert all(isinstance(n.right, ast.Constant) and n.right.value == 2 for n in roots), name


def _cache_decorated(source: str) -> list[str]:
    """Functions decorated with ``functools.lru_cache`` or ``functools.cache``, in any form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", ""))
                if name in ("lru_cache", "cache"):
                    found.append(node.name)
    return found


def test_cache_decorator_detector():
    source = (
        "import functools\nfrom functools import cache, lru_cache, cached_property\n"
        "@functools.lru_cache(maxsize=4)\ndef f(a):\n    return a\n"
        "@lru_cache\ndef g(a):\n    return a\n"
        "@cache\ndef h(a):\n    return a\n"
        "class K:\n    @cached_property\n    def p(self):\n        return 1\n"
    )
    assert _cache_decorated(source) == ["f", "g", "h"]


def test_package_keeps_no_process_wide_cache():
    # a result may not depend on what already ran in the process; per-object
    # cached_property stays allowed
    package = sorted(Path(nff.__file__).parent.glob("*.py"))
    assert {p.name: _cache_decorated(p.read_text(encoding="utf-8")) for p in package} == {
        p.name: [] for p in package
    }


def test_import_does_not_load_scipy():
    code = "import sys, nff; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_every_export_resolves_once():
    assert len(nff.__all__) == len(set(nff.__all__))
    assert [name for name in nff.__all__ if not hasattr(nff, name)] == []
