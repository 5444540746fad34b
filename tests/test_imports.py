"""Every exported name, and every name the benchmark and scripts import, exists.

The benchmark harness (`perfbench/`) and the experiment scripts run outside
the test suite, so a deletion in `src/` could break them with every other
test still green.  These checks read their import lines and the tracer's
wrap targets with `ast` and resolve each name against the installed package.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "levyfield").glob("*.py") if p.stem != "__init__")
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _resolves(module_name, name):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def _imported_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "levyfield":
            for alias in node.names:
                yield node.module, alias.name


def _trace_targets(path):
    """("levyfield.x", "name", ...) tuples in the tracer's wrap table."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            first, second = node.elts[:2]
            if (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
                and first.value.startswith("levyfield.")
                and isinstance(second, ast.Constant)
                and isinstance(second.value, str)
            ):
                yield first.value, second.value


@pytest.mark.parametrize("module_name", ["levyfield"] + [f"levyfield.{m}" for m in MODULES])
def test_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_caller_imports_exist(path):
    missing = [f"{m}.{n}" for m, n in _imported_names(path) if not _resolves(m, n)]
    assert missing == []


def test_trace_targets_exist():
    targets = list(_trace_targets(ROOT / "perfbench" / "tracing.py"))
    assert len(targets) > 20
    missing = [f"{m}.{n}" for m, n in targets if not _resolves(m, n)]
    assert missing == []
