"""Every exported name, and every name and call the benchmark and scripts use, exists.

The benchmark harness (`perfbench/`) and the experiment scripts run outside
the test suite, so a deletion in `src/` could break them with every other
test still green.  These checks read their import lines, their calls and the
tracer's wrap targets with `ast` and resolve each name against the installed
package; each call is bound to the signature of the function it calls.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "levyfield").glob("*.py") if p.stem != "__init__")
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _import(module_name, name):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def _resolves(module_name, name):
    try:
        _import(module_name, name)
    except ModuleNotFoundError:
        return False
    return True


def _imported_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "levyfield":
            for alias in node.names:
                yield node.module, alias.name


def _resolve(node, names):
    """The levyfield object a `name` or `name.attr...` expression denotes, else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        return None if owner is None else getattr(owner, node.attr)
    return None


def _levyfield_calls(path):
    """(line, callable, positional count, keywords) for each call of a levyfield
    callable, directly or as `ck.op(label, fn, ...)`; calls with * or ** are skipped."""
    names = {name: _import(module, name) for module, name in _imported_names(path)}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        args, keywords = node.args, [k.arg for k in node.keywords]
        fn = _resolve(node.func, names)
        if fn is None and isinstance(node.func, ast.Attribute) and node.func.attr == "op" and len(args) >= 2:
            fn = _resolve(args[1], names)
            args, keywords = args[2:], [k for k in keywords if k != "timed"]
        if callable(fn) and None not in keywords and not any(isinstance(a, ast.Starred) for a in args):
            yield node.lineno, fn, len(args), keywords


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


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_caller_calls_bind(path):
    unbound = []
    for line, fn, n_args, keywords in _levyfield_calls(path):
        try:
            inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {line}: {fn.__qualname__}: {exc}")
    assert unbound == []


def test_caller_calls_found():
    assert sum(len(list(_levyfield_calls(path))) for path in CALLERS) > 50
