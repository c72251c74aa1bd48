"""No linter runs in the test suite, so this guard finds imported names a
module never uses.  ``# noqa: F401`` keeps an unused name only where the
benchmark tracer (``instrument_program`` in ``perfbench/tracing.py``)
patches that name at that module, so an import kept for the tracer goes
once the tracer stops wrapping it."""

import ast
import functools
import importlib.util
from pathlib import Path

import pytest

import gradedhs
import gradedhs.cli  # noqa: F401  (binds gradedhs.cli)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradedhs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACING = ROOT / "perfbench" / "tracing.py"


@functools.lru_cache(maxsize=None)
def traced_names() -> frozenset:
    """(owner name, attribute) of every name the benchmark tracer patches."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.instrument_program(tracer, gradedhs)
        return frozenset((owner.__name__, attr) for owner, attr, _ in tracer._patched)
    finally:
        tracer.restore()


def unused_imports(source: str, traced=frozenset()) -> list[str]:
    """Imported names the source never uses, but for names in ``traced``
    imported on a ``# noqa: F401`` line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            kept = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not (kept and name in traced):
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    module = f"gradedhs.{path.stem}"
    traced = {attr for owner, attr in traced_names() if owner == module}
    assert unused_imports(path.read_text(encoding="utf-8"), traced) == []


def test_guard_catches_an_unused_import():
    source = "import hashlib\nimport json\nfrom os import sep  # noqa: F401\njson.dumps(1)\n"
    assert unused_imports(source) == ["hashlib (line 1)", "sep (line 3)"]
    assert unused_imports(source, {"sep"}) == ["hashlib (line 1)"]

