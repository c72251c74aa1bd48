"""No linter runs in the test suite, so this guard finds private
module-level names of the package (a leading underscore: functions,
classes, constants) that nothing refers to but their own definition, such
as a helper left behind when its last caller went.  A reference is a name,
an attribute or an import of the name in any module of the package; a
recursive call inside the definition does not count."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradedhs"


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each private module-level name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, first, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def orphans(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each private module-level name of ``sources``
    (module name -> source) referred to nowhere outside its definition."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for name, first, last in _definitions(tree):
            used = any(ref == name and (other != module or not first <= line <= last)
                       for other, pairs in refs.items() for ref, line in pairs)
            if not used:
                found.append(f"{module}:{name}")
    return found


def test_every_private_name_has_a_reference():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert "gradedcore" in sources
    assert orphans(sources) == []


def test_guard_catches_an_orphan():
    sources = {
        "a": "_LIMIT = 3\n_KEPT = 4\n\ndef _fact(k):\n    return 1 if k < 2 else k * _fact(k - 1)\n"
             "\n@decorate(_LIMIT)\ndef _used():\n    pass\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _KEPT\nimport a\na._used()\n",
    }
    assert orphans(sources) == ["a:_fact", "a:_Gone"]
