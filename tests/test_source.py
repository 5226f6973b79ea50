"""Checks on the library's source text."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cga"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(text):
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(text)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_finds_a_dead_name():
    text = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(text) == [(1, "path"), (2, "sys")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private(texts):
    """(module, line, name) for each module-level ``def _name`` or
    ``class _Name`` that no text in ``texts`` (module name -> source) reads,
    imports or looks up as an attribute outside its own body."""
    defined, used = [], set()
    for module, text in texts.items():
        for top in ast.parse(text).body:
            own = None
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and top.name.startswith("_")
                    and not top.name.startswith("__")):
                own = top.name
                defined.append((module, top.lineno, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(entry for entry in defined if entry[2] not in used)


def test_unreferenced_private_finds_a_dead_def():
    texts = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    _dead()\n\n"
                "class _Gone:\n    pass\n\ndef __getattr__(name):\n    pass\n",
        "b.py": "from .a import _used\n",
    }
    assert unreferenced_private(texts) == [("a.py", 4, "_dead"),
                                           ("a.py", 7, "_Gone")]


def test_private_definitions_are_referenced():
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(SOURCE.glob("*.py"))}
    assert unreferenced_private(texts) == []
