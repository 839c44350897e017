"""The documentation names only what exists: every dotted name that
README.md sets in backticks, and every one that a ``src/qsym`` docstring
sets in double backticks, resolves by ``getattr`` from its root."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import qsym

ROOT = Path(__file__).resolve().parent.parent
MODULES = {info.name for info in pkgutil.iter_modules(qsym.__path__)}
DOTTED = r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?"


def _unresolved(names):
    """The names that do not resolve.  A name is checked only when its
    first part is ``qsym``, one of its modules or a name it exports, not a
    local such as ``kb`` or ``g``; a module part is imported first."""
    missing = []
    for name in names:
        parts = name.split(".")
        if parts[0] == "qsym":
            parts = parts[1:]
        elif parts[0] not in MODULES and not hasattr(qsym, parts[0]):
            continue
        obj = qsym
        if parts[0] in MODULES:
            obj = importlib.import_module(f"qsym.{parts.pop(0)}")
        for part in parts:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    return missing


def _docstrings():
    for path in sorted((ROOT / "src" / "qsym").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                yield ast.get_docstring(node) or ""


def test_readme_names_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(rf"(?<!`)`{DOTTED}`(?!`)", readme))
    assert {"Graph.distances", "perms.walk", "qsym.engine.decide"} <= names
    assert _unresolved(sorted(names)) == []


def test_docstring_names_resolve():
    names = {name for doc in _docstrings()
             for name in re.findall(rf"``{DOTTED}``", doc)}
    assert {"Graph.pair_colours", "kb.log"} <= names
    assert _unresolved(sorted(names)) == []
