"""The package declares ``dependencies = []``: the library, its tests and
its demos import only the standard library, ``qsym``, ``pytest`` and the
test-local helper modules."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {
    "qsym", "pytest", "replayer", "util", "test_groebner"}


def _imported_modules(path):
    """(line, top-level module) for every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_only_the_standard_library_and_qsym_are_imported():
    files = [*sorted((ROOT / "src" / "qsym").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py"))]
    assert len(files) > 20
    foreign = [f"{path.relative_to(ROOT)}:{line}: {module}"
               for path in files for line, module in _imported_modules(path)
               if module not in ALLOWED]
    assert foreign == []


def test_demos_import_no_private_name_from_qsym():
    """Demos show the public API: nothing they import from ``qsym`` has a
    name, or a module on its path, that starts with an underscore."""
    private = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module + "." + a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            private += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                        for name in names if name.split(".")[0] == "qsym"
                        and any(p.startswith("_") for p in name.split("."))]
    assert private == []
