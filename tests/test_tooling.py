"""Source hygiene that needs no linter: every name a module imports is
read, and the package imports nothing outside the standard library.

The package ``__init__.py`` is skipped by the first check, since its
imports are re-exports.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/abconvex", "tests", "scripts")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import and never read as a
    name; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import inf, pi\n"
              "print(os.path.sep, pi)\n")
    assert unused_imports(source) == [(3, "system"), (4, "inf")]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in SCANNED
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each absolute import whose top-level module is
    not in ``sys.stdlib_module_names``; package-relative imports pass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in modules
                  if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_foreign_imports_are_found():
    source = ("import numpy as np\nfrom . import core\nfrom .core import INF\n"
              "import os.path, json\nfrom scipy.linalg import solve\n"
              "from __future__ import annotations\n")
    assert foreign_imports(source) == [(1, "numpy"), (5, "scipy.linalg")]


def test_package_imports_only_the_standard_library():
    # the package declares ``dependencies = []`` and stays pure Python
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src/abconvex").rglob("*.py"))
             for line, name in foreign_imports(path.read_text())]
    assert found == []
