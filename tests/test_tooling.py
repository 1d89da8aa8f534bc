"""Source hygiene that needs no linter: every name a module imports is
read, every package definition is read, every CLI option is read, the
CLI imports no private package name, only ``core`` compares a mapping's
sides, and the package imports nothing outside the standard library.  Also the scripts:
the code-line count and the README's worked example.

The package ``__init__.py`` is skipped by the first check, since its
imports are re-exports.
"""

import ast
import re
import runpy
import subprocess
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(node: ast.AST) -> set[str]:
    """The names and attribute names that ``node`` loads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def unread_definitions(modules: dict[str, str], readers) -> list[str]:
    """``module.name`` for each module-level function or class of
    ``modules`` (module name -> source) that nothing reads: no other
    statement of the modules loads it as a name or attribute, ``__init__``
    does not re-export it, and no source in ``readers`` loads it."""
    defined, read = [], set()
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if module == "__init__" and isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
            own = node.name if isinstance(node, DEFINITIONS) else None
            if own:
                defined.append((module, own))
            read |= names_read(node) - {own}
    for source in readers:
        read |= names_read(ast.parse(source))
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_unread_definitions_are_found():
    modules = {"__init__": "from .a import shown\n",
               "a": ("def shown(): pass\ndef helper(): pass\n"
                     "def user(): return helper\n"
                     "def alone(): return alone()\nclass Unused: pass\n")}
    assert unread_definitions(modules, ["print(x.user)\n"]) == [
        "a.alone", "a.Unused"]


def test_every_package_definition_is_read():
    # what no other definition, re-export or benchmark reads serves only
    # the tests, and belongs with them
    modules = {p.stem: p.read_text()
               for p in sorted((ROOT / "src/abconvex").glob("*.py"))}
    readers = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert unread_definitions(modules, readers) == []


def private_package_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each underscore-prefixed name that ``source``
    imports from the package, by a relative or an ``abconvex`` import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.partition(".")[0] == "abconvex"):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.startswith("_")]
    return found


def test_private_package_imports_are_found():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .fitzpatrick import (\n    _Lifted,\n    fitzpatrick,\n)\n"
              "from abconvex.core import _Budget, INF\n"
              "from . import _hidden\n")
    assert private_package_imports(source) == [
        (3, "_Lifted"), (7, "_Budget"), (8, "_hidden")]


def test_the_cli_imports_only_public_package_names():
    # the command runs on the package's public API, as any caller would
    source = (ROOT / "src/abconvex/cli.py").read_text()
    assert private_package_imports(source) == []


#: The attributes that name a ground set a mapping, function or subset
#: lies on, and the labels that compare two ground sets.
SIDE_ATTRIBUTES = ("source", "target", "labels", "index", "parent")


def side_comparisons(source: str) -> list[int]:
    """The line of each comparison with a ``SIDE_ATTRIBUTES`` attribute
    among its operands, bare or inside a tuple (``self.source.size`` is a
    ``.size`` attribute, ``gs.index(label)`` a call)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            items = [item for operand in (node.left, *node.comparators)
                     for item in (operand.elts if isinstance(operand, ast.Tuple)
                                  else [operand])]
            if any(isinstance(item, ast.Attribute)
                   and item.attr in SIDE_ATTRIBUTES for item in items):
                found.append(node.lineno)
    return found


def test_side_comparisons_are_found():
    source = ("if (m.source, m.target) != (c.domain, c.codomain):\n"
              "    pass\n"
              "small = self.source.size < 3\n"
              "stray = c.domain == t.target\n"
              "if f.index.labels != c.domain.labels:\n"
              "    pass\n"
              "same = s.parent == f.index\n"
              "first = row.index(best) == 0\n"
              "ok = (g.index,) == (ground,)\n")
    assert side_comparisons(source) == [1, 4, 5, 7, 9]


def test_only_core_compares_a_mapping_with_its_sides():
    # the rules that a mapping runs from its coupling's domain to its
    # codomain and that a function or subset lies on its ground set each
    # have one owner, ``MultiMapping.runs_on`` and ``core.indexed_by``
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src/abconvex").glob("*.py"))
             if path.name != "core.py"
             for line in side_comparisons(path.read_text())]
    assert found == []


def unread_options(source: str) -> list[str]:
    """The dest of each ``add_argument`` in ``_build_parser`` of ``source``
    that ``source`` never loads as ``args.<dest>``."""
    tree = ast.parse(source)
    build = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_build_parser")
    dests = []
    for node in ast.walk(build):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            dest = [k.value.value for k in node.keywords if k.arg == "dest"]
            dests += dest or [node.args[0].value.lstrip("-").replace("-", "_")]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    return [dest for dest in dests if dest not in read]


def test_unread_options_are_found():
    source = ("def _build_parser():\n"
              "    p.add_argument('command')\n"
              "    p.add_argument('--site-function', dest='site')\n"
              "    p.add_argument('--dry-run')\n"
              "    p.add_argument('--seed')\n"
              "def run(args):\n"
              "    args.seed = 0\n"
              "    return args.command, args.site, 'args.dry_run'\n")
    assert unread_options(source) == ["dry_run", "seed"]


def test_every_cli_option_is_read():
    source = (ROOT / "src/abconvex/cli.py").read_text()
    assert unread_options(source) == []


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    code_lines = runpy.run_path(str(ROOT / "scripts/code_lines.py"))["code_lines"]
    source = ('"""Module\ndocstring."""\n'
              "\n"
              "# a comment\n"
              "def f(a,\n"
              "      b):\n"
              '    """One line."""\n'
              "    return max(a,  # a trailing comment\n"
              "               b)\n"
              "\n"
              "TEXT = '''two\n"
              "lines'''\n")
    assert code_lines(source) == 6


def test_worked_example_runs():
    done = subprocess.run([sys.executable, str(ROOT / "scripts/worked_example.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "is_member(x) = True" in lines and "is_member(|x|) = True" in lines


def test_request_digest_prints_one_digest_per_workload():
    done = subprocess.run([sys.executable, str(ROOT / "scripts/request_digest.py"),
                           "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == ["envelope", "dense", "lifted"]
    assert all(re.fullmatch("[0-9a-f]{64}", row[1]) for row in rows)
