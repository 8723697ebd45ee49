"""Each module is importable first, in a fresh interpreter, takes each
name of another package module from the module that defines it, reads
no underscore name of another package module, and reads every name it
imports.

The package root imports nothing, so an import cycle between two modules
shows when one of them is the first module a program imports.

Every ``.py`` file of ``src/``, ``tests/`` and ``perfbench/`` parses with
the grammar of Python 3.10, the oldest version ``pyproject.toml`` supports.

The package defines one exception class, ``DatastoreError``: a bad value
raises ``ValueError``, and a bad file raises ``DatastoreError`` naming
the file and line.
"""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "icevision_kit").glob("*.py") if p.stem != "__init__")


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    result = run_python(f"import icevision_kit.{module}")
    assert result.returncode == 0, result.stderr


def test_package_root_exports_nothing():
    result = run_python("import icevision_kit as kit\n"
                        "print(sorted(n for n in vars(kit) if not n.startswith('__')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("path", sorted(p.relative_to(ROOT).as_posix() for folder in
                                         ("src", "tests", "perfbench")
                                         for p in (ROOT / folder).rglob("*.py")))
def test_grammar_is_python_3_10(path):
    # the oldest Python the package supports: grammar added later (``except*``,
    # a ``type`` statement) would first fail on that interpreter
    ast.parse((ROOT / path).read_text(encoding="utf-8"), path, feature_version=(3, 10))


def test_grammar_check_rejects_newer_grammar():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)  # the running interpreter (3.11 or later) takes it
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=(3, 10))


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module binds itself at top level: imported names excluded."""
    names: set[str] = set()
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # not descended into: its locals are not the module's
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        else:  # the bodies of a top-level if, try or with
            nodes.extend(ast.iter_child_nodes(node))
    return names


def imported_names(trees: dict[str, ast.Module]):
    """``(module, line, m, name)`` for every name a package module takes from
    another package module ``m``: ``from .m import name`` or ``m.name``."""
    for module, tree in trees.items():
        aliases = {}  # local name -> package module, from ``from . import m [as x]``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        yield module, node.lineno, node.module, alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                yield module, node.lineno, aliases[node.value.id], node.attr


def foreign_names(trees: dict[str, ast.Module]) -> list[str]:
    """``file:line module.name`` for every name one package module takes from
    another that the other only imports."""
    defined = {module: defined_names(tree) for module, tree in trees.items()}
    return sorted(f"{module}.py:{line} {source}.{name}"
                  for module, line, source, name in imported_names(trees)
                  if name not in defined[source])


def private_names(trees: dict[str, ast.Module]) -> list[str]:
    """``file:line module._name`` for every underscore name one package
    module reads from another."""
    return sorted(f"{module}.py:{line} {source}.{name}"
                  for module, line, source, name in imported_names(trees)
                  if name.startswith("_"))


def package_trees() -> dict[str, ast.Module]:
    return {module: ast.parse((SRC / "icevision_kit" / f"{module}.py").read_text())
            for module in MODULES}


def test_each_name_is_taken_from_the_module_that_defines_it():
    assert foreign_names(package_trees()) == []


def test_no_module_reads_another_modules_private_names():
    assert private_names(package_trees()) == []


def test_private_names_are_found_in_both_import_forms():
    trees = {"a": ast.parse("from . import b as bee\nfrom .b import _x, y\nbee._z(bee.w)\n"),
             "b": ast.parse("_x = y = w = 1\ndef _z(v): return v\n")}
    assert private_names(trees) == ["a.py:2 b._x", "a.py:3 b._z"]


def unused_imports(trees: dict[str, ast.Module]) -> list[str]:
    """``file:line name`` for every name an import binds that its module
    never reads; a read in an annotation counts, a string annotation
    included.  ``from __future__`` imports bind nothing."""
    unused = []
    for module, tree in trees.items():
        bound = {}  # name -> line of the import that binds it
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    # ``import a.b`` binds ``a``
                    bound.update((alias.asname or alias.name.partition(".")[0], node.lineno)
                                 for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                                if isinstance(n, ast.Name))
        unused += [f"{module}.py:{line} {name}" for name, line in bound.items()
                   if name not in read]
    return sorted(unused)


def test_every_imported_name_is_read():
    assert unused_imports(package_trees()) == []


def test_unused_imports_are_found_in_every_import_form():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, os.path as osp, numpy.linalg\n"
                     "from . import core as c, frames\n"
                     "from .core import area, iou\n"
                     "def f(x: 'area', y: c.Box) -> iou:\n    return numpy\n")
    assert unused_imports({"m": tree}) == ["m.py:2 os", "m.py:2 osp", "m.py:3 frames"]


def exception_classes(trees: dict[str, ast.Module]) -> list[str]:
    """``module.Class`` for every class that derives from a built-in
    exception, directly or through other classes of ``trees``."""
    bases = {}  # class name -> (module, names of its bases)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):  # a base ``m.Name`` is read as ``Name``
                bases[node.name] = (module, [ast.unparse(b).rpartition(".")[2] for b in node.bases])

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return name in bases and any(map(is_exception, bases[name][1]))

    return sorted(f"{module}.{name}" for name, (module, _) in bases.items() if is_exception(name))


def test_exception_classes_are_found_through_their_bases():
    tree = ast.parse("class A(ValueError): pass\nclass B(A): pass\n"
                     "class C(dict): pass\nclass D(enum.Enum): pass\nclass E(errors.F): pass\n"
                     "class F(OSError): pass\n")
    assert exception_classes({"m": tree}) == ["m.A", "m.B", "m.E", "m.F"]


def test_the_one_exception_class_is_datastore_error():
    assert exception_classes(package_trees()) == ["datastore.DatastoreError"]
