"""The package ships only what runs.

Every function, method and class defined in ``src/edgeslice``, and every
name a module of it assigns at module level, must be referenced from a
program path: another place in the package, the
benchmark harness (``perfbench/``), a demo (``demos/``) or the console
script in ``pyproject.toml``. Its own definition, the re-exports in
``edgeslice/__init__.py`` and the tests do not count, so code that only
tests call fails here. Dunder methods are called by the language itself
and are exempt, and so is ``_``, the name of a value an unpacking skips.

References are read from the syntax tree: names, attribute names, imported
names and the identifier-like words of string constants (the benchmark
tracer names the functions it wraps in strings). Docstrings are skipped.
The match is by name, so a method shares its references with every other
definition of that name.

Every name a package module imports must be read in that module: loaded as
a name, or named in a string such as a quoted annotation. The re-exports of
``edgeslice/__init__.py`` are exempt, and so are the few names the benchmark
tracer patches through a module that does not call them (``TRACER_IMPORTS``).
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "edgeslice"
PROGRAM_PATHS = ("perfbench", "demos")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: imports that their module never reads: ``perfbench/tracer.py`` patches
#: each of these functions through the module named, where the benchmark's
#: tracer tests look it up, though the functions are called elsewhere
TRACER_IMPORTS = [
    "primitives.py: decode_fieldline",
    "primitives.py: encode_fieldline",
    "primitives.py: encode_resource",
    "system.py: match_subscriptions",
]


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the string constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                found.add(id(body[0].value))
    return found


def _words(node: ast.AST, skip: set[int]) -> Counter:
    """How often ``node`` and its descendants refer to each name, leaving out
    the string constants whose ids are in ``skip``."""
    words: Counter = Counter()
    for current in ast.walk(node):
        if isinstance(current, ast.Name):
            words[current.id] += 1
        elif isinstance(current, ast.Attribute):
            words[current.attr] += 1
        elif isinstance(current, ast.alias):
            words[current.name.rpartition(".")[2]] += 1
        elif isinstance(current, ast.Constant) and isinstance(current.value, str) \
                and id(current) not in skip:
            words.update(WORD.findall(current.value))
    return words


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level functions, classes and assigned names, and the methods of
    those classes: each name with the node that defines it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found.extend((n.name, n) for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((name.id, node) for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
    return found


def _unreferenced() -> list[str]:
    parsed = {path: ast.parse(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    # a console script's entry point, "module:function"
    referenced = Counter(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    for path in [*parsed, *(p for name in PROGRAM_PATHS for p in sorted((ROOT / name).rglob("*.py")))]:
        tree = parsed.get(path) or ast.parse(path.read_text(encoding="utf-8"))
        referenced += _words(tree, _docstrings(tree))
    unreferenced = []
    for path, tree in parsed.items():
        docstrings = _docstrings(tree)
        for name, definition in _definitions(tree):
            if name == "_" or name.startswith("__") and name.endswith("__"):
                continue
            # the definition's own body does not count
            if referenced[name] - _words(definition, docstrings)[name] <= 0:
                unreferenced.append(f"{path.name}:{definition.lineno} {name}")
    return unreferenced


def test_every_definition_in_the_package_is_reached_from_a_program_path():
    assert _unreferenced() == []


def _unread_imports() -> list[str]:
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = _docstrings(tree)
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
                read.update(WORD.findall(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read and name != "annotations":  # ``from __future__ import annotations``
                        unread.append(f"{path.name}: {name}")
    return unread


def test_every_import_of_a_package_module_is_read_there():
    assert _unread_imports() == TRACER_IMPORTS
