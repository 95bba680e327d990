"""Static checks: every export resolves, no import or local goes unused.

The import scan covers the sources of the imported sqfnlab (installed or
from src/) and this tests directory; the local scan covers the sources.
"""

import ast
import importlib
import pathlib
import pkgutil

import sqfnlab

PACKAGE_DIR = pathlib.Path(sqfnlab.__file__).resolve().parent
TESTS_DIR = pathlib.Path(__file__).resolve().parent


def test_every_all_entry_resolves():
    names = ["sqfnlab"] + [f"sqfnlab.{m.name}"
                           for m in pkgutil.iter_modules(sqfnlab.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []


def _unused_imports(path):
    """(line, name) of names a file imports but never reads.

    A name counts as read when it appears anywhere as an identifier or as a
    string in the module's __all__; imports from __future__ are skipped.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    files = sorted(PACKAGE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))
    found = [f"{path.name}:{line}: {name}"
             for path in files for line, name in _unused_imports(path)]
    assert found == []


def _unused_locals(path):
    """(line, function, name) of names a function binds with `=` unread.

    Tuple targets count as bindings and augmented assignments as reads;
    reads inside nested functions count.  `_` and names a function declares
    nonlocal or global are skipped.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {}
        declared = {"_"}
        stack = list(func.body)
        while stack:  # the function's own statements, not nested scopes
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(
                                name.ctx, ast.Store):
                            bound.setdefault(name.id, node.lineno)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                declared.update(node.names)
            stack.extend(ast.iter_child_nodes(node))
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                                ast.Name):
                read.add(node.target.id)
        found += [(line, func.name, name) for name, line in bound.items()
                  if name not in read and name not in declared]
    return sorted(found)


def test_no_unused_locals():
    found = [f"{path.name}:{line}: {name} in {func}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for line, func, name in _unused_locals(path)]
    assert found == []
