"""Static checks: every export resolves and no import goes unused.

The scan covers the sources of the imported sqfnlab (installed or from
src/) and this tests directory.
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
