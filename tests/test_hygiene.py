"""Static checks: every export resolves, no import or local goes unused,
the package reads no single dyadic cell and computes no single-pair W1
inside a loop, no function of it calls itself, a level fill calls no
np.unique, and only transport.py and the level fill name the row kernel.

The unused-name scans cover the sources of the imported sqfnlab (installed
or from src/) and this tests directory; the loop scan covers the package.
"""

import ast
import importlib
import pathlib
import pkgutil

import sqfnlab

PACKAGE_DIR = pathlib.Path(sqfnlab.__file__).resolve().parent
TESTS_DIR = pathlib.Path(__file__).resolve().parent
FILES = sorted(PACKAGE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))


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
    found = [f"{path.name}:{line}: {name}"
             for path in FILES for line, name in _unused_imports(path)]
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
             for path in FILES for line, func, name in _unused_locals(path)]
    assert found == []


# scalar reads of one dyadic cell, and the W1 of one pair; a loop over
# cells reads level arrays, and a loop over pairs batches through w1_values
PER_CELL = {"cell_mass", "is_uniform_on", "w1_supported"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _per_cell_reads_in_loops(path):
    """(line, name) of calls to a PER_CELL function inside a for or while
    loop or a comprehension."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({(call.lineno, _called_name(call))
                   for loop in ast.walk(tree) if isinstance(loop, LOOPS)
                   for call in ast.walk(loop) if isinstance(call, ast.Call)
                   and _called_name(call) in PER_CELL})


def test_no_per_cell_reads_in_loops():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for line, name in _per_cell_reads_in_loops(path)]
    assert found == []


def _self_calls(path):
    """(line, function) of calls a function makes to itself: by its name,
    or as self.name inside a method; nested functions count as their own.
    """
    found = set()

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    f = getattr(call, "func", None)
                    if (isinstance(f, ast.Name) and not in_class
                            and f.id == node.name) or (
                            isinstance(f, ast.Attribute) and in_class
                            and f.attr == node.name
                            and isinstance(f.value, ast.Name)
                            and f.value.id == "self"):
                        found.add((call.lineno, node.name))
                visit(node.body, False)

    visit(ast.parse(path.read_text(), filename=str(path)).body, False)
    return sorted(found)


def test_no_recursion():
    # a walk over cells is a level sweep; recursion hides from the loop scan
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for line, name in _self_calls(path)]
    assert found == []


# a level fill's functions; the first np.unique of a process imports
# numpy.ma, which raises peak RSS
LEVEL_FILL = {"alpha.py": {"_alpha_level", "_cdf_rows"},
              "measure.py": {"_level_pieces", "_cell_width"},
              "transport.py": {"w1_rows", "_row_medians", "_row_values",
                               "_bisect", "_abs_integral"}}


def _unique_calls(path, names):
    """(line, function) of np.unique / numpy.unique calls in the named
    top-level functions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = [f for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name in names]
    assert {f.name for f in funcs} == names, path.name
    return sorted((call.lineno, func.name) for func in funcs
                  for call in ast.walk(func) if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Attribute)
                  and call.func.attr == "unique"
                  and isinstance(call.func.value, ast.Name)
                  and call.func.value.id in ("np", "numpy"))


def test_no_unique_in_the_level_fill():
    found = [f"{name}:{line}: {func}"
             for name, funcs in sorted(LEVEL_FILL.items())
             for line, func in _unique_calls(PACKAGE_DIR / name, funcs)]
    assert found == []


# the one caller of the row kernel outside transport.py: a level fill's rows
# are stacked already, and w1_values would stack the widest again
ROW_KERNEL_CALLERS = {"alpha.py": "_alpha_level"}


def _row_kernel_names(path):
    """Lines naming w1_rows outside the function ROW_KERNEL_CALLERS allows
    in the file; imports do not count."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {node for func in tree.body if isinstance(func, ast.FunctionDef)
               and func.name == ROW_KERNEL_CALLERS.get(path.name)
               for node in ast.walk(func)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if node not in allowed and "w1_rows" in (
                      getattr(node, "id", None), getattr(node, "attr", None)))


def test_only_the_level_fill_names_the_row_kernel():
    # every other W1 goes through w1_values, so a graph has one path in
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != "transport.py"
             for line in _row_kernel_names(path)]
    assert found == []
