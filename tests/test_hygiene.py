"""Static checks: every export resolves, no import or local goes unused,
the package reads no single dyadic cell and computes no single-pair W1
inside a loop, no function of it calls itself, a level fill calls no
np.unique and the grid oracle no np.unique, np.median or np.ma, only transport.py and the level fill name the row kernel, the
suite keeps its stopping forest as arrays, with no Tree objects, the
alpha^2 sums of tree.py and squarefn.py read alphas in three places only,
and a per-entry alpha graph builds no Measure.

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
LEVEL_FILL = {"alpha.py": {"_alpha_levels", "_tiled_rows", "_cdf_rows",
                           "_cell_rows", "_cell_side", "_cell_tables",
                           "_cell_runs", "_cell_cumsums", "_cell_reps",
                           "_cell_parts", "_cell_points", "_ranks",
                           "_level_ranks", "_cell_cdf"},
              "measure.py": {"_level_cells", "_level_parts", "_runs"},
              "transport.py": {"w1_rows", "_row_medians", "_row_values",
                               "_bisect", "_abs_integral"}}


def _numpy_names(path, names, banned):
    """(line, function, name) of each np.<name> / numpy.<name> with a banned
    name in the named top-level functions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = [f for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name in names]
    assert {f.name for f in funcs} == names, path.name
    return sorted((node.lineno, func.name, node.attr) for func in funcs
                  for node in ast.walk(func) if isinstance(node, ast.Attribute)
                  and node.attr in banned and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy"))


def test_no_unique_in_the_level_fill():
    found = [f"{name}:{line}: {func}"
             for name, funcs in sorted(LEVEL_FILL.items())
             for line, func, _ in _numpy_names(PACKAGE_DIR / name, funcs,
                                               {"unique"})]
    assert found == []


# the grid oracle's functions, which oracle-crossval runs 3,000 times: an
# np.unique there imported numpy.ma and raised the scenario's peak RSS by
# 1.1 MB, and the first np.median or np.ma of a process imports it as well
ORACLE = {"_grid_cdf", "w1_oracle", "_middle_pair"}


def test_no_masked_arrays_in_the_oracle():
    found = [f"transport.py:{line}: np.{name} in {func}"
             for line, func, name in _numpy_names(
                 PACKAGE_DIR / "transport.py", ORACLE,
                 {"unique", "median", "ma"})]
    assert found == []


# the one caller of the row kernel outside transport.py: a level fill's rows
# are stacked already, and w1_values would stack the widest again
ROW_KERNEL_CALLERS = {"alpha.py": "_alpha_levels"}


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


def _tree_objects_on_the_suite_path():
    """Lines where stopping_forest calls Tree, or cli.py reads .trees."""
    tree = ast.parse((PACKAGE_DIR / "tree.py").read_text())
    forest = next(f for f in tree.body if isinstance(f, ast.FunctionDef)
                  and f.name == "stopping_forest")
    cli = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    return sorted(
        [f"tree.py:{node.lineno}: Tree" for node in ast.walk(forest)
         if isinstance(node, ast.Call) and _called_name(node) == "Tree"]
        + [f"cli.py:{node.lineno}: .trees" for node in ast.walk(cli)
           if isinstance(node, ast.Attribute) and node.attr == "trees"])


def test_the_suite_path_builds_no_tree_objects():
    # a cascade forest is 8,191 singleton trees: the suite reads the member
    # arrays, and a Tree is built only where a check needs one (forest.tree)
    assert _tree_objects_on_the_suite_path() == []


# the dyadic functions that read alphas: the stopping sweep, the profile
# chains and _pruned_terms, whose level terms the Carleson, Buckley and L2
# sums all read
ALPHA_READERS = {"stopping_forest", "dyadic_square_profile", "_pruned_terms"}


def _alpha_reads(path):
    """Lines calling .alphas( outside the ALPHA_READERS functions, methods
    and nested functions included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {node for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               and func.name in ALPHA_READERS for node in ast.walk(func)}
    return sorted(call.lineno for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and call not in allowed
                  and isinstance(call.func, ast.Attribute)
                  and call.func.attr == "alphas")


def test_only_three_functions_read_alphas():
    # a Carleson or L2 sum that read alphas itself would compute the alpha^2
    # terms a second time; it reads _pruned_terms instead
    found = [f"{name}:{line}" for name in ("tree.py", "squarefn.py")
             for line in _alpha_reads(PACKAGE_DIR / name)]
    assert found == []


# the calls that build a Measure: a per-entry graph goes from the measures'
# arrays to its CDF tables without one
MEASURE_CONSTRUCTORS = {"restrict", "blowup", "scale", "_derived", "from_arrays",
                    "Measure"}


def _reachable(root, names):
    """(functions, calls): the top-level functions of the named package
    files that root reaches by calling them by name, itself included, and
    every name those functions call."""
    funcs = {f.name: f for name in names
             for f in ast.parse((PACKAGE_DIR / name).read_text()).body
             if isinstance(f, ast.FunctionDef)}
    seen, calls, todo = set(), set(), [root]
    while todo:
        name = todo.pop()
        if name in funcs and name not in seen:
            seen.add(name)
            found = {_called_name(call) for call in ast.walk(funcs[name])
                     if isinstance(call, ast.Call)}
            calls |= found
            todo += found
    return seen, calls


def test_the_entry_graph_builds_no_measure():
    # a Measure per step (restrict, blowup, scale: six per key) costs more
    # than the graph's own arithmetic
    funcs, calls = _reachable("_graph", ("alpha.py", "measure.py"))
    assert {"_blowup_parts", "_cdf_tables", "_difference",
            "_integrate_parts"} <= funcs
    assert sorted(calls & MEASURE_CONSTRUCTORS) == []
