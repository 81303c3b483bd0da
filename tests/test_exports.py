"""Export lists and imports: every listed name resolves, once, and the
package re-exports only what its submodules export, so `from crn_sense
import *` cannot break on a name left behind by a deletion; no module
of the package or the tests imports a name it never reads, as a move
of code between modules tends to leave behind; and the package defines
no module-level name that nothing in it reads, as a replaced helper
tends to leave behind; and importing the package, or the CLI with its
parser built, loads none of the standard or numpy modules that only
some calls need."""

from __future__ import annotations

import ast
import glob
import importlib
import os
import pkgutil
import subprocess
import sys

import crn_sense


def test_export_lists_resolve_without_duplicates():
    submodules = [
        importlib.import_module(f"crn_sense.{info.name}")
        for info in pkgutil.iter_modules(crn_sense.__path__)
    ]
    assert submodules
    exported: set[str] = set()
    for module in (crn_sense, *submodules):
        names = module.__all__
        assert len(names) == len(set(names)), f"{module.__name__}.__all__ has duplicates"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
        if module is not crn_sense:
            exported.update(names)
    stray = set(crn_sense.__all__) - exported - {"__version__"}
    assert not stray, f"package exports no submodule exports: {sorted(stray)}"


def listed_in_all(tree: ast.Module) -> list[str]:
    """The names in the module's `__all__`, if it assigns one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def imported_but_unused(path: str) -> list[str]:
    """Names that the module at `path` imports and never reads.

    A name counts as read where it is loaded, as `np` is in `np.sum`,
    or listed in the module's `__all__`, which is how the package
    re-exports its submodules' names.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read.update(listed_in_all(tree))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    tests = os.path.dirname(os.path.abspath(__file__))
    package = os.path.dirname(os.path.abspath(crn_sense.__file__))
    paths = sorted(glob.glob(os.path.join(package, "*.py")) + glob.glob(os.path.join(tests, "*.py")))
    assert len(paths) > 10
    unused = {os.path.basename(path): imported_but_unused(path) for path in paths}
    assert not any(unused.values()), {name: names for name, names in unused.items() if names}


def module_definitions(tree: ast.Module) -> dict[str, int]:
    """The functions, classes and assigned names a module defines at its top level, with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {name: line for name, line in defined.items() if not (name.startswith("__") and name.endswith("__"))}


def test_every_package_definition_is_read():
    # read means loaded by name (f()) or as an attribute (module.f),
    # anywhere in the package, or listed in an __all__
    package = os.path.dirname(os.path.abspath(crn_sense.__file__))
    trees = {}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), path)
    assert len(trees) > 5
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        read.update(listed_in_all(tree))
    unread = {}
    for name, tree in trees.items():
        for definition, line in module_definitions(tree).items():
            if definition not in read:
                unread.setdefault(name, []).append(f"{definition} (line {line})")
    assert not unread, unread


def test_package_exports_both_band_counters():
    # 40 names with __version__: count_bands counts many pairs from one
    # sort, count_band is its one-pair call; the resolved detector's
    # closed form is resolved_occupied_probability over a tails pair
    assert len(crn_sense.__all__) == 40
    assert {"count_band", "count_bands"} <= set(crn_sense.__all__)


def test_import_loads_only_what_every_run_uses():
    # numpy.random comes with the first draw and statistics with the
    # first normal quantile; worker threads need no concurrent.futures,
    # and so nothing loads logging
    unused = ["numpy.random", "statistics", "concurrent.futures", "logging"]
    child = (
        "import sys\n"
        "import crn_sense\n"
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
        "import crn_sense.cli\n"
        "crn_sense.cli.build_parser()\n"
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(crn_sense.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, *unused], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
