"""Export lists: every listed name resolves, once, and the package
re-exports only what its submodules export, so `from crn_sense import *`
cannot break on a name left behind by a deletion."""

from __future__ import annotations

import importlib
import pkgutil

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
