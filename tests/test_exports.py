"""Every public name a module declares, and every library name the bench imports, exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import usctransfer

# __main__ runs the command line when imported
MODULES = sorted(info.name for info in pkgutil.iter_modules(usctransfer.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"usctransfer.{name}")
    assert module.__all__, f"usctransfer.{name} declares no public names"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"usctransfer.{name}.__all__ names missing attributes: {missing}"


def test_every_name_the_bench_imports_resolves():
    # the bench files change only with the benchmark, so a library name they import must not go away unnoticed;
    # they are read, not run
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "usctransfer"
        for alias in node.names
    ]
    assert imports, "bench/ imports nothing from usctransfer"
    missing = [f"{source}: from {module} import {name}" for source, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"bench/ imports names the library lacks: {missing}"
