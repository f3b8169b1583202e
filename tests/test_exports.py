"""Every public name a module declares exists."""

import importlib
import pkgutil

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
