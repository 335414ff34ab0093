"""Every name a package lists in ``__all__`` is an attribute of that package."""
import importlib

import pytest


@pytest.mark.parametrize("package", ["fuzzyblock", "fuzzyblock.kernel", "fuzzyblock.surrogate"])
def test_all_names_are_attributes(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
