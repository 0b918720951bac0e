import importlib
import pkgutil

import pytest

import levyspec

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(levyspec.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_name_in_a_submodule_all_exists_and_is_re_exported(name):
    module = importlib.import_module(f"levyspec.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"levyspec.{name}.__all__ lists {attr}, which is gone"
        assert getattr(levyspec, attr, None) is getattr(module, attr), \
            f"levyspec does not re-export levyspec.{name}.{attr}"
