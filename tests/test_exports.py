import importlib
import json
import pathlib
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


def _traced_functions() -> list[str]:
    """Every "module:function" that perfbench/spec.json traces, read from the file."""
    spec = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"
    layers = json.loads(spec.read_text())["layers"]
    return sorted({name for layer in layers.values() for name in layer["functions"]})


@pytest.mark.parametrize("name", _traced_functions())
def test_every_function_the_benchmark_traces_resolves(name):
    # a traced function renamed or deleted would otherwise surface only in a traced run
    module, _, function = name.partition(":")
    assert module.split(".")[0] == "levyspec", name
    assert callable(getattr(importlib.import_module(module), function, None)), \
        f"{name} is listed in perfbench/spec.json but is not a levyspec function"
