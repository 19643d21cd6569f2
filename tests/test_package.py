"""The package's public names."""

import importlib
import pkgutil

import pytest

import catmem

MODULES = sorted(info.name for info in pkgutil.iter_modules(catmem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # `from catmem.<module> import *` raises on a stale __all__ entry
    module = importlib.import_module(f"catmem.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from catmem.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_star_import_of_the_package():
    # the test-only references live in tests/references.py, not the package
    namespace = {}
    exec("from catmem import *", namespace)
    assert "run_point" in namespace and "cat_variance" in namespace
    assert not {"DecoherenceParams", "evolve_characteristic", "cat_char_normal",
                "ideal_P_x", "ideal_P_p"} & set(namespace)
