import importlib
import pkgutil

import pytest

import alloysim

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(alloysim.__path__))


@pytest.mark.parametrize("module", ["alloysim"] + [f"alloysim.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(mod, name)] == []
