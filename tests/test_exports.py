import importlib
import pkgutil

import pytest

import alloysim

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(alloysim.__path__))
# the experiment runner and the command line are imported on their own
EXCLUDED = {"alloysim.experiments", "alloysim.cli"}


@pytest.mark.parametrize("module", ["alloysim"] + [f"alloysim.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_package_exports_the_union_of_submodule_lists():
    modules = [importlib.import_module(f"alloysim.{m}") for m in SUBMODULES]
    union = [name for mod in modules if mod.__name__ not in EXCLUDED for name in mod.__all__]
    assert sorted(alloysim.__all__) == sorted(union + ["__version__"])


def test_every_public_name_is_declared_in_its_module():
    # every class or function a module defines without a leading underscore
    # is public, so it belongs in that module's ``__all__``
    for m in SUBMODULES:
        mod = importlib.import_module(f"alloysim.{m}")
        if mod.__name__ in EXCLUDED:
            continue
        own = {
            name for name, obj in vars(mod).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == mod.__name__
        }
        assert own <= set(mod.__all__), f"{mod.__name__} defines undeclared {sorted(own - set(mod.__all__))}"
