import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# scipy subpackages that ``import alloysim`` must not load: no realization loop
# uses them, and loading them at import doubled start-up.  The quadrature checks
# import ``scipy.integrate`` (which loads ``scipy.optimize``) on first use.
COLD_SUBPACKAGES = ["scipy.stats", "scipy.integrate", "scipy.optimize"]

IMPORT_GUARD = f"""
import sys
import alloysim, alloysim.experiments, alloysim.cli
print([m for m in {COLD_SUBPACKAGES!r} if m in sys.modules])
check = alloysim.inverse_moment_check(alloysim.CouplingMeasure.uniform(0.0, 1.0), s=0.5, b=2.0)
print(check.holds)
"""


def test_import_loads_no_cold_scipy_subpackage():
    # a fresh interpreter: the test modules themselves import scipy.integrate
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == ["[]", "True"]
