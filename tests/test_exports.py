import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import alloysim
from alloysim.experiments import suite

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


# Every scipy use in the package imports its subpackage where it is called, so
# ``import alloysim`` (with the runner and the command line) loads no scipy
# module, nor the ``importlib.metadata`` a version lookup would load, and runs
# of kinds that never call scipy load none either.  A chain spectrum loads
# ``scipy.linalg``; the quadrature checks load ``scipy.integrate`` (which loads
# ``scipy.optimize``); nothing loads ``scipy.stats``.  The ``ids`` and
# ``poisson`` runs fork their realization loops with ``os`` alone, so they
# load neither ``multiprocessing`` nor the process pool of
# ``concurrent.futures`` (whose package scipy loads through ``numpy.testing``).
IMPORT_GUARD = """
import contextlib, io, json, sys
from pathlib import Path

import numpy as np


def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith(("scipy.", "importlib.metadata")))


import alloysim, alloysim.experiments, alloysim.cli

report = {"import": loaded()}
members, out = Path(sys.argv[1]), Path(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    report["codes"] = [alloysim.experiments.run(str(members / f"{m}.json"), out=str(out / m))
                       for m in ("constants", "decay")]
report["runs"] = loaded()
u = alloysim.build_single_site(1, [((0,), 1.0), ((1,), 1.0)])
volume = alloysim.build_volume(1, radius=8)
field = alloysim.sample_field(u, alloysim.CouplingMeasure.uniform(0.0, 1.0), volume, 3, 0)
op = alloysim.assemble(field, lam=4.0)
eigs = alloysim.spectrum(op)
report["spectrum"] = loaded()
from scipy.linalg import eigvalsh_tridiagonal

report["bitwise"] = eigs.tobytes() == eigvalsh_tridiagonal(op.diagonal, -np.ones(op.size - 1)).tobytes()
check = alloysim.inverse_moment_check(alloysim.CouplingMeasure.uniform(0.0, 1.0), s=0.5, b=2.0)
report["quadrature"] = [check.holds] + [m in sys.modules for m in
                                         ("scipy.integrate", "scipy.optimize", "scipy.stats")]
with contextlib.redirect_stdout(io.StringIO()):
    report["forked"] = [alloysim.experiments.run(str(out / f"{m}.json"), out=str(out / m))
                        for m in ("ids", "poisson")]
report["pools"] = [m for m in ("multiprocessing", "concurrent.futures.process")
                   if m in sys.modules]
print(json.dumps(report))
"""

REPO = Path(__file__).resolve().parents[1]
MEMBERS = REPO / "suites" / "acceptance_checks"


def _fresh_interpreter(code, *args, **env_overrides):
    # a fresh interpreter: the test modules themselves import scipy
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_cold_scipy_subpackage(tmp_path):
    model = {"dimension": 1, "lambda": 15.0, "single_site": [[[0], 1.0]],
             "measure": {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}}}
    small = {
        "ids": {"radius": 20, "n_realizations": 10, "n_grid": 201},
        "poisson": {"stats_radius": 20, "ids_radius": 20, "ids_realizations": 3,
                    "n_realizations": 200, "n_grid": 201, "e0": "median"},
    }
    for kind, params in small.items():
        config = {"schema_version": 1, "kind": kind, "seed": 3, "model": model, "params": params}
        (tmp_path / f"{kind}.json").write_text(json.dumps(config))
    report = _fresh_interpreter(IMPORT_GUARD, MEMBERS, tmp_path)
    assert report["import"] == []
    assert report["codes"] == [0, 0]
    assert report["runs"] == []
    assert "scipy.linalg" in report["spectrum"] and "scipy.special" not in report["spectrum"]
    assert report["bitwise"] is True
    assert report["quadrature"] == [True, True, True, False]
    assert report["forked"] == [0, 0]
    assert report["pools"] == []


POOL_SUITE = """
import contextlib, io, json, sys
from alloysim.experiments import suite

with contextlib.redirect_stdout(io.StringIO()):
    code = suite(sys.argv[1])
print(json.dumps([code, "scipy.linalg" in sys.modules, "scipy.special" in sys.modules]))
"""


def test_two_worker_suite_from_a_cold_start_matches_a_serial_run(tmp_path, monkeypatch, capsys):
    # members that call scipy and members that never do, run by a pool whose
    # parent loads scipy once before it forks
    members = [str(MEMBERS / f"{m}.json") for m in ("constants", "decay", "wegner")]

    def manifest(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"schema_version": 1, "configs": members, "out": name}))
        return path

    def outputs(name):
        out = tmp_path / name
        return {p.relative_to(out): p.read_bytes()
                for p in out.rglob("*") if p.name == "results.json" or p.suffix == ".csv"}

    monkeypatch.setenv("ALLOYSIM_WORKERS", "1")
    assert suite(manifest("serial")) == 0
    pool = _fresh_interpreter(POOL_SUITE, manifest("pool"), ALLOYSIM_WORKERS="2")
    assert pool == [0, True, True]
    assert len(outputs("serial")) == 5
    assert outputs("pool") == outputs("serial")
    capsys.readouterr()


def test_version_is_stated_once():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == alloysim.__version__
