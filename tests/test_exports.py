import importlib
import json
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


# Every scipy use in the package imports its subpackage where it is called, so
# ``import alloysim`` (with the runner and the command line) loads no scipy
# module, nor the ``importlib.metadata`` a version lookup would load, and runs
# of kinds that never call scipy load none either; ``recursion`` is one of
# them, since its real-energy guard counts chain eigenvalues by Sturm counts
# instead of computing a spectrum, and so are ``minami`` and
# ``decay-profile``, whose fields come in blocks.  A chain spectrum loads
# ``scipy.linalg``; the quadrature checks load ``scipy.integrate`` (which loads
# ``scipy.optimize``); nothing loads ``scipy.stats``.  The ``ids`` and
# ``poisson`` runs fork their realization loops, and suites their members,
# with ``os`` alone, so they load neither ``multiprocessing`` nor the process
# pool of ``concurrent.futures`` (whose package scipy loads through
# ``numpy.testing``).
# Of the bulk-sampling kinds, ``concentration`` and ``certificate`` load no
# scipy module, and ``gaussian-conditioning`` loads ``scipy.special`` for its
# Gibbs sampler but not ``scipy.linalg``: its Gram solves are numpy's.
LOADED = """
import contextlib, io, json, sys
from pathlib import Path


def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith(("scipy.", "importlib.metadata")))
"""

IMPORT_GUARD = LOADED + """
import numpy as np

import alloysim, alloysim.experiments, alloysim.cli

report = {"import": loaded()}
members, out = Path(sys.argv[1]), Path(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    report["codes"] = [alloysim.experiments.run(str(members / f"{m}.json"), out=str(out / m))
                       for m in ("constants", "decay", "recursion")]
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


def _fresh_interpreter(code, *args):
    """The JSON report ``code`` prints last, and the lines printed before it."""
    # a fresh interpreter: the test modules themselves import scipy; with
    # stdout block-buffered, as a pipe gets it by default
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    *printed, report = proc.stdout.splitlines()
    return json.loads(report), printed


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
    report, _ = _fresh_interpreter(IMPORT_GUARD, MEMBERS, tmp_path)
    assert report["import"] == []
    assert report["codes"] == [0, 0, 0]
    assert report["runs"] == []
    assert "scipy.linalg" in report["spectrum"] and "scipy.special" not in report["spectrum"]
    assert report["bitwise"] is True
    assert report["quadrature"] == [True, True, True, False]
    assert report["forked"] == [0, 0]
    assert report["pools"] == []


BULK_GUARD = LOADED + """
import alloysim.experiments

report = {}
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = alloysim.experiments.run(path, out=str(Path(path).with_suffix("")))
    report[Path(path).stem] = [code, loaded()]
print(json.dumps(report))
"""


def test_bulk_sampling_kinds_load_no_scipy_linalg(tmp_path):
    two_tap = {"dimension": 1, "lambda": 1.0, "single_site": [[[0], 1.0], [[1], 1.0]],
               "measure": {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}}}
    small = {
        "concentration": {"model": two_tap, "params": {
            "site": [0], "eps_values": [0.5, 1.0], "n_samples": 2000}},
        "certificate": {"model": two_tap, "params": {
            "delta": 0.05, "delta_prime": 0.05, "n_target": 50}},
        "gaussian-conditioning": {"params": {
            "coeffs": [1.0], "l_max": 2, "m_max": 2,
            "tau_mc": {"l": 2, "m": 2, "tau_values": [0.08], "n_target": 300,
                       "chains": 16, "burn_in": 5, "thin": 1}}},
    }
    paths = []
    for kind, body in small.items():
        paths.append(tmp_path / f"{kind}.json")
        paths[-1].write_text(json.dumps({"schema_version": 1, "kind": kind, "seed": 3, **body}))
    report, _ = _fresh_interpreter(BULK_GUARD, *paths)
    assert report["concentration"] == [0, []]
    assert report["certificate"] == [0, []]
    code, modules = report["gaussian-conditioning"]
    assert code == 0 and "scipy.special" in modules
    assert [m for m in modules if m.startswith("scipy.linalg")] == []


def test_block_draw_kinds_load_no_scipy(tmp_path):
    # minami, decay-profile and the cosine fractional moment draw their fields
    # in blocks of streams, the cosine couplings by inverse CDF, and solve them
    # with the chain kernel: numpy alone
    paths = []
    for member, params in [("minami", {"n_samples": 300, "scaling_samples": 600}),
                           ("decay", {}), ("apriori-lam10", {"n_samples": 500})]:
        config = json.loads((MEMBERS / f"{member}.json").read_text())
        config["params"].update(params)
        paths.append(tmp_path / f"{member}.json")
        paths[-1].write_text(json.dumps(config))
    report, _ = _fresh_interpreter(BULK_GUARD, *paths)
    assert report == {"minami": [0, []], "decay": [0, []], "apriori-lam10": [0, []]}


FORKED_SUITE = """
import json, os, sys
from alloysim.cli import main

os.sched_getaffinity = lambda pid: {0, 1}  # two parts on any host
code = main(["suite", sys.argv[1]])
print(json.dumps([code] + [m for m in ("multiprocessing", "concurrent.futures.process")
                           if m in sys.modules]))
"""


def test_suite_forks_its_members_without_a_process_pool(tmp_path):
    # the forked part's lines are kept only if it flushes them
    members = ["constants", "decay", "wegner"]
    manifest = tmp_path / "suite.json"
    manifest.write_text(json.dumps({"schema_version": 1, "out": "out",
                                    "configs": [str(MEMBERS / f"{m}.json") for m in members]}))
    report, printed = _fresh_interpreter(FORKED_SUITE, manifest)
    assert report == [0]
    for m in members:
        assert len([line for line in printed if line.endswith(f" ({tmp_path / 'out' / m})")]) == 1


def test_version_is_stated_once():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == alloysim.__version__
