"""The bench tracer still finds, wraps and restores every target it names,
and every layer a traced workload must exercise still records calls.

``bench/tracer.py`` patches functions where the program binds them, so a
refactor that drops or renames such a binding, or routes a workload around
it, breaks traced bench runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from alloysim import experiments

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"alloysim_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_recorder_installs_and_restores_every_target():
    tracer = _load_tracer()
    targets = [(owner, attr) for owner, attr, *_ in tracer.TARGETS]
    originals = {t: getattr(tracer._resolve(t[0]), t[1], None) for t in targets}
    runners = dict(experiments._KINDS)
    recorder = tracer.Recorder()
    try:
        recorder.install(experiments.experiment_kinds())
        for (owner, attr), fn in originals.items():
            assert getattr(tracer._resolve(owner), attr) is not fn, f"{owner}.{attr} not wrapped"
    except tracer.MissingTarget as exc:
        pytest.fail(f"wrapped target missing: {exc}")
    finally:
        recorder.uninstall()
    for (owner, attr), fn in originals.items():
        assert getattr(tracer._resolve(owner), attr) is fn, f"{owner}.{attr} not restored"
    assert experiments._KINDS.keys() == runners.keys()
    for kind, entry in runners.items():
        assert experiments._KINDS[kind] is entry, f"runner of {kind} not restored"


# Sample-count params of the workload configs and the handful each keeps
# (the Poisson statistics refuse fewer than 200 realizations).
_HANDFUL = {"n_samples": 40, "scaling_samples": 40, "n_realizations": 200, "ids_realizations": 3}


@pytest.mark.parametrize("workload", ["small-chain", "long-chain"])
def test_traced_workload_records_every_required_call(workload, tmp_path):
    tracer, workloads = _load("tracer"), _load("workloads")
    paths = {}
    for name, cfg in workloads.configs(workload, 0).items():
        for key, count in _HANDFUL.items():
            if key in cfg["params"]:
                cfg["params"][key] = min(cfg["params"][key], count)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    kinds = sorted({json.loads(p.read_text())["kind"] for p in paths.values()})
    required = workloads.REQUIRED_CALLS[workload] | {f"experiments.runner.{k}" for k in kinds}
    recorder = tracer.Recorder()
    codes = {}
    try:
        recorder.install(kinds)
        for name, path in paths.items():
            codes[name], _ = recorder.root(
                name, experiments.run, str(path), out=str(tmp_path / "out" / name)
            )
    finally:
        recorder.uninstall()
    assert codes == {name: 0 for name in paths}
    uncalled = sorted(t for t in required if recorder.calls[t] == 0)
    assert not uncalled, f"{workload}: no calls recorded for {', '.join(uncalled)}"
