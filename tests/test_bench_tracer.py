"""The bench tracer still finds, wraps and restores every target it names.

``bench/tracer.py`` patches functions where the program binds them, so a
refactor that drops or renames such a binding breaks traced bench runs.
"""

import importlib.util
from pathlib import Path

import pytest

from alloysim import experiments

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("alloysim_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
