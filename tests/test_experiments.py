import contextlib
import copy
import dataclasses
import importlib.util
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import alloysim as al
from alloysim import experiments
from alloysim.cli import main
from alloysim.experiments import (
    emit_plot_data,
    experiment_kinds,
    load_config,
    run,
    suite,
)

REPO = Path(__file__).resolve().parents[1]
SHIPPED = sorted(
    p for p in (REPO / "suites").rglob("*.json") if p.name != "manifest.json"
)
ACCEPTANCE = [p for p in SHIPPED if p.parent.name == "acceptance_checks"]

UNIFORM01 = {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}}
FLAGSHIP_MODEL = {
    "dimension": 1,
    "lambda": 1.0,
    "single_site": [[[0], 1.0], [[1], 1.0]],
    "measure": UNIFORM01,
}


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def inverse_moment_config(tmp_path, name="im.json", **overrides):
    payload = {
        "schema_version": 1,
        "kind": "inverse-moment",
        "seed": 7,
        "params": {
            "measure": UNIFORM01,
            "s": 0.5,
            "b": 0.5,
            "expect": "equality",
        },
    }
    payload.update(overrides)
    return write_config(tmp_path / name, payload)


def concentration_config(tmp_path, name="conc.json", seed=11):
    payload = {
        "schema_version": 1,
        "kind": "concentration",
        "seed": seed,
        "model": FLAGSHIP_MODEL,
        "params": {
            "site": [0],
            "eps_values": [0.5],
            "n_samples": 4000,
            "exact": "uniform-pair",
            "tolerance": 0.05,
        },
    }
    return write_config(tmp_path / name, payload)


class TestLoadConfig:
    def test_hash_ignores_key_order_and_out(self, tmp_path):
        a = inverse_moment_config(tmp_path, "a.json")
        reordered = {
            "params": {"b": 0.5, "expect": "equality", "s": 0.5, "measure": UNIFORM01},
            "seed": 7,
            "kind": "inverse-moment",
            "schema_version": 1,
            "out": str(tmp_path / "elsewhere"),
        }
        b = write_config(tmp_path / "b.json", reordered)
        assert load_config(a).config_hash == load_config(b).config_hash

    def test_seed_override_changes_hash(self, tmp_path):
        path = inverse_moment_config(tmp_path)
        base = load_config(path)
        bumped = load_config(path, seed_override=8)
        assert bumped.seed == 8
        assert bumped.config_hash != base.config_hash

    def test_unknown_top_key_rejected(self, tmp_path):
        path = inverse_moment_config(tmp_path, extra_field=1)
        with pytest.raises(al.ValidationError, match="unknown config keys"):
            load_config(path)

    def test_unknown_param_rejected(self, tmp_path):
        cfg = json.loads(inverse_moment_config(tmp_path).read_text())
        cfg["params"]["bogus"] = 1
        path = write_config(tmp_path / "bad.json", cfg)
        with pytest.raises(al.ValidationError, match="unknown params"):
            load_config(path)

    def test_missing_required_param_rejected(self, tmp_path):
        cfg = json.loads(inverse_moment_config(tmp_path).read_text())
        del cfg["params"]["s"]
        path = write_config(tmp_path / "bad.json", cfg)
        with pytest.raises(al.ValidationError, match="missing params"):
            load_config(path)

    def test_schema_version_and_kind_gates(self, tmp_path):
        for version in (2, True, 1.0, "1", None):
            path = inverse_moment_config(tmp_path, schema_version=version)
            with pytest.raises(al.ValidationError, match="schema_version"):
                load_config(path)
        path = inverse_moment_config(tmp_path, kind="nonsense")
        with pytest.raises(al.ValidationError, match="unknown experiment kind"):
            load_config(path)

    def test_model_block_required_or_forbidden(self, tmp_path):
        cfg = json.loads(concentration_config(tmp_path).read_text())
        del cfg["model"]
        path = write_config(tmp_path / "nomodel.json", cfg)
        with pytest.raises(al.ValidationError, match="needs a model"):
            load_config(path)
        path = inverse_moment_config(tmp_path, model=FLAGSHIP_MODEL)
        with pytest.raises(al.ValidationError, match="does not take a model"):
            load_config(path)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(al.ValidationError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_configs_load(self, path):
        cfg = load_config(path)
        assert cfg.kind in experiment_kinds()

    def test_every_kind_has_a_table_row(self):
        for kind in experiment_kinds():
            row = experiments._KINDS[kind]
            assert callable(row.runner)
            assert row.params and all(
                isinstance(p, experiments._Param) for p in row.params.values()
            )

    def test_readme_lists_every_kind(self):
        text = (REPO / "README.md").read_text()
        para = text[text.index("Available kinds:"):].split(". ")[0]
        assert re.findall(r"`([a-z-]+)`", para) == experiment_kinds()

    def test_params_are_typed_and_defaulted(self, tmp_path):
        payload = json.loads((REPO / "suites/acceptance_checks/poisson.json").read_text())
        payload["params"]["ids_realizations"] = 30.0
        cfg = load_config(write_config(tmp_path / "p.json", payload))
        assert cfg.params["ids_realizations"] == 30
        assert isinstance(cfg.params["ids_realizations"], int)
        assert cfg.params["bin_width"] == 0.25 and cfg.params["window"] == (-5.0, 5.0)
        assert "ids_seed" not in cfg.params
        # the hash covers the config as given, not the typed reading
        raw = load_config(REPO / "suites/acceptance_checks/poisson.json")
        assert cfg.config_hash != raw.config_hash

    def test_kind_registry_is_published(self):
        kinds = experiment_kinds()
        assert kinds == sorted(kinds)
        for name in ("concentration", "poisson", "wegner", "reverse-holder"):
            assert name in kinds


class TestRun:
    def test_successful_run_writes_all_artifacts(self, tmp_path, capsys):
        cfg = concentration_config(tmp_path)
        out = tmp_path / "out"
        assert run(cfg, out=str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["files"]:
            assert (out / name).exists(), name
        assert "manifest.json" == manifest["files"][-1]
        assert "concentration.csv" in manifest["files"]
        assert manifest["version"] == al.__version__
        results = json.loads((out / "results.json").read_text())
        assert results["operation"] == "concentration"
        assert results["config_hash"] == manifest["config_hash"]
        assert results["passed"] is True
        assert "started" not in results and "finished" not in results
        # the CPUs the run could use vary by host, so only the manifest holds them
        assert manifest["cpus"] == len(os.sched_getaffinity(0)) >= 1
        assert "cpus" not in results
        assert "ok" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = concentration_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(cfg, out=str(out1)) == 0
        assert run(cfg, out=str(out2)) == 0
        assert (out1 / "results.json").read_bytes() == (out2 / "results.json").read_bytes()
        assert (out1 / "concentration.csv").read_bytes() == (
            out2 / "concentration.csv"
        ).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = concentration_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(cfg, out=str(out1)) == 0
        assert run(cfg, seed=99, out=str(out2)) == 0
        a = json.loads((out1 / "results.json").read_text())
        b = json.loads((out2 / "results.json").read_text())
        assert a["rows"][0]["value"] != b["rows"][0]["value"]
        assert a["config_hash"] != b["config_hash"]

    def test_validation_error_exits_2_without_artifacts(self, tmp_path, capsys):
        cfg = json.loads(inverse_moment_config(tmp_path).read_text())
        cfg["params"]["measure"] = {"kind": "mystery"}
        path = write_config(tmp_path / "bad.json", cfg)
        out = tmp_path / "never"
        assert run(path, out=str(out)) == 2
        assert not (out / "results.json").exists()
        assert not (out / "manifest.json").exists()
        assert "validation error" in capsys.readouterr().err

    def test_numerical_failure_exits_3_without_manifest(self, tmp_path, capsys):
        # double denominator root at s = 0.3 is detected as nonintegrable
        payload = {
            "schema_version": 1,
            "kind": "reverse-holder",
            "seed": 1,
            "params": {
                "measure": UNIFORM01,
                "s": 0.3,
                "q1": [1.0],
                "q2": [1.0, -1.0, 0.25],
            },
        }
        path = write_config(tmp_path / "diverge.json", payload)
        out = tmp_path / "partial"
        assert run(path, out=str(out)) == 3
        assert not (out / "manifest.json").exists()
        assert not (out / "results.json").exists()
        assert "nonintegrable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, path, value",
        [
            ("wegner", ("n_samples",), "lots"),
            ("wegner", ("n_samples",), 0),
            ("wegner", ("n_samples",), -3),
            ("wegner", ("n_samples",), 2.5),
            ("wegner", ("n_samples",), True),
            ("wegner", ("n_samples",), None),
            ("apriori-lam10", ("z",), [10.0]),
            ("inverse-moment-equality", ("expect",), "bogus"),
            ("gaussian-conditioning", ("tau_mc", "bogus"), 1),
            ("inverse-moment-equality", ("measure", "params", "lo"), "a"),
            ("wegner", ("model", "lambda"), "ten"),
            ("wegner", ("model", "lambda"), None),
            ("wegner", ("model", "single_site"), 5),
            ("poisson", ("window",), [5, -5]),
            ("poisson", ("window",), [0, 0.5]),
            # the measure block, in the model and in the params of a measure-only kind
            ("wegner", ("model", "measure", "params", "mean"), math.nan),
            ("wegner", ("model", "measure", "params", "variance"), math.inf),
            ("wegner", ("model", "measure", "params", "mean"), -math.inf),
            ("wegner", ("model", "measure"), {"kind": "uniform", "params": {"hi": math.inf}}),
            ("wegner", ("model", "measure"), {"kind": "cosine", "params": {"hi": math.inf}}),
            ("wegner", ("model", "measure"),
             {"kind": "bernoulli", "params": {"p": 0.5, "levels": [0, math.nan]}}),
            ("wegner", ("model", "measure"),
             {"kind": "grid", "params": {"x": [0, 0.5, 1], "density": [0, 2, math.nan]}}),
            ("wegner", ("model", "measure"), {"kind": "uniform", "params": {"lo": "0", "hi": "1"}}),
            ("wegner", ("model", "measure"), {"kind": "uniform", "params": {"hi": True}}),
            ("wegner", ("model", "measure"), {"kind": "uniform", "lo": 0.0, "hi": 1.0}),
            ("wegner", ("model", "measure"), {"params": {"mean": 0.0}}),
            ("wegner", ("model", "measure", "params", "skew"), 2),
            ("wegner", ("model", "measure", "kind"), "laplace"),
            ("inverse-moment-equality", ("measure", "params", "hi"), math.nan),
            ("inverse-moment-equality", ("measure", "params", "lo"), -math.inf),
            ("inverse-moment-equality", ("measure", "params", "lo"), "0"),
            ("inverse-moment-equality", ("measure", "params", "hi"), True),
            ("inverse-moment-equality", ("measure",),
             {"kind": "grid", "params": {"x": [0, 0.5, 1], "density": [0, 2, math.nan]}}),
            ("inverse-moment-equality", ("measure",), {"kind": "uniform", "lo": 0.0, "hi": 1.0}),
            ("inverse-moment-equality", ("measure",), {"params": {"lo": 0.0, "hi": 1.0}}),
            ("inverse-moment-equality", ("measure", "params", "skew"), 2),
            ("wegner", ("schema_version",), True),
            ("wegner", ("schema_version",), 1.0),
            # the scaling slope is a fit through distinct disorder strengths
            ("minami", ("lams",), [5.0, 5.0]),
            ("minami", ("lams",), [5.0, 10.0, 5]),
            ("minami", ("lams",), [5.0]),
        ],
    )
    def test_malformed_input_exits_2_without_output_dir(
        self, tmp_path, capsys, config, path, value
    ):
        payload = json.loads((REPO / f"suites/acceptance_checks/{config}.json").read_text())
        target = payload if path[0] in ("model", "schema_version") else payload["params"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg = write_config(tmp_path / "bad.json", payload)
        out = tmp_path / "never"
        assert run(cfg, out=str(out)) == 2
        assert "validation error" in capsys.readouterr().err
        assert not out.exists()

    def test_poisson_with_unbounded_measure_reads_only_the_window(self, tmp_path, capsys):
        # the IDS grid of a gaussian measure ends one unit past the pooled
        # eigenvalues, so far-tail eigenvalues of the statistics realizations
        # fall outside it; the statistics never read them
        payload = json.loads((REPO / "suites/acceptance_checks/poisson.json").read_text())
        payload["model"]["measure"] = {"kind": "gaussian", "params": {"mean": 0.0, "variance": 1.0}}
        payload["params"].update(stats_radius=100, ids_radius=100, n_realizations=200)
        out = tmp_path / "run"
        assert run(write_config(tmp_path / "gauss.json", payload), out=str(out)) == 0
        assert "grid" not in capsys.readouterr().err
        assert (out / "gaps.csv").exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing-file", "under-a-file"])
    def test_unusable_output_path_exits_2(self, tmp_path, capsys, out):
        cfg = inverse_moment_config(tmp_path)
        (tmp_path / "file").write_text("mine")
        before = sorted(tmp_path.rglob("*"))
        assert run(cfg, out=str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and len(err.splitlines()) == 1
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "mine"

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run(tmp_path / "absent.json", out=str(tmp_path / "never")) == 2
        assert "cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_runner_validation_error_removes_created_dirs(self, tmp_path, capsys):
        # a profile without the {0..n-1} support has no pinning certificate
        payload = json.loads((REPO / "suites/acceptance_checks/certificate.json").read_text())
        payload["model"]["single_site"] = [[[0], 1.0], [[2], 1.0]]
        cfg = write_config(tmp_path / "cert.json", payload)
        out = tmp_path / "new" / "run"
        assert run(cfg, out=str(out)) == 2
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_runner_validation_error_keeps_existing_dir(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "kind": "decay-profile",
            "model": {**FLAGSHIP_MODEL, "dimension": 2, "single_site": [[[0, 0], 1.0]]},
            "params": {"radius": 1, "z": [0.0, 0.5], "s": 0.5, "n_samples": 2},
        }
        cfg = write_config(tmp_path / "decay2d.json", payload)
        out = tmp_path / "existing"
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        assert run(cfg, out=str(out)) == 2
        assert "offsets" in capsys.readouterr().err
        assert (out / "keep.txt").read_text() == "mine"

    def test_rerun_from_the_copied_config_into_its_own_directory(self, tmp_path, capsys):
        cfg = concentration_config(tmp_path)
        out = tmp_path / "r1"
        assert run(cfg, out=str(out)) == 0
        assert main(["run", str(out / "config.json"), "--out", str(out), "--seed", "5"]) == 0
        assert (out / "config.json").read_bytes() == cfg.read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert json.loads((out / "results.json").read_text())["seed"] == manifest["seed"] == 5
        capsys.readouterr()

    def test_rerun_interrupted_before_its_manifest_leaves_none(self, tmp_path, monkeypatch):
        # results.json of the second run must not sit beside the first run's
        # manifest, which would vouch for seed 11
        cfg = concentration_config(tmp_path)
        out = tmp_path / "r1"
        assert run(cfg, out=str(out)) == 0

        def interrupted(**fields):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(experiments, "RunManifest", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            run(cfg, seed=5, out=str(out))
        assert json.loads((out / "results.json").read_text())["seed"] == 5
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("member", ["minami", "decay", "apriori-lam10"])
    def test_outputs_do_not_depend_on_the_block_size(self, member, tmp_path, monkeypatch):
        # blocks of 1 and 7 realizations, and one block holding every
        # realization of a run, reduce to the same bytes as the default
        payload = json.loads((REPO / "suites" / "acceptance_checks" / f"{member}.json").read_text())
        for key in ("n_samples", "scaling_samples"):
            if key in payload["params"]:
                payload["params"][key] = 300
        cfg = write_config(tmp_path / f"{member}.json", payload)

        def outputs(out):
            assert run(cfg, out=str(out)) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()
                    if p.name == "results.json" or p.suffix == ".csv"}

        default = outputs(tmp_path / "default")
        for size in (1, 7, 1000):
            monkeypatch.setattr(al.estimators, "_block_size", lambda n, size=size: size)
            assert outputs(tmp_path / f"block{size}") == default, size

    def test_inverse_moment_equality_run(self, tmp_path):
        cfg = inverse_moment_config(tmp_path)
        out = tmp_path / "im"
        assert run(cfg, out=str(out)) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["integral"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert results["passed"] is True

    def test_every_kind_records_its_kind_hash_and_seed(self, tmp_path):
        # one small config per kind: the shipped one with fewer samples, or a
        # hand-written one for the kinds no suite member runs
        configs = {}
        for path in ACCEPTANCE:
            payload = json.loads(path.read_text())
            configs.setdefault(payload["kind"], payload)
        configs["poisson"] = copy.deepcopy(configs["poisson"])
        configs["poisson"]["params"].update(
            stats_radius=20, ids_radius=20, ids_realizations=3, n_grid=201
        )
        configs["gaussian-conditioning"] = copy.deepcopy(configs["gaussian-conditioning"])
        configs["gaussian-conditioning"]["params"]["tau_mc"].update(n_target=256, chains=16)
        for kind, params in {
            "fvc": {"radius": 3, "energy": 0.37, "exponent": 3.0, "n_samples": 20},
            "ids": {"radius": 5, "n_realizations": 10, "n_grid": 51},
            "reverse-holder": {"measure": UNIFORM01, "s": 0.5, "q1": [1.0, 0.5], "q2": [1.0]},
        }.items():
            configs[kind] = {"schema_version": 1, "kind": kind, "seed": 3, "params": params}
            if kind != "reverse-holder":
                configs[kind]["model"] = FLAGSHIP_MODEL
        assert sorted(configs) == experiment_kinds()
        for kind, payload in configs.items():
            payload = copy.deepcopy(payload)
            for key in ("n_samples", "scaling_samples"):
                if key in payload["params"]:
                    payload["params"][key] = min(payload["params"][key], 200)
            out = tmp_path / kind
            assert run(write_config(tmp_path / f"{kind}.json", payload), out=str(out)) == 0
            results = json.loads((out / "results.json").read_text())
            manifest = json.loads((out / "manifest.json").read_text())
            assert results["operation"] == kind
            assert results["config_hash"] == manifest["config_hash"]
            assert results["seed"] == payload["seed"]
            nested = [v for v in results.values() if isinstance(v, dict)]
            assert not any("operation" in v or "config_hash" in v for v in nested)


class TestSuite:
    def make_suite(self, tmp_path, configs, name="checks"):
        manifest = {
            "schema_version": 1,
            "name": name,
            "configs": [c.name for c in configs],
            "out": "results",
        }
        return write_config(tmp_path / "suite.json", manifest)

    def test_suite_all_pass(self, tmp_path, capsys):
        c1 = inverse_moment_config(tmp_path, "im.json")
        c2 = concentration_config(tmp_path, "conc.json")
        manifest = self.make_suite(tmp_path, [c1, c2])
        assert suite(manifest) == 0
        report = json.loads((tmp_path / "results" / "suite_report.json").read_text())
        assert report["all_ok"] is True
        assert report["n_members"] == 2
        assert (tmp_path / "results" / "im" / "manifest.json").exists()
        assert (tmp_path / "results" / "conc" / "manifest.json").exists()
        text = capsys.readouterr().out
        assert "PASS" in text and "im" in text and "conc" in text

    def test_suite_failing_member_preserves_others(self, tmp_path, capsys):
        good = inverse_moment_config(tmp_path, "good.json")
        bad = inverse_moment_config(tmp_path, "bad.json")
        payload = json.loads(bad.read_text())
        payload["params"]["b"] = 2.0
        write_config(bad, payload)
        manifest = self.make_suite(tmp_path, [good, bad])
        assert suite(manifest) == 1
        report = json.loads((tmp_path / "results" / "suite_report.json").read_text())
        assert report["all_ok"] is False
        by_name = {m["name"]: m for m in report["members"]}
        assert by_name["good"]["passed"] is True
        assert by_name["bad"]["passed"] is False
        assert (tmp_path / "results" / "good" / "results.json").exists()
        assert "FAILED CHECK" in capsys.readouterr().out

    def test_suite_member_validation_error_fails_suite(self, tmp_path, capsys):
        good = inverse_moment_config(tmp_path, "good.json")
        broken = tmp_path / "broken.json"
        broken.write_text("{oop")
        manifest = self.make_suite(tmp_path, [good, broken])
        assert suite(manifest) == 1
        report = json.loads((tmp_path / "results" / "suite_report.json").read_text())
        by_name = {m["name"]: m for m in report["members"]}
        assert by_name["broken"]["exit_code"] == 2
        assert by_name["good"]["ok"] is True
        capsys.readouterr()

    def test_member_crash_is_exit_4_and_suite_reports(self, tmp_path, capsys, monkeypatch):
        def boom(cfg, outdir):
            raise RuntimeError("runner exploded")

        row = experiments._KINDS["concentration"]
        monkeypatch.setitem(
            experiments._KINDS, "concentration", dataclasses.replace(row, runner=boom)
        )
        good = inverse_moment_config(tmp_path, "good.json")
        bad = concentration_config(tmp_path, "bad.json")
        manifest = self.make_suite(tmp_path, [good, bad])
        assert suite(manifest) == 1
        report = json.loads((tmp_path / "results" / "suite_report.json").read_text())
        by_name = {m["name"]: m for m in report["members"]}
        assert by_name["good"]["ok"] is True and by_name["good"]["passed"] is True
        assert by_name["bad"]["exit_code"] == 4
        assert by_name["bad"]["error"] == "RuntimeError: runner exploded"
        assert "Traceback" in by_name["bad"]["traceback"]
        assert (tmp_path / "results" / "suite_report.txt").exists()
        assert "runner exploded" in capsys.readouterr().out

    def test_malformed_member_does_not_stop_suite(self, tmp_path, capsys):
        good = inverse_moment_config(tmp_path, "good.json")
        bad = inverse_moment_config(tmp_path, "bad.json")
        payload = json.loads(bad.read_text())
        payload["params"]["s"] = "lots"
        write_config(bad, payload)
        manifest = self.make_suite(tmp_path, [bad, good])
        assert suite(manifest) == 1
        report = json.loads((tmp_path / "results" / "suite_report.json").read_text())
        by_name = {m["name"]: m for m in report["members"]}
        assert by_name["bad"]["exit_code"] == 2
        assert by_name["good"]["passed"] is True
        assert not (tmp_path / "results" / "bad").exists()
        capsys.readouterr()

    def test_empty_suite_passes(self, tmp_path, capsys):
        manifest = self.make_suite(tmp_path, [])
        assert suite(manifest) == 0
        capsys.readouterr()

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        manifest = write_config(
            tmp_path / "suite.json",
            {"schema_version": 1, "configs": [], "surprise": True},
        )
        assert suite(manifest) == 2
        assert "unknown suite keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest",
        [
            [],
            [{"schema_version": 1, "configs": ["im.json"]}],
            {"schema_version": 1},
            {"schema_version": 2, "configs": ["im.json"]},
            {"schema_version": 1, "configs": 5},
            {"schema_version": 1, "configs": "im.json"},
            {"schema_version": 1, "configs": ["im.json", 3]},
            {"schema_version": 1, "configs": ["im.json"], "name": 7},
            {"schema_version": 1, "configs": ["im.json"], "out": ["results"]},
            {"schema_version": True, "configs": ["im.json"]},
            {"schema_version": 1.0, "configs": ["im.json"]},
        ],
        ids=[
            "empty-array", "array", "no-configs", "schema-2", "configs-int",
            "configs-string", "config-entry-int", "name-int", "out-list",
            "schema-true", "schema-float",
        ],
    )
    def test_malformed_manifest_exits_2_and_writes_nothing(self, tmp_path, capsys, manifest):
        inverse_moment_config(tmp_path, "im.json")
        path = write_config(tmp_path / "suite.json", manifest)
        before = sorted(tmp_path.rglob("*"))
        assert suite(path) == 2
        assert "suite manifest error" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing-file", "under-a-file"])
    def test_unusable_report_dir_exits_2_before_any_member(self, tmp_path, capsys, out):
        inverse_moment_config(tmp_path, "im.json")
        (tmp_path / "file").write_text("mine")
        manifest = write_config(
            tmp_path / "suite.json", {"schema_version": 1, "configs": ["im.json"], "out": out}
        )
        before = sorted(tmp_path.rglob("*"))
        assert suite(manifest) == 2
        captured = capsys.readouterr()
        assert "cannot create suite output directory" in captured.err
        assert "inverse-moment" not in captured.out
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "configs", [["a/c.json", "b/c.json"], ["a/c.json", "a/c.json"]],
        ids=["same-stem", "listed-twice"],
    )
    def test_members_sharing_an_output_dir_exit_2_and_write_nothing(
        self, tmp_path, capsys, configs
    ):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            inverse_moment_config(tmp_path / sub, "c.json")
        manifest = write_config(
            tmp_path / "suite.json", {"schema_version": 1, "configs": configs, "out": "results"}
        )
        before = sorted(tmp_path.rglob("*"))
        assert suite(manifest) == 2
        captured = capsys.readouterr()
        assert "two members write to" in captured.err and "inverse-moment" not in captured.out
        assert sorted(tmp_path.rglob("*")) == before

    def test_two_parts_match_a_serial_run_byte_for_byte(self, tmp_path, monkeypatch, capsys):
        members = [str(REPO / "suites/acceptance_checks" / f"{m}.json")
                   for m in ("concentration", "decay", "wegner")]
        outputs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"cpus{cpus}"
            manifest = write_config(
                tmp_path / f"suite{cpus}.json",
                {"schema_version": 1, "configs": members, "out": out.name},
            )
            assert suite(manifest) == 0
            outputs[cpus] = {
                p.relative_to(out): p.read_bytes()
                for p in out.rglob("*") if p.name == "results.json" or p.suffix == ".csv"
            }
        assert len(outputs[1]) == 6
        assert outputs[2] == outputs[1]
        capsys.readouterr()

    def test_each_member_prints_its_ok_line_once(self, tmp_path, monkeypatch, capfd):
        # stdout block-buffered, as when it is piped: a forked part must write
        # out what its members printed, and what the caller had buffered before
        # the fork must not be written twice
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        configs = [inverse_moment_config(tmp_path, f"im{i}.json") for i in range(3)]
        with open(1, "w", closefd=False) as buffered, contextlib.redirect_stdout(buffered):
            print("before the suite")
            assert suite(self.make_suite(tmp_path, configs)) == 0
        lines = capfd.readouterr().out.splitlines()
        assert lines.count("before the suite") == 1
        for i in range(3):
            assert lines.count(f"inverse-moment: ok ({tmp_path / 'results' / f'im{i}'})") == 1


class TestEmitPlotData:
    def test_collects_series_from_completed_runs(self, tmp_path, capsys):
        cfg = concentration_config(tmp_path)
        out = tmp_path / "runs" / "conc"
        assert run(cfg, out=str(out)) == 0
        assert emit_plot_data(tmp_path / "runs") == 0
        plot = tmp_path / "runs" / "plot_data" / "conc_concentration.csv"
        assert plot.exists()
        assert plot.read_bytes() == (out / "concentration.csv").read_bytes()
        assert "wrote" in capsys.readouterr().out

    def test_missing_series_listed_not_fatal(self, tmp_path, capsys):
        cfg = concentration_config(tmp_path)
        out = tmp_path / "runs" / "conc"
        assert run(cfg, out=str(out)) == 0
        (out / "concentration.csv").unlink()
        assert emit_plot_data(tmp_path / "runs") == 0
        assert "missing series" in capsys.readouterr().err

    def test_incomplete_runs_skipped(self, tmp_path, capsys):
        incomplete = tmp_path / "runs" / "stale"
        incomplete.mkdir(parents=True)
        (incomplete / "concentration.csv").write_text("eps,value\n")
        assert emit_plot_data(tmp_path / "runs") == 0
        assert "no completed runs" in capsys.readouterr().out

    def test_decay_series_is_log_transformed(self, tmp_path, capsys):
        payload = {
            "schema_version": 1,
            "kind": "decay-profile",
            "seed": 5,
            "model": {
                "dimension": 1,
                "lambda": 0.0,
                "single_site": [[[0], 1.0]],
                "measure": UNIFORM01,
            },
            "params": {"radius": 4, "z": [0.0, 0.5], "s": 0.5, "n_samples": 8},
        }
        cfg = write_config(tmp_path / "decay.json", payload)
        out = tmp_path / "runs" / "decay"
        assert run(cfg, out=str(out)) == 0
        assert emit_plot_data(tmp_path / "runs") == 0
        capsys.readouterr()
        plot = tmp_path / "runs" / "plot_data" / "decay_decay.csv"
        lines = plot.read_text().strip().splitlines()
        assert lines[0] == "distance,log_value"
        src = (out / "profile.csv").read_text().strip().splitlines()[1:]
        first_val = float(src[0].split(",")[1])
        assert float(lines[1].split(",")[1]) == pytest.approx(math.log(first_val))


    def test_runs_of_one_name_in_different_folders_keep_separate_files(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        for parent, value in [("a", "0.5"), ("b", "0.7")]:
            run_dir = runs / parent / "decay"
            run_dir.mkdir(parents=True)
            (run_dir / "spectrum.csv").write_text(f"e\n{value}\n")
            (run_dir / "manifest.json").write_text(json.dumps({"files": ["spectrum.csv"]}))
        assert emit_plot_data(runs) == 0
        capsys.readouterr()
        plot = runs / "plot_data"
        assert sorted(p.name for p in plot.iterdir()) == [
            "a__decay_spectrum.csv",
            "b__decay_spectrum.csv",
        ]
        assert (plot / "a__decay_spectrum.csv").read_text() == "e\n0.5\n"
        assert (plot / "b__decay_spectrum.csv").read_text() == "e\n0.7\n"

    def test_series_follow_the_manifest_file_list(self, tmp_path, capsys):
        run_dir = tmp_path / "runs" / "custom"
        run_dir.mkdir(parents=True)
        (run_dir / "spectrum.csv").write_text("e\n0.5\n")
        (run_dir / "manifest.json").write_text(
            json.dumps({"kind": "ids", "files": ["results.json", "spectrum.csv", "manifest.json"]})
        )
        assert emit_plot_data(tmp_path / "runs") == 0
        capsys.readouterr()
        plot = tmp_path / "runs" / "plot_data"
        assert [p.name for p in plot.iterdir()] == ["custom_spectrum.csv"]


# Replacement values a malformed config might carry.
BAD_VALUES = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.integers(max_value=-1),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda f: not f.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.just([]),
    st.lists(st.floats(-2, 2), max_size=1),
    st.dictionaries(st.sampled_from(["kind", "lo", "bogus"]), st.integers(), max_size=2),
)


def _key_paths(obj, prefix=()):
    """Every key path inside a params or model object, nested objects included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _objects(obj, prefix=()):
    yield prefix
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _objects(value, prefix + (key,))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_configs_load_or_fail_validation(tmp_path, data):
    """One mutated param or model entry never escapes load_config as anything
    but ValidationError, and ``run`` rejects the same config with exit 2 and
    writes nothing."""
    path = data.draw(st.sampled_from(ACCEPTANCE), label="config")
    payload = json.loads(path.read_text())
    block = data.draw(st.sampled_from([b for b in ("params", "model") if b in payload]),
                      label="block")
    obj = payload[block]
    action = data.draw(st.sampled_from(["replace", "delete", "unknown key"]), label="action")
    if action == "unknown key":
        where = data.draw(st.sampled_from(list(_objects(obj))), label="object")
        key, value = "bogus", 1
    else:
        where = data.draw(st.sampled_from(list(_key_paths(obj))), label="key")
        where, key = where[:-1], where[-1]
        value = data.draw(BAD_VALUES, label="value")
    target = obj
    for k in where:
        target = target[k]
    if action == "delete":
        del target[key]
    else:
        target[key] = value
    cfg = write_config(tmp_path / "mutated.json", payload)
    try:
        load_config(cfg)
    except al.ValidationError:
        out = tmp_path / "out"
        assert run(cfg, out=str(out)) == 2
        assert not out.exists()


class TestCli:
    def test_run_dispatch(self, tmp_path, capsys):
        cfg = inverse_moment_config(tmp_path)
        out = tmp_path / "cli_out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        capsys.readouterr()

    def test_seed_flag_reaches_runner(self, tmp_path, capsys):
        cfg = concentration_config(tmp_path)
        out = tmp_path / "cli_seeded"
        assert main(["run", str(cfg), "--seed", "99", "--out", str(out)]) == 0
        assert json.loads((out / "results.json").read_text())["seed"] == 99
        capsys.readouterr()

    def test_suite_dispatch(self, tmp_path, capsys):
        cfg = inverse_moment_config(tmp_path, "only.json")
        manifest = write_config(
            tmp_path / "suite.json",
            {"schema_version": 1, "configs": ["only.json"], "out": "results"},
        )
        assert main(["suite", str(manifest)]) == 0
        capsys.readouterr()

    def test_emit_plot_data_dispatch(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["emit-plot-data", str(tmp_path / "empty")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("target", ["nonexist", "results.txt"])
    def test_emit_plot_data_on_a_non_directory_exits_2(self, tmp_path, capsys, target):
        (tmp_path / "results.txt").write_text("not a results tree\n")
        before = sorted(tmp_path.rglob("*"))
        assert main(["emit-plot-data", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert "validation error" in captured.err and "no completed runs" not in captured.out
        assert sorted(tmp_path.rglob("*")) == before

    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


def test_harness_demo_removes_its_workspace(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "experiment_harness", REPO / "demos" / "experiment_harness.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    demo.main()
    assert "solo run hash" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
