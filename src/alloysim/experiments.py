"""Configuration-driven experiment runner.

A run ingests a single JSON config, dispatches to the library operation it
names, and persists artifacts in an output directory: ``results.json`` with
the result record, optional CSV series, a copy of the config, and a
``manifest.json`` written last as the completion marker.  Runs are pure
functions of (config, seed) up to the manifest timestamps, so re-running a
config reproduces ``results.json`` byte for byte.

Suites run a list of configs (concurrently up to ``ALLOYSIM_WORKERS``) and
aggregate per-member outcomes into a pass/fail table.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import sys
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field as dc_field, replace as dc_replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import NonintegrableError, NumericalError, ValidationError
from .estimators import (
    fractional_moment,
    fvc_probability,
    green_decay_profile,
    minami_determinant,
    recursion_probe,
    two_level_probability,
    wegner_count,
)
from .ids import (
    RescaledSpectrum,
    _cpus,
    _unit_windows,
    ids_estimate,
    poisson_statistics,
    sample_rescaled_spectra,
)
from .lattice import build_volume
from .measures import CouplingMeasure
from .model import AlloyModel, constants_report
from .moments import inverse_moment_check, reverse_holder_ratio
from .potential import build_single_site
from .regularity import (
    BandEvent,
    PinEvent,
    concentration_curve,
    condition_ma1_center,
    condition_ma1_center_direct,
    conditional_concentration_mc,
    pinning_certificate,
    uniform_pair_concentration,
)
from .results import write_csv
from .rng import stream_rng

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "load_config",
    "run",
    "suite",
    "emit_plot_data",
    "experiment_kinds",
]

_TOP_KEYS = {"schema_version", "kind", "seed", "model", "params", "out"}


def _jsonable(obj):
    """Recursively coerce results into JSON-safe structures (no NaN/inf)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, its canonical hash and its file's bytes."""

    kind: str
    seed: int
    model: Optional[AlloyModel]
    params: dict
    out: Optional[str]
    config_hash: str
    _source: bytes = dc_field(repr=False)


@dataclass
class RunManifest:
    """Completion marker: hash, seed, version, timestamps, emitted files, and
    the CPUs the realization loops of ``ids`` could share (outputs do not
    depend on it)."""

    config_hash: str
    kind: str
    seed: int
    version: str
    started: str
    finished: str
    files: list
    cpus: int

    def to_dict(self) -> dict:
        return asdict(self)


def _canonical_hash(semantic: dict) -> str:
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(
    path,
    seed_override: Optional[int] = None,
    out_override: Optional[str] = None,
) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are rejected.

    Params are type- and range-checked against the kind's spec and returned
    typed, with defaults filled in.  The model block is read by the ``_MODEL``
    table, and a coupling measure, in the model or in the params of a
    measure-only kind, by the ``_MEASURES`` row of its kind.  Only the
    integer 1 is a ``schema_version``.  The hash covers the semantic content
    as given (kind, seed, model, params) with keys sorted, so it is stable
    under reordering and independent of where the artifacts land.
    """
    try:
        with open(path, "rb") as fh:
            source = fh.read()
        data = json.loads(source.decode())
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    _SCHEMA_VERSION.check(data.get("schema_version"), "schema_version", None)
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"unknown experiment kind {kind!r}; known: {sorted(_KINDS)}")
    entry = _KINDS[kind]
    seed = data.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError("seed must be a non-negative integer")
    model = None
    if entry.needs_model:
        if "model" not in data:
            raise ValidationError(f"experiment kind {kind} needs a model block")
        model = _read_model(data["model"])
    elif "model" in data:
        raise ValidationError(f"experiment kind {kind} does not take a model block")
    raw_params = data.get("params", {})
    dim = model.dimension if model is not None else None
    params = _read_params(entry.params, raw_params, "params", dim)
    semantic = {
        "schema_version": 1,
        "kind": kind,
        "seed": seed,
        "model": data.get("model"),
        "params": raw_params,
    }
    out = out_override if out_override is not None else data.get("out")
    if out is not None and not isinstance(out, str):
        raise ValidationError("out must be a string")
    return ExperimentConfig(
        kind=kind,
        seed=seed,
        model=model,
        params=params,
        out=out,
        config_hash=_canonical_hash(semantic),
        _source=source,
    )


# ---------------------------------------------------------------------------
# Parameter specs
# ---------------------------------------------------------------------------

_REQUIRED = object()  # no default: the config must give the param
_OPTIONAL = object()  # no default: a param left out stays out of ``cfg.params``


@dataclass(frozen=True)
class _Param:
    """How to read one param: ``check(value, path, dim)`` returns the typed
    value or raises :class:`ValidationError`; ``dim`` is the model's lattice
    dimension (``None`` for measure-only kinds)."""

    check: Callable
    default: object = _REQUIRED


def _bad(path: str, want: str, value) -> ValidationError:
    return ValidationError(f"{path} must be {want}, got {value!r}")


def _int(lo=None, default=_REQUIRED) -> _Param:
    """An integer ``>= lo``; an integral float is taken as its integer, a bool is not."""

    def check(v, path, dim):
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if isinstance(v, bool) or not isinstance(v, int) or (lo is not None and v < lo):
            raise _bad(path, "an integer" + ("" if lo is None else f" >= {lo}"), v)
        return v

    return _Param(check, default)


def _num(lo=None, strict=False, default=_REQUIRED) -> _Param:
    """A finite number ``>= lo`` (``> lo`` when strict), returned as a float."""

    def check(v, path, dim):
        # the size test also rejects NaN, infinities and ints beyond float range
        ok = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not (ok and abs(v) <= sys.float_info.max) or (
            lo is not None and (v <= lo if strict else v < lo)
        ):
            bound = "" if lo is None else f" {'>' if strict else '>='} {lo}"
            raise _bad(path, "a number" + bound, v)
        return float(v)

    return _Param(check, default)


def _enum(*choices, default=_REQUIRED) -> _Param:
    """One of ``choices``, of the same type: ``true`` and ``1.0`` are not ``1``."""

    def check(v, path, dim):
        if not any(type(v) is type(c) and v == c for c in choices):
            raise _bad(path, f"one of {list(choices)}", v)
        return v

    return _Param(check, default)


def _list(item: _Param, min_len=1, length=None, default=_REQUIRED) -> _Param:
    """A list of ``item``s: ``length(dim)`` of them if given, else ``min_len`` or more."""

    def check(v, path, dim):
        n = length(dim) if length else None
        if not isinstance(v, list) or len(v) < min_len or n not in (None, len(v)):
            raise _bad(path, f"a list of {n or f'{min_len} or more'} items", v)
        return [item.check(x, f"{path}[{i}]", dim) for i, x in enumerate(v)]

    return _Param(check, default)


def _object(spec: dict) -> _Param:
    return _Param(lambda v, path, dim: _read_params(spec, v, path, dim), _OPTIONAL)


def _read_params(spec: dict, data, path: str, dim: Optional[int]) -> dict:
    """Check ``data`` against ``spec``; return the typed values plus defaults."""
    if not isinstance(data, dict):
        raise _bad(path, "an object", data)
    missing = [k for k, param in spec.items() if param.default is _REQUIRED and k not in data]
    if missing:
        raise ValidationError(f"missing {path} keys: {sorted(missing)}")
    extra = set(data) - set(spec)
    if extra:
        raise ValidationError(f"unknown {path} keys: {sorted(extra)}")
    out = {}
    for name, param in spec.items():
        if name in data:
            out[name] = param.check(data[name], f"{path}.{name}", dim)
        elif param.default is not _OPTIONAL:
            out[name] = param.default
    return out


_NUMBER = _num()
_POSITIVE = _num(0, strict=True)
_COUNT = _int(1)
_RADIUS = _int(0)
_PAIR = _list(_NUMBER, length=lambda dim: 2)
_POINT = _list(_int(), length=lambda dim: dim)  # a lattice point of the model's dimension


def _window(v, path, dim):
    """A ``[lo, hi]`` pair holding a unit subwindow, as ``poisson_statistics`` needs."""
    pair = _PAIR.check(v, path, dim)
    try:
        _unit_windows(pair)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}, got {v!r}") from None
    return pair


def _distinct_lams(v, path, dim):
    """Two or more distinct disorder strengths: the Minami scaling slope is a
    straight-line fit through them, and a repeated one adds no point."""
    lams = _list(_POSITIVE, 2).check(v, path, dim)
    if len(set(lams)) < len(lams):
        raise _bad(path, "a list of distinct values", v)
    return lams


def _site_entry(v, path, dim):
    """A ``[point, value]`` entry of a single-site profile."""
    if not isinstance(v, list) or len(v) != 2:
        raise _bad(path, "a [point, value] pair", v)
    return tuple(_POINT.check(v[0], f"{path}[0]", dim)), _NUMBER.check(v[1], f"{path}[1]", dim)


_OPTIONAL_NUMBER = _num(default=_OPTIONAL)
# measure kind -> constructor and param spec; a param left out keeps the
# constructor's default, and the constructor checks how the values relate
_MEASURES = {
    "uniform": (CouplingMeasure.uniform, dict(lo=_OPTIONAL_NUMBER, hi=_OPTIONAL_NUMBER)),
    "gaussian": (CouplingMeasure.gaussian, dict(mean=_OPTIONAL_NUMBER, variance=_OPTIONAL_NUMBER)),
    "bernoulli": (CouplingMeasure.bernoulli,
                  dict(p=_NUMBER, levels=_list(_NUMBER, default=_OPTIONAL))),
    "cosine": (CouplingMeasure.cosine, dict(lo=_OPTIONAL_NUMBER, hi=_OPTIONAL_NUMBER)),
    "grid": (CouplingMeasure.from_grid, dict(x=_list(_NUMBER, 3), density=_list(_NUMBER, 3))),
}
_MEASURE_BLOCK = {"kind": _enum(*_MEASURES), "params": _Param(lambda v, path, dim: v)}


def _measure(v, path, dim):
    """A ``{"kind": ..., "params": {...}}`` block, built by the kind's constructor."""
    block = _read_params(_MEASURE_BLOCK, v, path, dim)
    ctor, spec = _MEASURES[block["kind"]]
    return ctor(**_read_params(spec, block["params"], f"{path}.params", dim))


_MEASURE = _Param(_measure)
# "dimension" comes first, so it is checked before the points that use it
_MODEL = {
    "dimension": _int(1),
    "lambda": _num(0),
    "single_site": _list(_Param(_site_entry)),
    "measure": _MEASURE,
}


def _string(v, path, dim):
    if not isinstance(v, str):
        raise _bad(path, "a string", v)
    return v


_SCHEMA_VERSION = _enum(1)
_SUITE = {
    "schema_version": _SCHEMA_VERSION,
    "name": _Param(_string, _OPTIONAL),
    "configs": _list(_Param(_string), min_len=0),
    "out": _Param(_string, _OPTIONAL),
}


def _read_model(data) -> AlloyModel:
    dim = data.get("dimension") if isinstance(data, dict) else None
    m = _read_params(_MODEL, data, "model", dim)
    u = build_single_site(m["dimension"], m["single_site"])
    return AlloyModel(u, m["measure"], m["lambda"])


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Kind:
    runner: Callable
    needs_model: bool
    params: dict


def _volume(cfg: ExperimentConfig):
    return build_volume(cfg.model.dimension, cfg.params["radius"])


def _run_concentration(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    curve = concentration_curve(
        cfg.model, p["site"], p["eps_values"], p["n_samples"], cfg.seed,
        a_step=p["a_step"],
    )
    rows = []
    max_err = None
    for eps, val, err in zip(curve.eps, curve.values, curve.stderr):
        row = {"eps": eps, "value": val, "stderr": err}
        if p["exact"] == "uniform-pair":
            row["exact"] = float(uniform_pair_concentration(eps))
            gap = abs(val - row["exact"])
            max_err = gap if max_err is None else max(max_err, gap)
        rows.append(row)
    curve.to_csv(outdir / "concentration.csv")
    results = {"rows": rows, "n_samples": p["n_samples"]}
    if max_err is not None:
        results["max_abs_error"] = max_err
        results["passed"] = bool(max_err <= p["tolerance"])
    return results, ["concentration.csv"]


def _run_certificate(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    u = cfg.model.potential
    m = u.certificate_center
    c = u.certificate_slope
    if m is None or c is None:
        raise ValidationError("the profile does not admit the pinning certificate")
    delta = p["delta"]
    delta_prime = p["delta_prime"]
    s_plus = u.positive_sum
    event = BandEvent(
        sites=[-1, u.n_points - 1], lo=s_plus - delta_prime, hi=s_plus
    )
    res = conditional_concentration_mc(
        cfg.model,
        0,
        (m - c * delta, m + c * delta),
        event,
        p["n_target"],
        cfg.seed,
        sampler=p["sampler"],
        keep_couplings=True,
    )
    keys = [int(pt[0]) for pt in res.coupling_points]
    n_pass = 0
    first_violation = None
    for row in res.couplings:
        report = pinning_certificate(u, delta, delta_prime, dict(zip(keys, row)))
        if report.passed:
            n_pass += 1
        elif first_violation is None:
            first_violation = report.violations
    frac = n_pass / len(res.couplings)
    results = {
        "frequency": res.frequency.to_record(),
        "acceptance_rate": res.acceptance_rate,
        "sampler": res.sampler,
        "certificate_pass_fraction": frac,
        "center": m,
        "slope": c,
        "target_interval": [m - c * delta, m + c * delta],
        "passed": bool(res.frequency.value == 1.0 and frac == 1.0),
    }
    if first_violation:
        results["first_violation"] = first_violation
    return results, []


def _run_gaussian_conditioning(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    sigma = p["sigma"]
    tol = p["tolerance"]
    rng = stream_rng(cfg.seed, 0)
    max_diff = 0.0
    cases = 0
    for coeff in p["coeffs"]:
        for l in range(p["l_max"] + 1):
            for m in range(p["m_max"] + 1):
                v_right = rng.normal(size=l)
                v_left = rng.normal(size=m)
                closed = condition_ma1_center(coeff, sigma, v_right, v_left)
                direct = condition_ma1_center_direct(coeff, sigma, v_right, v_left)
                max_diff = max(
                    max_diff,
                    abs(closed.mean - direct.mean),
                    abs(closed.variance - direct.variance),
                )
                cases += 1
    results = {
        "cases": cases,
        "max_abs_difference": max_diff,
        "tolerance": tol,
        "passed": bool(max_diff <= tol),
    }
    if "tau_mc" in p:
        tp = p["tau_mc"]
        coeff, l, m = tp["coeff"], tp["l"], tp["m"]
        closed = condition_ma1_center(coeff, sigma, np.zeros(l), np.zeros(m))
        model = AlloyModel(
            build_single_site(1, [((0,), 1.0), ((-1,), coeff)]),
            CouplingMeasure.gaussian(0.0, sigma * sigma),
            1.0,
        )
        sites = [[k] for k in range(-m, l + 1) if k != 0]
        tau_rows = []
        for j, tau in enumerate(tp["tau_values"]):
            event = PinEvent(sites=sites, values=[0.0] * len(sites), tolerance=tau)
            mc = conditional_concentration_mc(
                model,
                [0],
                (-1.0, 1.0),
                event,
                tp["n_target"],
                cfg.seed + 1 + j,
                sampler="gibbs",
                chains=tp["chains"],
                burn_in=tp["burn_in"],
                thin=tp["thin"],
            )
            rel = abs(mc.eta_var - closed.variance) / closed.variance
            tau_rows.append(
                {
                    "tau": tau,
                    "mc_variance": mc.eta_var,
                    "closed_variance": closed.variance,
                    "relative_error": rel,
                }
            )
        results["tau_table"] = tau_rows
        results["tau_converged"] = bool(tau_rows[-1]["relative_error"] <= 0.05)
        results["passed"] = bool(results["passed"] and results["tau_converged"])
    return results, []


def _run_fractional_moment(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    vol = _volume(cfg)
    est = fractional_moment(
        cfg.model, vol, complex(*p["z"]), p["x"], p["y"],
        p["s"], p["n_samples"], cfg.seed,
    )
    rec = est.to_record()
    bound = est.metadata.get("bound")
    if bound is not None:
        rec["passed"] = bool(est.value <= bound + 3 * est.stderr)
    return rec, []


def _run_decay_profile(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    vol = _volume(cfg)
    d = cfg.model.dimension
    x = p.get("x", [0] * d)
    offsets = p["offsets"]
    if offsets is None:
        if d != 1:
            raise ValidationError("explicit offsets are required above one dimension")
        offsets = [[k] for k in range(1, p.get("max_distance", p["radius"]) + 1)]
    prof = green_decay_profile(
        cfg.model, vol, complex(*p["z"]), x, offsets,
        p["s"], p["n_samples"], cfg.seed,
    )
    prof.to_csv(outdir / "profile.csv")
    results = {
        "rate": prof.rate,
        "amplitude": prof.amplitude,
        "r_squared": prof.r_squared,
        "dropped_distances": prof.dropped,
        "n_samples": p["n_samples"],
        "s": prof.s,
    }
    if "r2_min" in p:
        results["passed"] = bool(prof.rate > 0 and prof.r_squared >= p["r2_min"])
    return results, ["profile.csv"]


def _run_wegner(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    vol = _volume(cfg)
    center, widths = p["center"], p["widths"]
    ests = wegner_count(
        cfg.model, vol, [(center - w / 2, center + w / 2) for w in widths],
        p["n_samples"], cfg.seed,
    )
    rows = []
    for width, est in zip(widths, ests):
        rows.append(
            {
                "width": width,
                "value": est.value,
                "stderr": est.stderr,
                "per_unit_width": est.value / width,
                "implied_constant": est.metadata.get("implied_constant"),
            }
        )
    per_width = [r["per_unit_width"] for r in rows]
    # stability is judged per halving step: each consecutive width change
    # may move the normalized count by at most the tolerance
    steps = [
        abs(b / a - 1.0) if a > 0 else math.inf
        for a, b in zip(per_width, per_width[1:])
    ]
    drift = max(steps) if steps else 0.0
    header = ["width", "value", "stderr", "per_unit_width"]
    write_csv(outdir / "wegner.csv", header, [[r[k] for k in header] for r in rows])
    results = {"rows": rows, "ratio_drift": drift}
    if "ratio_tolerance" in p:
        results["passed"] = bool(drift <= p["ratio_tolerance"])
    return results, ["wegner.csv"]


def _run_minami(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    vol = _volume(cfg)
    z = complex(*p["z"])
    # the main estimate and the lams sweep share one draw of each field
    lams = p.get("lams", [])
    counts = [p["n_samples"]] + [p.get("scaling_samples", p["n_samples"])] * len(lams)
    est, *scaled = minami_determinant(
        cfg.model, vol, z, p["x"], p["y"], [cfg.model.lam, *lams], max(counts), cfg.seed,
        lam_samples=counts,
    )
    rec = est.to_record()
    bound = est.metadata.get("bound")
    ok = est.value <= bound + 3 * est.stderr if bound is not None else None
    if lams:
        lam_rows = [
            {"lam": lam, "value": est.value, "stderr": est.stderr}
            for lam, est in zip(lams, scaled)
        ]
        slope = float(
            np.polyfit(
                np.log([r["lam"] for r in lam_rows]),
                np.log([r["value"] for r in lam_rows]),
                1,
            )[0]
        )
        rec["scaling"] = {"rows": lam_rows, "loglog_slope": slope}
        if ok is not None:
            ok = bool(ok and -2.2 <= slope <= -1.8)
    if ok is not None:
        rec["passed"] = bool(ok)
    return rec, []


def _run_two_level(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    vol = _volume(cfg)
    res = two_level_probability(
        cfg.model, vol, p["interval"], p["n_samples"], cfg.seed
    )
    pointwise = res.p_two.value <= res.half_moment.value + 1e-15
    results = {
        "p_two": res.p_two.to_record(),
        "half_factorial_moment": res.half_moment.to_record(),
        "bound": res.bound,
        "chain_pointwise_ok": bool(pointwise),
    }
    if res.bound_note:
        results["bound_note"] = res.bound_note
    if res.bound is not None:
        results["chain_bound_ok"] = bool(
            res.half_moment.value <= res.bound + 3 * res.half_moment.stderr
        )
        results["passed"] = bool(pointwise and results["chain_bound_ok"])
    return results, []


def _run_recursion(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    vol = _volume(cfg)
    probe = recursion_probe(
        cfg.model, vol, p["energy"], p["x"], p["y"], p["s"],
        p["lams"], p["n_samples"], cfg.seed,
        residual_tol=p["residual_tol"],
    )
    rows = [
        {
            "lam": r.lam,
            "lhs": r.lhs.value,
            "lhs_stderr": r.lhs.stderr,
            "rhs_sum": r.rhs_sum.value,
            "rhs_stderr": r.rhs_sum.stderr,
            "implied_constant": r.implied_constant,
        }
        for r in probe.rows
    ]
    lo, hi = probe.implied_range
    results = {
        "rows": rows,
        "skipped_lams": probe.skipped,
        "max_residual": probe.max_residual,
        "implied_constant_range": [lo, hi],
        "implied_constant_spread": hi / lo if lo > 0 else None,
    }
    ok = probe.max_residual <= p["residual_tol"]
    if "spread_max" in p:
        ok = ok and results["implied_constant_spread"] is not None
        ok = ok and results["implied_constant_spread"] <= p["spread_max"]
    results["passed"] = bool(ok)
    return results, []


def _run_fvc(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    vol = _volume(cfg)
    est = fvc_probability(
        cfg.model, vol, p["energy"], p["exponent"], p["n_samples"], cfg.seed,
    )
    rec = est.to_record()
    if "min_probability" in p:
        rec["passed"] = bool(est.value >= p["min_probability"])
    return rec, []


def _run_ids(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    vol = _volume(cfg)
    table = ids_estimate(
        cfg.model, vol, p["n_realizations"], cfg.seed, n_grid=p["n_grid"],
    )
    table.to_csv(outdir / "ids.csv")
    results = {
        "median_energy": table.median_energy(),
        "resolution": table.resolution,
        "volume_points": table.volume_points,
        "n_realizations": table.n_realizations,
    }
    return results, ["ids.csv"]


def _run_poisson(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    d = cfg.model.dimension
    ids_vol = build_volume(d, p["ids_radius"])
    stats_vol = build_volume(d, p["stats_radius"])
    table = ids_estimate(
        cfg.model, ids_vol, p["ids_realizations"], p.get("ids_seed", cfg.seed + 1),
        n_grid=p["n_grid"],
    )
    e0 = table.median_energy() if p["e0"] == "median" else p["e0"]
    window = p["window"]
    spectra = sample_rescaled_spectra(
        cfg.model, stats_vol, table, e0, p["n_realizations"], cfg.seed, window=window
    )
    report = poisson_statistics(spectra, window=window, bin_width=p["bin_width"])
    table.to_csv(outdir / "ids.csv")
    report.gap_histogram_to_csv(outdir / "gaps.csv")

    # negative control: a rigid (deterministic, unit-spaced) spectrum must be
    # rejected by the same statistics
    rigid = [
        RescaledSpectrum(
            e0=0.0,
            xi=np.arange(window[0], window[1] + 1.0) + 0.5,
            volume_points=len(stats_vol),
        )
        for _ in range(len(spectra))
    ]
    rigid_report = poisson_statistics(rigid, window=window)
    rigid_rejected = not rigid_report.poissonian

    results = {
        "e0": e0,
        "report": report.to_dict(),
        "rigid_control": {
            "variance_ratio": rigid_report.variance_ratio,
            "ks_statistic": rigid_report.ks_statistic,
            "rejected": bool(rigid_rejected),
        },
        "passed": bool(report.poissonian and rigid_rejected),
    }
    return results, ["ids.csv", "gaps.csv"]


def _run_inverse_moment(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    chk = inverse_moment_check(p["measure"], p["s"], p["b"], alpha=p["alpha"], c1=p["c1"])
    results = {
        "integral": chk.integral,
        "bound": chk.bound,
        "margin": chk.margin,
        "holds": bool(chk.holds),
        "abs_error": chk.abs_error,
    }
    if p["expect"] == "equality":
        results["passed"] = bool(abs(chk.margin) <= p["tolerance"])
    elif p["expect"] == "strict":
        results["passed"] = bool(chk.margin > p["tolerance"])
    return results, []


def _run_reverse_holder(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    measure = p["measure"]
    s = p["s"]
    results: dict = {"s": s}
    if "q1" in p or "q2" in p:
        if not ("q1" in p and "q2" in p):
            raise ValidationError("q1 and q2 must be given together")
        out = reverse_holder_ratio(p["q1"], p["q2"], measure, s)
        results.update(
            ratio=out.ratio,
            moment_2s=out.moment_2s,
            moment_s=out.moment_s,
            singular_points=out.singular_points,
        )
    if "batch" in p:
        b = p["batch"]
        rng = stream_rng(cfg.seed, 0)
        worst = 0.0
        worst_pair = None
        for _ in range(b["n"]):
            q1 = rng.standard_normal(b["max_degree"] + 1)
            q2 = rng.standard_normal(b["max_degree"] + 1)
            out = reverse_holder_ratio(q1, q2, measure, s)
            if out.ratio > worst:
                worst = out.ratio
                worst_pair = [q1.tolist(), q2.tolist()]
        results["batch_max_ratio"] = worst
        results["batch_n"] = b["n"]
        results["batch_worst_pair"] = worst_pair
    return results, []


def _run_constants(cfg: ExperimentConfig, outdir: Path):
    return constants_report(cfg.model, s=cfg.params["s"]), []


# kind -> runner, whether it takes a model block, and its param spec
_KINDS = {
    "concentration": _Kind(_run_concentration, True, dict(
        site=_POINT, eps_values=_list(_POSITIVE), n_samples=_COUNT,
        a_step=_num(0, strict=True, default=None),
        exact=_enum("uniform-pair", default=None), tolerance=_num(0, default=0.01))),
    "certificate": _Kind(_run_certificate, True, dict(
        delta=_POSITIVE, delta_prime=_POSITIVE, n_target=_COUNT,
        sampler=_enum("auto", "rejection", "stratified", "gibbs", default="auto"))),
    "gaussian-conditioning": _Kind(_run_gaussian_conditioning, False, dict(
        coeffs=_list(_NUMBER), l_max=_int(0), m_max=_int(0),
        sigma=_num(0, strict=True, default=1.0), tolerance=_num(0, default=1e-10),
        tau_mc=_object(dict(
            coeff=_num(default=1.0), l=_int(0, default=5), m=_int(0, default=5),
            tau_values=_list(_POSITIVE), n_target=_int(1, default=20000),
            chains=_int(1, default=256), burn_in=_int(0, default=300),
            thin=_int(1, default=3))))),
    "fractional-moment": _Kind(_run_fractional_moment, True, dict(
        radius=_RADIUS, z=_PAIR, x=_POINT, y=_POINT, s=_POSITIVE, n_samples=_COUNT)),
    "decay-profile": _Kind(_run_decay_profile, True, dict(
        radius=_RADIUS, z=_PAIR, s=_POSITIVE, n_samples=_COUNT,
        x=dc_replace(_POINT, default=_OPTIONAL), offsets=_list(_POINT, default=None),
        max_distance=_int(1, default=_OPTIONAL), r2_min=_num(default=_OPTIONAL))),
    "wegner": _Kind(_run_wegner, True, dict(
        radius=_RADIUS, center=_NUMBER, widths=_list(_POSITIVE), n_samples=_COUNT,
        ratio_tolerance=_num(0, default=_OPTIONAL))),
    "minami": _Kind(_run_minami, True, dict(
        radius=_RADIUS, z=_PAIR, x=_POINT, y=_POINT, n_samples=_COUNT,
        lams=_Param(_distinct_lams, _OPTIONAL),
        scaling_samples=_int(1, default=_OPTIONAL))),
    "two-level": _Kind(_run_two_level, True, dict(
        radius=_RADIUS, interval=_PAIR, n_samples=_COUNT)),
    "recursion": _Kind(_run_recursion, True, dict(
        radius=_RADIUS, energy=_NUMBER, x=_POINT, y=_POINT, s=_POSITIVE,
        lams=_list(_POSITIVE), n_samples=_COUNT,
        residual_tol=_num(0, strict=True, default=1e-8),
        spread_max=_num(0, strict=True, default=_OPTIONAL))),
    "fvc": _Kind(_run_fvc, True, dict(
        radius=_RADIUS, energy=_NUMBER, exponent=_NUMBER, n_samples=_COUNT,
        min_probability=_num(0, default=_OPTIONAL))),
    "ids": _Kind(_run_ids, True, dict(
        radius=_RADIUS, n_realizations=_COUNT, n_grid=_int(2, default=20001))),
    "poisson": _Kind(_run_poisson, True, dict(
        stats_radius=_RADIUS, ids_radius=_RADIUS, ids_realizations=_COUNT,
        n_realizations=_COUNT, window=_Param(_window, default=(-5.0, 5.0)),
        bin_width=_num(0, strict=True, default=0.25),
        e0=_Param(lambda v, path, dim: v if v == "median" else _NUMBER.check(v, path, dim),
                  default="median"),
        ids_seed=_int(0, default=_OPTIONAL), n_grid=_int(2, default=20001))),
    "inverse-moment": _Kind(_run_inverse_moment, False, dict(
        measure=_MEASURE, s=_POSITIVE, b=_NUMBER,
        alpha=_num(0, strict=True, default=None), c1=_num(0, strict=True, default=None),
        expect=_enum("equality", "strict", default=None), tolerance=_num(0, default=1e-6))),
    "reverse-holder": _Kind(_run_reverse_holder, False, dict(
        measure=_MEASURE, s=_POSITIVE, q1=_list(_NUMBER, default=_OPTIONAL),
        q2=_list(_NUMBER, default=_OPTIONAL),
        batch=_object(dict(n=_COUNT, max_degree=_int(0, default=2))))),
    "constants": _Kind(_run_constants, True, dict(s=_num(0, strict=True, default=0.5))),
}


def experiment_kinds() -> list:
    """Names of the available experiment kinds."""
    return sorted(_KINDS)


# ---------------------------------------------------------------------------
# run / suite / emit-plot-data
# ---------------------------------------------------------------------------


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def run(
    config_path,
    seed: Optional[int] = None,
    out: Optional[str] = None,
) -> int:
    """Execute one experiment config.

    Exit codes: 0 success, 2 validation error or an output directory that
    cannot be created (nothing is written: a directory this call created is
    removed again), 3 numerical failure (the operation's error is printed
    verbatim; no manifest is written, so the run reads as incomplete).
    """
    try:
        cfg = load_config(config_path, seed_override=seed, out_override=out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(cfg.out) if cfg.out else Path(f"runs/{cfg.kind}-{cfg.config_hash[:12]}")
    # directories this run creates, innermost first; a validation error
    # removes them again (a parent only while empty: another run may share it)
    created = [d for d in [outdir, *outdir.parents] if not d.exists()]
    started = _utcnow()
    try:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            msg = f"cannot create output directory {outdir}: {exc.strerror}"
            raise ValidationError(msg) from exc
        results, files = _KINDS[cfg.kind].runner(cfg, outdir)
    except ValidationError as exc:
        if created:
            shutil.rmtree(outdir, ignore_errors=True)
        for parent in created[1:]:
            with contextlib.suppress(OSError):
                parent.rmdir()
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, NonintegrableError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    # written last, so that no runner's keys can override them
    record = {**_jsonable(results), "operation": cfg.kind, "config_hash": cfg.config_hash,
              "seed": cfg.seed}
    # an earlier run's manifest must not vouch for this run's results
    (outdir / "manifest.json").unlink(missing_ok=True)
    with open(outdir / "results.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # the validated bytes: the config path may be this very file
    (outdir / "config.json").write_bytes(cfg._source)
    emitted = ["results.json", "config.json"] + list(files) + ["manifest.json"]
    manifest = RunManifest(
        config_hash=cfg.config_hash,
        kind=cfg.kind,
        seed=cfg.seed,
        version=__version__,
        started=started,
        finished=_utcnow(),
        files=emitted,
        cpus=_cpus(),
    )
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{cfg.kind}: ok ({outdir})")
    return 0


def _suite_member(args) -> dict:
    config_path, out_dir = args
    member = {
        "name": Path(config_path).stem,
        "config": str(config_path),
        "out_dir": str(out_dir),
    }
    try:
        code = run(config_path, out=out_dir)
    except Exception as exc:  # one member's crash must not stop the suite
        code = 4
        member["error"] = f"{type(exc).__name__}: {exc}".splitlines()[0]
        member["traceback"] = traceback.format_exc()
        print(f"internal error: {member['error']}", file=sys.stderr)
    passed = None
    results_file = Path(out_dir) / "results.json"
    if code != 4 and results_file.exists():
        try:
            with open(results_file) as fh:
                passed = json.load(fh).get("passed")
        except (OSError, json.JSONDecodeError):
            passed = None
    member.update(exit_code=code, ok=code == 0, passed=passed)
    return member


def suite(manifest_path) -> int:
    """Run every config in a suite manifest and aggregate outcomes.

    The manifest is ``{"schema_version": 1, "name": ..., "configs": [...],
    "out": ...}`` with config paths relative to the manifest file.  Members
    run concurrently up to ``ALLOYSIM_WORKERS`` (default 1), each owning its
    own output subdirectory.  Any member that fails to complete or reports
    ``passed: false`` makes the suite exit nonzero; the other members'
    artifacts are still written.  A member whose run raises an unexpected
    exception gets exit code 4 and its traceback in the report.  A malformed
    manifest (``name`` and ``out`` strings, ``configs`` a list of strings),
    two members with the same output subdirectory (the config file's stem),
    or an ``ALLOYSIM_WORKERS`` that is not an integer >= 1 exits 2 before any
    member runs or anything is written, and so does a report directory that
    cannot be created.
    """
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path) as fh:
            data = _read_params(_SUITE, json.load(fh), "suite", None)
    except (OSError, json.JSONDecodeError, ValidationError) as exc:
        print(f"suite manifest error: {exc}", file=sys.stderr)
        return 2
    raw_workers = os.environ.get("ALLOYSIM_WORKERS") or "1"
    workers = int(raw_workers) if raw_workers.isdecimal() else 0
    if workers < 1:
        print(f"ALLOYSIM_WORKERS must be an integer >= 1, got {raw_workers!r}", file=sys.stderr)
        return 2
    base = manifest_path.parent
    out_root = Path(data.get("out", base / f"{manifest_path.stem}_results"))
    if not out_root.is_absolute():
        out_root = base / out_root
    jobs = [(str(base / c), str(out_root / Path(c).stem)) for c in data["configs"]]
    shared = [d for d, n in Counter(d for _, d in jobs).items() if n > 1]
    if shared:
        print(f"suite manifest error: two members write to {shared[0]}", file=sys.stderr)
        return 2
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        msg = f"cannot create suite output directory {out_root}: {exc.strerror}"
        print(msg, file=sys.stderr)
        return 2
    if workers > 1 and len(jobs) > 1:
        # the pool is imported only where one starts; scipy is loaded here, once,
        # so that the members forked from this process share one import instead
        # of each loading it on first use
        from concurrent.futures import ProcessPoolExecutor

        import scipy.linalg  # noqa: F401
        import scipy.special  # noqa: F401

        # a forking pool starts every worker at once, so it gets one per member at most
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            members = list(pool.map(_suite_member, jobs))
    else:
        members = [_suite_member(j) for j in jobs]
    all_ok = all(m["ok"] and m["passed"] is not False for m in members)
    report = {
        "name": data.get("name", manifest_path.stem),
        "n_members": len(members),
        "all_ok": all_ok,
        "members": members,
    }
    with open(out_root / "suite_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = [f"suite {report['name']}: {'PASS' if all_ok else 'FAIL'}"]
    for m in members:
        status = "ok" if m["ok"] else f"exit {m['exit_code']}"
        if "error" in m:
            status += f" ({m['error']})"
        if m["passed"] is True:
            status += ", passed"
        elif m["passed"] is False:
            status += ", FAILED CHECK"
        lines.append(f"  {m['name']:<28} {status}")
    text = "\n".join(lines) + "\n"
    with open(out_root / "suite_report.txt", "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0 if all_ok else 1


def emit_plot_data(results_dir) -> int:
    """Collect plot-ready series from completed runs under a directory.

    Every CSV a run's manifest lists is copied as ``<run>_<stem>.csv``,
    except decay profiles, which become (distance, log value) tables named
    ``<run>_decay.csv``.  ``<run>`` is the run's path below ``results_dir``
    with its parts joined by ``__``, so runs of the same name in different
    subfolders keep separate files.  Runs without a manifest are skipped
    (incomplete); runs whose series files are missing are listed but not fatal.
    A ``results_dir`` that is not a directory exits 2 with nothing written.
    """
    root = Path(results_dir)
    if not root.is_dir():
        print(f"validation error: {root} is not a directory", file=sys.stderr)
        return 2
    plot_dir = root / "plot_data"
    missing = []
    emitted = []
    for manifest_file in sorted(root.rglob("manifest.json")):
        run_dir = manifest_file.parent
        if run_dir == plot_dir:
            continue
        try:
            with open(manifest_file) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        files = data.get("files", []) if isinstance(data, dict) else []
        run_name = "__".join(run_dir.relative_to(root).parts) or run_dir.name
        for src_name in [f for f in files if isinstance(f, str) and f.endswith(".csv")]:
            src = run_dir / src_name
            if not src.exists():
                missing.append(str(src))
                continue
            plot_dir.mkdir(parents=True, exist_ok=True)
            if src_name == "profile.csv":
                dst = plot_dir / f"{run_name}_decay.csv"
                with open(src) as fh:
                    rows = list(csv.reader(fh))[1:]
                write_csv(dst, ["distance", "log_value"], [
                    [dist, math.log(float(value))] for dist, value, _ in rows if float(value) > 0
                ])
            else:
                dst = plot_dir / f"{run_name}_{Path(src_name).stem}.csv"
                shutil.copyfile(src, dst)
            emitted.append(str(dst))
    for path in emitted:
        print(f"wrote {path}")
    if missing:
        print("missing series (skipped):", file=sys.stderr)
        for path in missing:
            print(f"  {path}", file=sys.stderr)
    if not emitted and not missing:
        print("no completed runs with plottable series found")
    return 0
