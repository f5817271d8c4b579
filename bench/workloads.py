"""Workload definitions: experiment configs generated from a workload seed.

Each workload is a set of experiment configs that one pass runs, one after
another, through ``alloysim.experiments.run``.  The configs follow the
members of ``suites/acceptance_checks`` (models, gates, base seeds).  The
chain members' sample counts are cut so that one pass takes a few seconds;
the bulk-sampling members keep the suite's counts.  Where a cut count would
make a statistical gate fail on some seeds, the member's parameters change
instead, as noted at the member.  The 2-d members and the
long-chain ``ids`` member have no suite counterpart.

Workload seed ``w`` gives a config the seed ``base + SEED_STRIDE * w``
(``PINNED`` members keep ``base``), so seed 0 reproduces the suite's seeds.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

SEED_STRIDE = 1000

_TWO_TAP = [[[0], 1.0], [[1], 1.0]]
_ONE_TAP = [[[0], 1.0]]
_UNIFORM = {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}}
_GAUSSIAN = {"kind": "gaussian", "params": {"mean": 0.0, "variance": 1.0}}
_COSINE = {"kind": "cosine", "params": {"lo": 0.0, "hi": 1.0}}


def _model(lam, single_site, measure, dimension=1):
    return {
        "dimension": dimension,
        "lambda": lam,
        "single_site": single_site,
        "measure": measure,
    }


def _apriori(lam, n_samples):
    return {
        "kind": "fractional-moment",
        "model": _model(lam, _TWO_TAP, _COSINE),
        "params": {"radius": 8, "z": [lam, 0.01], "x": [0], "y": [0], "s": 0.5,
                   "n_samples": n_samples},
    }


# name -> (base seed, config without seed); names are unique per workload.
WORKLOADS = {
    # Per-call Python overhead: 1-d chains of 13-33 sites, where rng, measures,
    # field, assembly and small solves dominate.
    "small-chain": {
        "minami": (107, {
            "kind": "minami",
            "model": _model(10.0, _ONE_TAP, _GAUSSIAN),
            "params": {"radius": 10, "z": [0.0, 0.05], "x": [0], "y": [1],
                       "n_samples": 1000},
        }),
        # The suite's lams sweep under a measure without the two-eigenvalue
        # bound, so the runner applies no scaling gate: the fitted slope needs
        # ~1e5 samples per lam to stay inside [-2.2, -1.8] (its spread across
        # seeds is ~0.11 at 4000 per lam).  Same work: each lam redraws the
        # same fields.
        "minami-sweep": (107, {
            "kind": "minami",
            "model": _model(10.0, _ONE_TAP, _UNIFORM),
            "params": {"radius": 10, "z": [0.0, 0.05], "x": [0], "y": [1],
                       "n_samples": 500, "lams": [5.0, 10.0, 20.0, 40.0],
                       "scaling_samples": 2500},
        }),
        "apriori-lam10": (104, _apriori(10.0, 500)),
        "apriori-lam50": (105, _apriori(50.0, 500)),
        "recursion": (106, {
            "kind": "recursion",
            "model": _model(1.0, _TWO_TAP, _UNIFORM),
            "params": {"radius": 6, "energy": 0.37, "x": [0], "y": [2], "s": 0.5,
                       "lams": [5.0, 10.0, 20.0, 40.0], "n_samples": 250,
                       "residual_tol": 1e-08},
        }),
        "decay": (113, {
            "kind": "decay-profile",
            "model": _model(20.0, _TWO_TAP, _UNIFORM),
            "params": {"radius": 12, "z": [20.0, 0.01], "s": 0.1, "n_samples": 1000,
                       "max_distance": 10, "r2_min": 0.95},
        }),
        "two-level": (108, {
            "kind": "two-level",
            "model": _model(10.0, _ONE_TAP, _GAUSSIAN),
            "params": {"radius": 8, "interval": [-0.025, 0.025], "n_samples": 1000},
        }),
        # Windows 32x the suite's: at the suite's widths 1000 draws count ~30
        # eigenvalues in the narrowest window and the drift gate failed on
        # 13 of 20 seeds.
        "wegner": (4, {
            "kind": "wegner",
            "model": _model(10.0, _ONE_TAP, _GAUSSIAN),
            "params": {"radius": 16, "center": 0.0, "widths": [3.2, 1.6, 0.8],
                       "n_samples": 800, "ratio_tolerance": 0.1},
        }),
    },
    # A few large vectorized draws from one stream each, with no lattice: the
    # other side of any RNG change made for many tiny streams.
    "bulk-sampling": {
        "concentration": (101, {
            "kind": "concentration",
            "model": _model(1.0, _TWO_TAP, _UNIFORM),
            "params": {"site": [0], "eps_values": [0.5, 1.0, 1.5], "n_samples": 100000,
                       "a_step": 0.005, "exact": "uniform-pair", "tolerance": 0.01},
        }),
        "certificate": (102, {
            "kind": "certificate",
            "model": _model(1.0, _TWO_TAP, _UNIFORM),
            "params": {"delta": 0.05, "delta_prime": 0.05, "n_target": 1000,
                       "sampler": "auto"},
        }),
        # Only the gated tau, with 3x the suite's Gibbs targets: at 20000 the
        # tau gate's relative error reached 0.045 of its 0.05 tolerance
        # within 20 seeds.
        "gaussian-conditioning": (103, {
            "kind": "gaussian-conditioning",
            "params": {"coeffs": [0.5, 1.0, 2.0], "l_max": 6, "m_max": 6,
                       "tolerance": 1e-10,
                       "tau_mc": {"coeff": 1.0, "l": 5, "m": 5,
                                  "tau_values": [0.08], "n_target": 60000,
                                  "chains": 256, "burn_in": 300, "thin": 3}},
        }),
    },
    # LAPACK-bound operators: IDS on 801 and rescaled spectra on 501 chain
    # sites (tridiagonal eigenvalues; per-realization overhead is a few
    # percent), then 2-d boxes of 121 and 441 sites, the only dense path.
    "long-chain": {
        "poisson": (112, {
            "kind": "poisson",
            "model": _model(15.0, _ONE_TAP, _UNIFORM),
            "params": {"stats_radius": 250, "ids_radius": 400, "ids_realizations": 30,
                       "n_realizations": 250, "e0": "median"},
        }),
        "ids": (115, {
            "kind": "ids",
            "model": _model(15.0, _ONE_TAP, _UNIFORM),
            "params": {"radius": 400, "n_realizations": 40},
        }),
        "fractional-moment-2d": (201, {
            "kind": "fractional-moment",
            "model": _model(10.0, [[[0, 0], 1.0], [[1, 0], 1.0]], _COSINE, dimension=2),
            "params": {"radius": 10, "z": [10.0, 0.01], "x": [0, 0], "y": [0, 0],
                       "s": 0.5, "n_samples": 40},
        }),
        "wegner-2d": (202, {
            "kind": "wegner",
            "model": _model(2.0, [[[0, 0], 1.0]], _GAUSSIAN, dimension=2),
            "params": {"radius": 5, "center": 0.0, "widths": [0.8, 0.4, 0.2],
                       "n_samples": 250, "ratio_tolerance": 0.1},
        }),
    },
}

# Members whose runner applies no gate; every other member must report
# ``passed: true``.
UNGATED = {"minami-sweep", "ids"}

# Members that keep their base seed for every workload seed.  The Poisson
# gate is a 1% Kolmogorov-Smirnov test and rejects a share of seeds (4 of 20
# at this size); the suite's seed passes.  The ungated ``ids`` member
# carries the workload seed on long-chain instead.
PINNED = {"poisson"}

# Wrapped targets (named as in tracer.TARGETS) that must record calls on a
# workload, besides the runner of each config's kind.  A listed target that
# records no call means the benchmark no longer measures that layer there.
_RUN = {"experiments.run", "experiments.load_config"}
_LOOP = _RUN | {"field.stream_rng", "CouplingMeasure.sample"}
REQUIRED_CALLS = {
    "small-chain": _LOOP | {
        "estimators.sample_field", "estimators.assemble", "estimators.spectrum",
        "estimators.green_column", "numpy.linalg.solve",
        "scipy.linalg.eigvalsh_tridiagonal",
        "experiments.minami_determinant", "experiments.fractional_moment",
        "experiments.recursion_probe", "experiments.green_decay_profile",
        "experiments.two_level_probability", "experiments.wegner_count",
        "DecayProfile.to_csv",
    },
    "bulk-sampling": _RUN | {
        "CouplingMeasure.sample", "regularity.stream_rng", "experiments.stream_rng",
        "experiments.concentration_curve", "experiments.conditional_concentration_mc",
        "experiments.pinning_certificate", "experiments.condition_ma1_center",
        "experiments.condition_ma1_center_direct", "ConcentrationCurve.to_csv",
        "numpy.linalg.eigvalsh", "numpy.linalg.inv",
    },
    "long-chain": _LOOP | {
        "ids.sample_field", "ids.assemble", "ids.spectrum",
        "scipy.linalg.eigvalsh_tridiagonal",
        "experiments.ids_estimate", "experiments.sample_rescaled_spectra",
        "experiments.poisson_statistics",
        "IdsTable.to_csv", "PoissonReport.gap_histogram_to_csv",
        "estimators.sample_field", "estimators.assemble", "estimators.spectrum",
        "estimators.green_column", "numpy.linalg.eigvalsh", "numpy.linalg.solve",
        "experiments.fractional_moment", "experiments.wegner_count",
    },
}


def configs(workload: str, seed: int) -> dict:
    """Config dicts of one workload, keyed by member name."""
    out = {}
    for name, (base, body) in WORKLOADS[workload].items():
        cfg = {"schema_version": 1,
               "seed": base if name in PINNED else base + SEED_STRIDE * seed}
        cfg.update(copy.deepcopy(body))
        out[name] = cfg
    return out


def write_configs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's configs as JSON files; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in configs(workload, seed).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        paths[name] = path
    return paths


def realizations(cfg: dict) -> int:
    """Monte Carlo realizations a config requests.

    Estimator calls count ``n_samples`` each (once per width for Wegner, once
    per eps for concentration), the Minami sweep ``scaling_samples`` per lam,
    IDS and Poisson runs their realization counts, conditional samplers their
    accepted-sample targets.
    """
    p = cfg["params"]
    kind = cfg["kind"]
    if kind == "minami":
        return p["n_samples"] + p.get("scaling_samples", p["n_samples"]) * len(p.get("lams", []))
    if kind == "wegner":
        return p["n_samples"] * len(p["widths"])
    if kind == "concentration":
        return p["n_samples"] * len(p["eps_values"])
    if kind == "poisson":
        return p["ids_realizations"] + p["n_realizations"]
    if kind == "ids":
        return p["n_realizations"]
    if kind == "certificate":
        return p["n_target"]
    if kind == "gaussian-conditioning":
        tau = p.get("tau_mc")
        return tau["n_target"] * len(tau["tau_values"]) if tau else 0
    return p["n_samples"]


def volumes(cfg: dict) -> list:
    """(dimension, radius) of every volume a config's runner builds."""
    p = cfg["params"]
    if "model" not in cfg:
        return []
    d = cfg["model"]["dimension"]
    return [(d, p[key]) for key in ("radius", "ids_radius", "stats_radius") if key in p]
