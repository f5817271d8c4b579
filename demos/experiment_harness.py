"""Config-driven experiments: one run, a suite, and plot-ready series.

Everything the library computes can be driven from a JSON config with a
schema version, a seed, an optional model block, and per-kind parameters.
A run writes results.json, a copy of the config, any CSV series, and a
manifest that doubles as the completion marker; re-running the same config
reproduces results.json byte for byte.  This script builds a tiny suite in a
temporary directory, walks it through the command line entry points and
removes the directory when it is done.
"""

import json
import tempfile
from pathlib import Path

from alloysim.cli import main as alloysim

SEED = 20260815


def write(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main():
    with tempfile.TemporaryDirectory(prefix="alloysim_demo_") as workspace:
        root = Path(workspace)
        model = {
            "dimension": 1,
            "lambda": 1.0,
            "single_site": [[[0], 1.0], [[1], 1.0]],
            "measure": {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
        }
        write(root / "concentration.json", {
            "schema_version": 1, "kind": "concentration", "seed": SEED,
            "model": model,
            "params": {"site": [0], "eps_values": [0.5, 1.0], "n_samples": 20000,
                       "exact": "uniform-pair", "tolerance": 0.02},
        })
        write(root / "sharpness.json", {
            "schema_version": 1, "kind": "inverse-moment", "seed": SEED,
            "params": {"measure": {"kind": "uniform", "params": {"lo": 0.0, "hi": 1.0}},
                       "s": 0.5, "b": 0.5, "expect": "equality"},
        })
        write(root / "manifest.json", {
            "schema_version": 1, "name": "demo",
            "configs": ["concentration.json", "sharpness.json"],
            "out": "results",
        })

        print(f"workspace: {root}")
        print()
        print("$ alloysim run concentration.json --out results/solo")
        alloysim(["run", str(root / "concentration.json"),
                  "--out", str(root / "results" / "solo")])

        print()
        print("$ alloysim suite manifest.json")
        alloysim(["suite", str(root / "manifest.json")])

        print()
        print("$ alloysim emit-plot-data results")
        alloysim(["emit-plot-data", str(root / "results")])

        results = json.loads((root / "results" / "solo" / "results.json").read_text())
        print()
        print(f"solo run hash {results['config_hash'][:12]}, "
              f"max abs error {results['max_abs_error']:.4f}")


if __name__ == "__main__":
    main()
