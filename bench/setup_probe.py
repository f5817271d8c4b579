"""Set-up time of a fresh process for a workload.

    python3 bench/setup_probe.py <src dir> <config.json>...

Times, from before the first import, importing alloysim, loading every
config and building each volume's neighbor pairs and coupling layout: the
work a run does before its first realization.  Prints ``{"setup_s": ...}``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(argv):
    src, paths = argv[0], argv[1:]
    sys.path.insert(0, src)
    from alloysim.experiments import load_config
    from alloysim.lattice import build_volume

    for path in paths:
        cfg = load_config(path)
        for dimension, radius in workloads.volumes(json.loads(Path(path).read_text())):
            volume = build_volume(dimension, radius)
            volume.neighbor_pairs()
            volume.coupling_layout(cfg.model.potential)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


if __name__ == "__main__":
    main(sys.argv[1:])
