"""alloysim benchmark: realization-loop workloads driven through the public API.

    python3 bench/run.py --workload small-chain --seed 0 --trace 0

Run from a source checkout; the package is imported from ``src/``.  One
process runs the workload's configs one after another through
``alloysim.experiments.run`` (a closed loop with one client), pass after
pass, for ``--seconds`` (by default BENCHMARK.json's ``run_seconds``).
The first pass's ``results.json`` files are the reference for every later
pass; its one-off costs (lazy imports, first calls) barely move the median
of a run's passes.

``--trace 0`` reports the end-to-end metrics: median pass wall time,
realizations per second, median set-up time of fresh processes started
between passes, and peak RSS.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see ``tracer.py``), the tracing overhead, a
per-volume-size table of microseconds per realization for each layer, and
fails when a wrapped target is missing or records no call where the
workload's layer map requires one.

Every run checks that each config exits 0, reports ``passed: true`` (or no
gate, for the members in ``workloads.UNGATED``) and rewrites a
byte-identical ``results.json`` on every pass.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` (config
runs) and ``metrics``.  A fuller report, with the machine record, goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import WRITERS, MissingTarget, Recorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
# Set-up probes per untraced run, spread over the run's seconds so that they
# see the same host speed as the passes.
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 120
# Count metrics of one traced pass that must repeat exactly on every pass.
EXACT_COUNTS = (
    "rng.streams", "measures.values_drawn", "field.draws", "lattice.spectra",
    "lattice.solves", "lattice.assembled_bytes", "estimators.redraws",
    "experiments.bytes_written",
)

TABLE_LAYERS = ("rng", "measures", "field", "lattice", "linalg", "estimators", "ids")


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


# -- machine record -----------------------------------------------------------


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def machine_record():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads() or os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- passes -------------------------------------------------------------------


def _results_bytes(outdir):
    try:
        return (outdir / "results.json").read_bytes()
    except OSError:
        return None


def _check(name, code, stderr, data, reference):
    """Failure message for one config run, or None."""
    if code != 0:
        return f"{name}: exit {code}: {stderr.strip()}"
    if data is None:
        return f"{name}: no results.json"
    passed = json.loads(data).get("passed")
    if passed is not (None if name in workloads.UNGATED else True):
        return f"{name}: gate passed={passed}"
    if reference is not None and data != reference:
        return f"{name}: results.json differs from the first pass"
    return None


class Runner:
    """Runs passes over a workload's configs and checks their outputs."""

    def __init__(self, experiments, paths, outdir):
        self.experiments = experiments
        self.paths = paths
        self.outdir = outdir
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def run_pass(self, recorder=None):
        """One pass; returns (wall seconds, write tails, bytes written)."""
        runs, tails = [], []
        start = time.perf_counter()
        for name, path in self.paths.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    if recorder is None:
                        code = self.experiments.run(str(path), out=str(self.outdir / name))
                    else:
                        code, tail = recorder.root(name, self.experiments.run, str(path),
                                                   out=str(self.outdir / name))
                        tails.append(tail)
                except Exception:  # a crash is a failed run; later configs still run
                    code = "exception"
                    traceback.print_exc()
            runs.append((name, code, err.getvalue()))
        wall = time.perf_counter() - start
        written = 0
        for name, code, stderr in runs:
            data = _results_bytes(self.outdir / name)
            first = name not in self.reference
            if first and data is not None:
                self.reference[name] = data
            self.attempted += 1
            problem = _check(name, code, stderr, data, None if first else self.reference[name])
            if problem is not None:
                self.failures.append(problem)
            if (self.outdir / name).is_dir():
                # manifest.json holds timestamps whose length can vary
                written += sum(f.stat().st_size for f in (self.outdir / name).iterdir()
                               if f.name != "manifest.json")
        return wall, tails, written


def _enough(count, start, seconds):
    return count >= MIN_PASSES and time.perf_counter() - start >= seconds


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# -- set-up time --------------------------------------------------------------


def setup_time(paths):
    """Seconds a fresh process takes to import alloysim, load every config and
    build each volume's neighbor pairs and coupling layout."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)]
    cmd += [str(p) for p in paths.values()]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- per-layer metrics --------------------------------------------------------


def _per(total, count):
    return total / count if count else 0.0


def layer_metrics(rec, tails, written):
    """Per-layer metrics of one traced pass, in the units BENCHMARK.json declares."""
    us = 1e6
    c, incl, ls = rec.calls, rec.incl, rec.layer_self
    streams = c["field.stream_rng"] + c["regularity.stream_rng"] + c["experiments.stream_rng"]
    draws = rec.draws()
    assembles = c["estimators.assemble"] + c["ids.assemble"]
    spectra = c["estimators.spectrum"] + c["ids.spectrum"]
    solves = c["estimators.green_column"] + rec.direct_solves
    kept = rec.kept["estimators"] + rec.kept["ids"]
    write = sum(incl[w] for w in WRITERS) + sum(tails)
    load = incl["experiments.load_config"]
    return {
        "rng.streams": streams,
        "rng.us_per_stream": _per(ls["rng"] * us, streams),
        "measures.values_drawn": rec.values_drawn,
        "measures.ns_per_value": _per(ls["measures"] * 1e9, rec.values_drawn),
        "field.draws": draws,
        "field.useful_ratio": _per(kept, draws),
        "field.self_us_per_draw": _per(ls["field"] * us, draws),
        "field.duplicate_factor": _per(draws, rec.distinct_draws),
        "lattice.assemble_us": _per((incl["estimators.assemble"] + incl["ids.assemble"]) * us,
                                    assembles),
        "lattice.assembled_bytes": rec.assembled_bytes,
        "lattice.spectra": spectra,
        "lattice.spectrum_us": _per((incl["estimators.spectrum"] + incl["ids.spectrum"]) * us,
                                    spectra),
        "lattice.solves": solves,
        "lattice.solve_us": _per((incl["estimators.green_column"] + rec.direct_solve_time) * us,
                                 solves),
        "linalg.self_us": ls["linalg"] * us,
        "estimators.self_us_per_realization": _per(ls["estimators"] * us, rec.kept["estimators"]),
        "estimators.redraws": rec.redraws,
        "ids.self_us": ls["ids"] * us,
        "regularity.self_us": ls["regularity"] * us,
        "regularity.acceptance_rate": _per(rec.accepted, rec.drawn),
        "experiments.load_config_us": load * us,
        "experiments.write_us": write * us,
        "experiments.bytes_written": written,
        "experiments.self_us": (ls["experiments"] - load - write) * us,
    }


def size_table(rec):
    """Microseconds per realization of each layer's self time, by volume size."""
    table = {}
    for size, draws in sorted(rec.size_draws.items()):
        row = {layer: rec.size_self.get((layer, size), 0.0) * 1e6 / draws
               for layer in TABLE_LAYERS}
        row["total"] = sum(row.values())
        row["realizations"] = draws
        table[str(size)] = row
    return table


# -- modes --------------------------------------------------------------------


def measure_untraced(runner, paths, cfgs, seconds):
    walls, setups = [], []
    start = time.perf_counter()
    while not _enough(len(walls), start, seconds):
        walls.append(runner.run_pass()[0])
        # one probe whenever the probes fall behind an even spread over the run
        if len(setups) < SETUP_RUNS and len(setups) * seconds < SETUP_RUNS * (
                time.perf_counter() - start):
            setups.append(setup_time(paths))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_time(paths))
    wall = statistics.median(walls)
    reals = sum(workloads.realizations(cfg) for cfg in cfgs.values())
    metrics = {
        "wall_s": wall,
        "realizations_per_s": reals / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"wall_s": walls, "setup_s": setups, "realizations_per_pass": reals}
    return metrics, detail


def measure_traced(runner, cfgs, workload, seconds):
    recorder = Recorder()
    kinds = sorted({cfg["kind"] for cfg in cfgs.values()})
    required = workloads.REQUIRED_CALLS[workload] | {f"experiments.runner.{k}" for k in kinds}
    untraced, traced, passes = [], [], []
    start = time.perf_counter()
    while not (_enough(len(traced), start, seconds) and len(untraced) >= MIN_PASSES):
        untraced.append(runner.run_pass()[0])
        recorder.reset()
        try:
            recorder.install(kinds)
        except MissingTarget as exc:
            raise BenchError(f"wrapped target missing: {exc}") from exc
        try:
            wall, tails, written = runner.run_pass(recorder)
        finally:
            recorder.uninstall()
        traced.append(wall)
        uncalled = sorted(t for t in required if recorder.calls[t] == 0)
        if uncalled:
            raise BenchError(f"{workload}: no calls recorded for {', '.join(uncalled)}")
        passes.append({
            "metrics": layer_metrics(recorder, tails, written),
            "table": size_table(recorder),
            "per_config": dict(recorder.per_config),
            "calls": dict(recorder.calls),
        })
    unsteady = {key: sorted({p["metrics"][key] for p in passes}) for key in EXACT_COUNTS}
    unsteady = {key: seen for key, seen in unsteady.items() if len(seen) > 1}
    # counts are equal on every pass (or reported unsteady); times take the median
    metrics = {key: passes[0]["metrics"][key] if key in EXACT_COUNTS
               else statistics.median(p["metrics"][key] for p in passes)
               for key in passes[0]["metrics"]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    table = {
        size: {col: statistics.median(p["table"][size][col] for p in passes)
               for col in passes[0]["table"][size]}
        for size in passes[0]["table"]
    }
    detail = {
        "wall_s_untraced": untraced,
        "wall_s_traced": traced,
        "us_per_realization_by_size": table,
        "per_config_draws": passes[0]["per_config"],
        "calls": passes[0]["calls"],
        "unsteady_counts": unsteady,
    }
    return metrics, detail


def _print_metric(name, value, units, samples=None):
    line = f"{name:<36} {value:>14.6g} {units[name]}"
    if samples:
        q1, q3 = _quartiles(samples)
        line += f"   (median of n={len(samples)}, q1 {q1:.6g}, q3 {q3:.6g})"
    print(line)


def main(argv=None):
    # The metric list, units and run length are BENCHMARK.json's.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "alloysim" / "__init__.py").is_file():
        print(f"error: no alloysim package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: operators have at most 441 sites, where a second
    # thread buys nothing and adds contention on a small host.  Set before
    # numpy loads; the set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from alloysim import experiments

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    try:
        cfgs = workloads.configs(args.workload, args.seed)
        paths = workloads.write_configs(args.workload, args.seed, work / "configs")
        runner = Runner(experiments, paths, work / "runs")
        if args.trace:
            metrics, detail = measure_traced(runner, cfgs, args.workload, args.seconds)
        else:
            metrics, detail = measure_untraced(runner, paths, cfgs, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_record()
    failed = len(runner.failures)
    unsteady = detail.get("unsteady_counts", {})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for problem in runner.failures:
        print(f"FAIL {problem}")
    for key, seen in unsteady.items():
        print(f"FAIL count {key} differs between traced passes: {seen}")
    samples = {"wall_s": detail.get("wall_s"), "setup_s": detail.get("setup_s")}
    for name, value in metrics.items():
        _print_metric(name, value, units, samples.get(name))
    print(f"{'failed_frac':<36} {failed / runner.attempted:>14.6g} ratio"
          f"   ({failed} of {runner.attempted} config runs)")
    if args.trace:
        for name, row in detail["per_config_draws"].items():
            print(f"field draws {name:<22} {row['draws']:>8} of {row['distinct_draws']:>8} distinct")
        print("us per realization by volume size (self time per layer):")
        print("  size " + "".join(f"{c:>11}" for c in TABLE_LAYERS + ("total",)))
        for size, row in detail["us_per_realization_by_size"].items():
            print(f"  {size:>4} " + "".join(f"{row[c]:>11.2f}" for c in TABLE_LAYERS + ("total",)))

    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "metrics": metrics, "failures": runner.failures,
              "attempted": runner.attempted, **detail}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0 and not unsteady,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
