"""Span recorder that wraps alloysim's public functions from outside.

Each wrapped target opens a span on call and closes it on return.  Spans are
aggregated as they close (calls and inclusive time per target, self time per
layer and per volume size) instead of being stored, which keeps the
recorder's memory flat over 10^5 realizations.  A span's self time is its
duration minus the durations of its direct child spans.

Targets are patched where callers bind them (``alloysim.estimators`` imports
``sample_field`` by name, so the estimators' binding is patched, not
``alloysim.field.sample_field``), and restored by ``uninstall``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import defaultdict

_clock = time.perf_counter


def _vol_arg(pos):
    def size(args, kwargs):
        vol = args[pos] if len(args) > pos else kwargs.get("volume")
        return len(vol)

    return size


def _real_size(args, kwargs):
    return len(args[0].volume)


def _op_size(args, kwargs):
    return args[0].size


# (owner, attribute, layer, size of the volume the call works on or None
# to inherit it from the enclosing span).  The owner is a module path, or
# "module:Class" for a method.  Target names drop the "alloysim." prefix
# ("estimators.sample_field", "numpy.linalg.solve", "CouplingMeasure.sample").
TARGETS = [
    ("alloysim.experiments", "load_config", "experiments", None),
    ("alloysim.experiments", "stream_rng", "rng", None),
    ("alloysim.estimators", "sample_field", "field", _vol_arg(2)),
    ("alloysim.estimators", "assemble", "lattice", _real_size),
    ("alloysim.estimators", "spectrum", "lattice", _op_size),
    ("alloysim.estimators", "green_column", "lattice", _op_size),
    ("alloysim.ids", "sample_field", "field", _vol_arg(2)),
    ("alloysim.ids", "assemble", "lattice", _real_size),
    ("alloysim.ids", "spectrum", "lattice", _op_size),
    ("alloysim.field", "stream_rng", "rng", None),
    ("alloysim.regularity", "stream_rng", "rng", None),
    ("alloysim.measures:CouplingMeasure", "sample", "measures", None),
    ("numpy.linalg", "solve", "linalg", None),
    ("numpy.linalg", "eigvalsh", "linalg", None),
    ("numpy.linalg", "inv", "linalg", None),
    ("scipy.linalg", "eigvalsh_tridiagonal", "linalg", None),
    # estimator, IDS and regularity entry points as the runners bind them
    ("alloysim.experiments", "fractional_moment", "estimators", _vol_arg(1)),
    ("alloysim.experiments", "green_decay_profile", "estimators", _vol_arg(1)),
    ("alloysim.experiments", "wegner_count", "estimators", _vol_arg(1)),
    ("alloysim.experiments", "minami_determinant", "estimators", _vol_arg(1)),
    ("alloysim.experiments", "two_level_probability", "estimators", _vol_arg(1)),
    ("alloysim.experiments", "recursion_probe", "estimators", _vol_arg(1)),
    ("alloysim.experiments", "fvc_probability", "estimators", _vol_arg(1)),
    ("alloysim.experiments", "ids_estimate", "ids", _vol_arg(1)),
    ("alloysim.experiments", "sample_rescaled_spectra", "ids", _vol_arg(1)),
    ("alloysim.experiments", "poisson_statistics", "ids", None),
    ("alloysim.experiments", "concentration_curve", "regularity", None),
    ("alloysim.experiments", "conditional_concentration_mc", "regularity", None),
    ("alloysim.experiments", "pinning_certificate", "regularity", None),
    ("alloysim.experiments", "condition_ma1_center", "regularity", None),
    ("alloysim.experiments", "condition_ma1_center_direct", "regularity", None),
    # closed-form bound constants the estimators compute once per call; their
    # own matrix inverses are not operator solves
    ("alloysim.estimators", "minami_bound_constant", "estimators", None),
    ("alloysim.estimators", "uniform_bound_constants", "estimators", None),
    # artifact writers the runners call; counted as experiments writes
    ("alloysim.ids:IdsTable", "to_csv", "experiments", None),
    ("alloysim.ids:PoissonReport", "gap_histogram_to_csv", "experiments", None),
    ("alloysim.regularity:ConcentrationCurve", "to_csv", "experiments", None),
    ("alloysim.estimators:DecayProfile", "to_csv", "experiments", None),
]

WRITERS = {
    "IdsTable.to_csv", "PoissonReport.gap_histogram_to_csv",
    "ConcentrationCurve.to_csv", "DecayProfile.to_csv",
}
# Argument naming the realizations an estimator keeps (one field each).
_KEPT_ARG = {"n_samples", "n_realizations"}


class MissingTarget(RuntimeError):
    """A wrapped target no longer exists in the program."""


def _resolve(owner):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError as exc:
        raise MissingTarget(f"{module} no longer imports: {exc}") from exc
    if cls:
        obj = getattr(obj, cls, None)
        if obj is None:
            raise MissingTarget(f"{owner} no longer exists")
    return obj


def target_name(owner, attr):
    module, _, cls = owner.partition(":")
    return f"{cls or module.removeprefix('alloysim.')}.{attr}"


class Recorder:
    """Aggregates spans of wrapped calls; install/uninstall patch targets."""

    def __init__(self):
        from alloysim.field import sample_field

        self._field_sig = inspect.signature(sample_field)
        self._patches = []
        self._stack = [[None, 0.0, None, None]]  # open spans: [layer, child time, size, name]
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.size_self = defaultdict(float)  # (layer, size) -> seconds
        self.size_draws = defaultdict(int)
        self.values_drawn = 0
        self.kept = defaultdict(int)  # layer -> realizations kept
        self.redraws = 0
        self.field_keys = set()
        self.distinct_draws = 0
        self.direct_solves = 0
        self.direct_solve_time = 0.0
        self.assembled_bytes = 0
        self.accepted = 0.0
        self.drawn = 0
        self.per_config = {}
        self._stack[:] = [[None, 0.0, None, None]]

    # -- spans -------------------------------------------------------------

    def span(self, name, layer, fn, size_fn=None, on_call=None):
        stack = self._stack
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            size = size_fn(args, kwargs) if size_fn is not None else parent[2]
            frame = [layer, 0.0, size, name]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                stack.pop()
                own = dur - frame[1]
                parent[1] += dur
                rec.calls[name] += 1
                rec.incl[name] += dur
                rec.layer_self[layer] += own
                rec.size_self[(layer, size)] += own
            if on_call is not None:
                # bookkeeping is the tracer's cost, not the caller's self time
                t = _clock()
                on_call(parent, dur, args, kwargs, result)
                parent[1] += _clock() - t
            return result

        return wrapper

    def draws(self):
        return self.calls["estimators.sample_field"] + self.calls["ids.sample_field"]

    def root(self, name, fn, *args, **kwargs):
        """Run one config as an ``experiments.run`` span.

        Returns fn's result and the seconds between the runner's return and
        the end of the span, which ``run`` spends writing artifacts.  Field
        draws count as distinct per config: configs never share fields.
        """
        self._runner_end = None
        self.field_keys = set()
        before = self.draws()
        result = self.span("experiments.run", "experiments", fn)(*args, **kwargs)
        end = _clock()
        self.per_config[name] = {"draws": self.draws() - before,
                                 "distinct_draws": len(self.field_keys)}
        self.distinct_draws += len(self.field_keys)
        tail = end - self._runner_end if self._runner_end is not None else 0.0
        return result, tail

    # -- per-target bookkeeping ------------------------------------------

    def _on_field(self, parent, dur, args, kwargs, result):
        if kwargs or len(args) < 5:
            bound = self._field_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())
        u, measure, volume, seed, stream = args[:5]
        attempt = args[5] if len(args) > 5 else 0
        self.size_draws[len(volume)] += 1
        if attempt > 0:
            self.redraws += 1
        self.field_keys.add((id(u), id(measure), len(volume), seed, stream, attempt))

    def _on_sample(self, parent, dur, args, kwargs, result):
        self.values_drawn += len(result)

    def _on_assemble(self, parent, dur, args, kwargs, result):
        self.assembled_bytes += 8 * result.size * result.size

    def _on_linalg_solve(self, parent, dur, args, kwargs, result):
        # called by an estimator entry point itself, not by a helper it uses
        if parent[0] == "estimators" and parent[3].startswith("experiments."):
            self.direct_solves += 1
            self.direct_solve_time += dur

    def _kept_hook(self, layer, fn):
        sig = inspect.signature(fn)
        key = next(k for k in sig.parameters if k in _KEPT_ARG)

        def on_call(parent, dur, args, kwargs, result):
            self.kept[layer] += int(sig.bind(*args, **kwargs).arguments[key])

        return on_call

    def _on_conditional(self, parent, dur, args, kwargs, result):
        rate = result.acceptance_rate
        if rate == rate:  # the gibbs sampler accepts every draw and reports nan
            self.accepted += rate * result.n_draws
            self.drawn += result.n_draws

    def _on_runner_end(self, parent, dur, args, kwargs, result):
        self._runner_end = _clock()

    # -- install ----------------------------------------------------------

    def _hook(self, name, layer, fn):
        if name.endswith(".sample_field"):
            return self._on_field
        if name == "CouplingMeasure.sample":
            return self._on_sample
        if name.endswith(".assemble"):
            return self._on_assemble
        if name in ("numpy.linalg.solve", "numpy.linalg.inv"):
            return self._on_linalg_solve
        if name == "experiments.conditional_concentration_mc":
            return self._on_conditional
        if layer in ("estimators", "ids") and any(
            k in inspect.signature(fn).parameters for k in _KEPT_ARG
        ):
            return self._kept_hook(layer, fn)
        return None

    def install(self, kinds):
        """Patch every target and the runners of the given experiment kinds.

        Raises MissingTarget when a target is gone, so a refactor cannot make
        a layer silently read zero.
        """
        if self._patches:
            raise RuntimeError("recorder already installed")
        for owner, attr, layer, size_fn in TARGETS:
            obj = _resolve(owner)
            fn = getattr(obj, attr, None)
            if fn is None:
                raise MissingTarget(f"{owner}.{attr} no longer exists")
            name = target_name(owner, attr)
            wrapped = self.span(name, layer, fn, size_fn, self._hook(name, layer, fn))
            self._patches.append((obj, attr, fn))
            setattr(obj, attr, wrapped)
        experiments = importlib.import_module("alloysim.experiments")
        table = getattr(experiments, "_KINDS", None)
        if table is None:
            raise MissingTarget("alloysim.experiments._KINDS no longer exists")
        for kind in kinds:
            entry = table.get(kind)
            if entry is None or not hasattr(entry, "runner"):
                raise MissingTarget(f"runner for experiment kind {kind!r} no longer exists")
            wrapped = self.span(f"experiments.runner.{kind}", "experiments", entry.runner,
                                on_call=self._on_runner_end)
            self._patches.append((table, kind, entry))
            table[kind] = dataclasses.replace(entry, runner=wrapped)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._patches = []
