"""Integrated density of states, eigenvalue rescaling, Poisson statistics.

The density of states is approximated by the pooled normalized eigenvalue
counting function over independent realizations.  Rescaled eigenvalues
``xi_j = |volume| * (N(E_j) - N(E_0))`` near a reference energy feed the
point-process statistics: unit-window counts, consecutive-gap distribution
against Exp(1), and a chi-square comparison of the count histogram with the
Poisson law.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .field import sample_field
from .lattice import FiniteVolume, assemble, chain_count, spectrum
from .model import AlloyModel
from .results import write_csv

__all__ = [
    "IdsTable",
    "ids_estimate",
    "PositivityRow",
    "PositivityProbe",
    "ids_positivity_probe",
    "RescaledSpectrum",
    "rescale_eigenvalues",
    "PoissonReport",
    "poisson_statistics",
    "sample_rescaled_spectra",
]

# 1% critical coefficient for the one-sample Kolmogorov-Smirnov statistic,
# D_crit = 1.62762 / sqrt(n) for large n.
KS_COEFF_1PCT = 1.62762


@dataclass
class IdsTable:
    """Empirical integrated density of states on an energy grid."""

    energies: np.ndarray
    values: np.ndarray
    n_realizations: int
    volume_points: int

    def evaluate(self, energy):
        """Linear interpolation, clamped to the table's end values."""
        return np.interp(energy, self.energies, self.values)

    def median_energy(self) -> float:
        """Smallest energy where the counting function crosses 1/2."""
        idx = int(np.searchsorted(self.values, 0.5, side="left"))
        if idx == 0:
            return float(self.energies[0])
        if idx >= len(self.values):
            raise NumericalError("counting function never reaches 1/2 on the grid")
        v0, v1 = self.values[idx - 1], self.values[idx]
        e0, e1 = self.energies[idx - 1], self.energies[idx]
        if v1 == v0:
            return float(0.5 * (e0 + e1))
        return float(e0 + (0.5 - v0) / (v1 - v0) * (e1 - e0))

    @property
    def resolution(self) -> float:
        return float(np.max(np.diff(self.energies)))

    def to_csv(self, path) -> None:
        write_csv(path, ["energy", "ids"], zip(self.energies, self.values))


# True in a process that ``_fork_map`` forked, whose own calls run serially.
_FORKED = False


def _cpus() -> int:
    """Parts ``_fork_map`` runs at once: the CPUs this process may run on, or
    1 where ``os.fork`` or ``os.sched_getaffinity`` is missing and inside a
    forked part."""
    if _FORKED or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _flush_std() -> None:
    for stream in filter(None, (sys.stdout, sys.stderr)):
        stream.flush()


def _forked_part(fn, rows, write_end, inherited) -> None:
    """Child side of ``_fork_map``: send ``(True, fn(rows))``, or ``(False,
    exception)``, pickled through ``write_end``, flush what ``fn`` printed,
    and leave without running the parent's cleanup."""
    global _FORKED
    try:
        _FORKED = True
        for fd in inherited:
            os.close(fd)
        try:
            reply = (True, fn(rows))
        except BaseException as exc:  # handed to the parent, which raises it
            reply = (False, exc)
        with open(write_end, "wb") as fh:
            fh.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        _flush_std()
    finally:
        os._exit(0)


def _fork_map(fn, n_items: int) -> list:
    """``[fn(rows) for rows in parts]``, where ``parts`` are ``_cpus()``
    contiguous slices, at most ``n_items``, that cover ``range(n_items)`` in
    order.

    The caller runs the first part; every other part runs at the same time in
    a child made by ``os.fork``, so ``fn`` sees the caller's memory and only
    its result is pickled.  An exception is raised as the serial loop would
    raise it: the earliest failing part's, once every child is reaped.  A
    child that ends without a result raises a ``NumericalError``.  A child
    holds only the calling thread, so a lock that another thread of the
    caller held at the fork stays held in it.  Standard output and error are
    flushed before the forks, so that no child repeats what the caller wrote.
    """
    k = max(1, min(_cpus(), n_items))
    parts = [slice(n_items * i // k, n_items * (i + 1) // k) for i in range(k)]
    children = []  # (pid, read end) of parts[1:]
    replies = []
    _flush_std()
    try:
        for rows in parts[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _forked_part(fn, rows, write_end, [read_end] + [r for _, r in children])
            os.close(write_end)
            children.append((pid, read_end))
        results = [fn(parts[0])]
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as fh:
                replies.append(fh.read())
    finally:
        # closed before the wait, so that no child blocks on a full pipe
        for _, read_end in children:
            os.close(read_end)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for rows, reply, status in zip(parts[1:], replies, statuses):
        if not reply:
            raise NumericalError(
                f"the forked part of items {rows.start} to {rows.stop - 1} of {n_items} "
                f"ended without a result (exit code {os.waitstatus_to_exitcode(status)})"
            )
        ok, value = pickle.loads(reply)
        if not ok:
            raise value
        results.append(value)
    return results


def _spectra(model: AlloyModel, volume: FiniteVolume, n_realizations: int, master_seed: int):
    """Spectra of realizations ``r < n_realizations`` (stream ``r``), in order."""

    def part(rows):
        out = []
        for r in range(n_realizations)[rows]:
            real = sample_field(model.potential, model.measure, volume, master_seed, r)
            out.append(spectrum(assemble(real, model.lam)))
        return out

    return [evals for spectra in _fork_map(part, n_realizations) for evals in spectra]


def _default_grid(model: AlloyModel, pooled: np.ndarray, n_points: int) -> np.ndarray:
    lo_sup, hi_sup = model.measure.support
    d = model.dimension
    if math.isfinite(lo_sup) and math.isfinite(hi_sup):
        reach = model.lam * model.potential.l1_norm * max(abs(lo_sup), abs(hi_sup))
        lo, hi = -2 * d - reach - 0.1, 2 * d + reach + 0.1
    else:
        lo, hi = float(pooled[0]) - 1.0, float(pooled[-1]) + 1.0
    return np.linspace(lo, hi, n_points)


def ids_estimate(
    model: AlloyModel,
    volume: FiniteVolume,
    n_realizations: int,
    master_seed: int,
    n_grid: int = 20001,
) -> IdsTable:
    """Pooled normalized eigenvalue counting function.

    The ``n_grid`` energies span the deterministic spectral enclosure when
    the coupling measure has bounded support, so every finite-volume
    eigenvalue at the same disorder strength interpolates inside the table.
    """
    if n_realizations < 1:
        raise ValidationError("need at least one realization")
    if n_grid < 2:
        raise ValidationError("need at least two grid energies")
    pooled = np.sort(np.concatenate(list(_spectra(model, volume, n_realizations, master_seed))))
    energy_grid = _default_grid(model, pooled, n_grid)
    values = np.searchsorted(pooled, energy_grid, side="right") / (
        n_realizations * len(volume)
    )
    return IdsTable(
        energies=energy_grid,
        values=values,
        n_realizations=n_realizations,
        volume_points=len(volume),
    )


@dataclass
class PositivityRow:
    a: float
    b: float
    eps: np.ndarray
    increments: np.ndarray
    best_fit_c: float
    passed: bool
    loglog_slope: Optional[float]


@dataclass
class PositivityProbe:
    rows: list
    kappa: float
    e0: float

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def ids_positivity_probe(
    ids: IdsTable,
    e0: float,
    kappa: float,
    window_pairs: Sequence[tuple[float, float]],
    eps_grid: Sequence[float],
) -> PositivityProbe:
    """Check lower growth ``|N(E0 + a*eps) - N(E0 + b*eps)| >= C eps**(1+kappa)``.

    For every window pair the probe reports the increments over the epsilon
    grid and the best admissible constant (the minimum ratio); a row fails
    when no constant above 1e-6 works.  The log-log slope against
    epsilon is fitted whenever at least two increments are positive.
    """
    eps = np.sort(np.asarray(eps_grid, dtype=float))
    finite_increasing = np.all(np.isfinite(eps)) and np.all(np.diff(eps) > 0)
    if eps.ndim != 1 or len(eps) == 0 or eps[0] <= 0 or not finite_increasing:
        raise ValidationError("epsilon grid must be positive, finite and without repeats")
    if eps[0] < ids.resolution:
        raise ValidationError(
            f"smallest epsilon {eps[0]:g} is below the table resolution {ids.resolution:g}"
        )
    rows = []
    for a, b in window_pairs:
        upper = ids.evaluate(e0 + a * eps)
        lower = ids.evaluate(e0 + b * eps)
        inc = np.abs(upper - lower)
        ratios = inc / eps ** (1.0 + kappa)
        best = float(ratios.min())
        pos = inc > 0
        slope = None
        if pos.sum() >= 2:
            slope = float(np.polyfit(np.log(eps[pos]), np.log(inc[pos]), 1)[0])
        rows.append(
            PositivityRow(
                a=float(a),
                b=float(b),
                eps=eps,
                increments=inc,
                best_fit_c=best,
                passed=best > 1e-6,
                loglog_slope=slope,
            )
        )
    return PositivityProbe(rows=rows, kappa=kappa, e0=e0)


@dataclass
class RescaledSpectrum:
    """One realization's eigenvalues pushed through the counting function."""

    e0: float
    xi: np.ndarray
    volume_points: int


def rescale_eigenvalues(
    evals: np.ndarray,
    ids: IdsTable,
    e0: float,
    volume_points: int,
) -> RescaledSpectrum:
    """Map sorted eigenvalues to ``xi_j = |volume| * (N(E_j) - N(E_0))``."""
    evals = np.sort(np.asarray(evals, dtype=float))
    lo, hi = ids.energies[0], ids.energies[-1]
    if len(evals) and (evals[0] < lo or evals[-1] > hi):
        bad = evals[0] if evals[0] < lo else evals[-1]
        raise ValidationError(
            f"eigenvalue {float(bad)!r} falls outside the counting-function grid "
            f"[{float(lo)!r}, {float(hi)!r}]"
        )
    xi = volume_points * (ids.evaluate(evals) - ids.evaluate(e0))
    return RescaledSpectrum(e0=float(e0), xi=np.asarray(xi), volume_points=volume_points)


def _unit_windows(window) -> tuple[float, float, int]:
    """``(lo, hi, n)`` for a finite window ``[lo, hi]`` that holds ``n >= 1``
    unit subwindows; raises when it holds none."""
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("window ends must be finite")
    n_windows = int(math.floor(hi - lo + 1e-9))
    if n_windows < 1:
        raise ValidationError("window must span at least one unit length")
    return lo, hi, n_windows


# Margin, in units of the mean level spacing, by which the energy bracket of a
# window reaches past it: far above the rounding of ``xi`` (a few ulps times
# the volume, about 1e-12 at a thousand sites) and far below one eigenvalue.
_XI_MARGIN = 1e-6


def _energy_bracket(ids: IdsTable, e0: float, volume_points: int, lo: float, hi: float):
    """Grid energies ``(ea, eb)`` with every energy whose rescaled value lies
    in ``[lo, hi]`` strictly between them; -inf or inf where the grid ends
    before the window does."""
    xi = volume_points * (ids.values - ids.evaluate(e0))  # nondecreasing
    below = np.searchsorted(xi, lo - _XI_MARGIN, side="left") - 1
    above = np.searchsorted(xi, hi + _XI_MARGIN, side="right")
    ea = ids.energies[below] if below >= 0 else -np.inf
    eb = ids.energies[above] if above < len(xi) else np.inf
    return ea, eb


# A block's diagonals stay within this, and so, with at most ``n`` targets per
# chain, does each of the bisection's temporaries.
_BLOCK_BYTES = 1 << 20


def _converged(lower, upper) -> bool:
    scale = np.maximum(np.maximum(np.abs(lower), np.abs(upper)), 1.0)
    return bool(np.all(upper - lower <= 2 * np.spacing(scale)))


def _halve(diagonals, index, lower, upper) -> None:
    """One bisection step of every bracket, in place."""
    mid = 0.5 * (lower + upper)
    above = chain_count(diagonals, mid) > index
    np.copyto(upper, mid, where=above)
    np.copyto(lower, mid, where=~above)


def _bisect_eigenvalues(diagonals, index, lower, upper) -> np.ndarray:
    """Eigenvalue ``index[i, t]`` of chain ``i`` (counted from 0), given that
    it lies in ``[lower[i, t], upper[i, t]]``, by bisection on
    ``chain_count`` to about 2 ulps.  The chains' norms are at least 1, so
    the ulps are those of ``max(|lower|, |upper|, 1)``.

    Each part of the chains (``_fork_map``) bisects until its own brackets
    have converged.  A step moves each chain's brackets independently of the
    others, and one loop over all chains stops at the first step count where
    every bracket has converged, which is at least each part's own.  So
    stepping every part to the largest part's count, then going on as that
    loop would, takes every chain through the same steps, to the same bits."""

    def part(rows):
        lo, hi, steps = lower[rows].copy(), upper[rows].copy(), 0
        while not _converged(lo, hi):
            _halve(diagonals[rows], index[rows], lo, hi)
            steps += 1
        return rows, lo, hi, steps

    parts = _fork_map(part, len(diagonals))
    last = max(steps for *_, steps in parts)
    for rows, lo, hi, steps in parts:
        for _ in range(last - steps):
            _halve(diagonals[rows], index[rows], lo, hi)
    lo = np.concatenate([lo for _, lo, _, _ in parts])
    hi = np.concatenate([hi for _, _, hi, _ in parts])
    while not _converged(lo, hi):
        _halve(diagonals, index, lo, hi)
    return 0.5 * (lo + hi)


def _window_eigenvalues(diagonals: np.ndarray, ea: float, eb: float) -> list:
    """Per chain, its eigenvalues in ``[ea, eb)`` and the first one at or
    above ``eb``: indices ``nu(ea)`` through ``nu(eb)``, where ``nu`` is the
    chain's ``chain_count``."""
    b, n = diagonals.shape
    ec = eb + (eb - ea)  # [eb, ec) holds about as many eigenvalues as [ea, eb)
    start, end, beyond = chain_count(diagonals, np.tile([ea, eb, ec], (b, 1))).T
    stop = np.minimum(end + 1, n)
    k = max(int(np.max(stop - start)), 0)
    index = np.minimum(start[:, None] + np.arange(k), stop[:, None] - 1)
    below_eb = index < end[:, None]
    # Gershgorin bounds enclose every eigenvalue of a chain with hopping -1;
    # ec bounds the first one at or above eb whenever [eb, ec) holds one
    low = np.maximum(diagonals.min(axis=1) - 2.0, ea)[:, None]
    high = diagonals.max(axis=1) + 2.0
    high = np.where(beyond > end, np.minimum(high, ec), high)[:, None]
    evals = _bisect_eigenvalues(
        diagonals, index,
        np.where(below_eb, low, eb), np.where(below_eb, np.minimum(high, eb), high),
    )
    return [evals[i, : stop[i] - start[i]] for i in range(b)]


def sample_rescaled_spectra(
    model: AlloyModel,
    volume: FiniteVolume,
    ids: IdsTable,
    e0: float,
    n_realizations: int,
    master_seed: int,
    window: Optional[tuple[float, float]] = None,
) -> list:
    """Draw independent spectra and rescale each around the reference energy.

    Without ``window`` each ``xi`` holds the whole rescaled spectrum.  With
    ``window = (lo, hi)`` on a chain of more than one site, it holds a
    contiguous slice of it: every point in ``[lo, hi]`` and the first point
    above the last of them, which is all ``poisson_statistics`` reads with
    that window, plus any points within about one grid step of the IDS
    table outside the window.  Only those eigenvalues are computed, by
    bisection on ``chain_count`` across a block of realizations, so the
    grid-range check of ``rescale_eigenvalues`` covers them alone.
    Realization ``r`` draws its field from stream ``r`` either way.
    """
    n = len(volume)
    if window is None or not volume.is_chain or n == 1:
        spectra = _spectra(model, volume, n_realizations, master_seed)
        return [rescale_eigenvalues(evals, ids, e0, n) for evals in spectra]
    lo, hi, _ = _unit_windows(window)
    ea, eb = _energy_bracket(ids, e0, n, lo, hi)
    size = max(1, _BLOCK_BYTES // (8 * n))
    out = []
    for first in range(0, n_realizations, size):
        rows = range(first, min(first + size, n_realizations))
        diagonals = np.empty((len(rows), n), order="F")  # one site per column
        for i, r in enumerate(rows):
            real = sample_field(model.potential, model.measure, volume, master_seed, r)
            diagonals[i] = model.lam * np.asarray(real.field, dtype=float)
        out += [
            rescale_eigenvalues(evals, ids, e0, n)
            for evals in _window_eigenvalues(diagonals, ea, eb)
        ]
    return out


@dataclass
class PoissonReport:
    """Desk-scale signatures of Poisson behavior for rescaled eigenvalues."""

    window: tuple[float, float]
    n_realizations: int
    n_windows: int
    count_mean: float
    count_variance: float
    variance_ratio: float
    count_histogram: list
    chi_square: float
    chi_square_dof: int
    chi_square_pvalue: float
    n_gaps: int
    ks_statistic: float
    ks_critical_1pct: float
    gap_bin_edges: np.ndarray
    gap_density: np.ndarray
    gap_reference: np.ndarray
    warnings: list = field(default_factory=list)

    @property
    def poissonian(self) -> bool:
        return (
            0.8 <= self.variance_ratio <= 1.2 and self.ks_statistic < self.ks_critical_1pct
        )

    def gap_histogram_to_csv(self, path) -> None:
        edges = self.gap_bin_edges
        write_csv(
            path, ["gap_left", "gap_right", "density", "exp1_reference"],
            zip(edges[:-1], edges[1:], self.gap_density, self.gap_reference),
        )

    def to_dict(self) -> dict:
        """JSON-ready summary: every field but the gap histogram arrays,
        plus the ``poissonian`` verdict."""
        out = asdict(self)
        for name in ("gap_bin_edges", "gap_density", "gap_reference"):
            del out[name]
        return {**out, "poissonian": self.poissonian}


def _ks_exponential(gaps: np.ndarray) -> float:
    """One-sample KS statistic of the gaps against the unit exponential."""
    x = np.sort(gaps)
    n = len(x)
    cdf = 1.0 - np.exp(-x)
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))


# Fewest rescaled spectra the statistics accept.
_MIN_REALIZATIONS = 200


def poisson_statistics(
    spectra: Sequence[RescaledSpectrum],
    window: tuple[float, float] = (-5.0, 5.0),
    bin_width: float = 0.25,
) -> PoissonReport:
    """Count, gap, and histogram statistics of rescaled eigenvalues.

    A realization contributes the points falling inside ``window``.  Unit
    subwindows give the count mean/variance (both near 1 for a Poisson
    process with unit intensity).  Gap statistics pool every spacing whose
    left endpoint lies in the window, following the right neighbor beyond
    the window edge when needed: dropping edge-straddling spacings would
    length-bias the sample against long gaps by a factor of order one over
    the window length, visibly above the 1% KS band.  The pooled gaps are
    compared against Exp(1) by a Kolmogorov-Smirnov statistic and the
    unit-window count histogram against the Poisson(1) law by chi-square
    with tail bins merged to expected count at least 5.
    """
    if len(spectra) < _MIN_REALIZATIONS:
        raise ValidationError(
            f"need at least {_MIN_REALIZATIONS} realizations, got {len(spectra)}"
        )
    lo, hi, n_windows = _unit_windows(window)
    if not 0 < bin_width < math.inf:
        raise ValidationError("bin width must be positive and finite")

    counts = np.empty((len(spectra), n_windows), dtype=int)
    gaps = []
    empty = 0
    for i, rescaled in enumerate(spectra):
        xi = np.sort(rescaled.xi)
        inside = xi[(xi >= lo) & (xi < lo + n_windows)]
        if len(inside) == 0:
            empty += 1
        edges = lo + np.arange(n_windows + 1)
        counts[i] = np.histogram(inside, bins=edges)[0]
        if len(xi) >= 2:
            spacings = np.diff(xi)
            left_in = (xi[:-1] >= lo) & (xi[:-1] < lo + n_windows)
            if np.any(left_in):
                gaps.append(spacings[left_in])
    warnings = []
    if empty > 0.5 * len(spectra):
        warnings.append(
            f"window empty in {empty}/{len(spectra)} realizations; statistics are thin"
        )

    pooled = counts.ravel()
    mean = float(pooled.mean())
    var = float(pooled.var(ddof=1))
    ratio = var / mean if mean > 0 else math.inf

    # chi-square of the count histogram against Poisson(1), merging the tail
    kmax = int(pooled.max())
    n_pool = len(pooled)
    # Poisson(1) pmf and tail, and the chi-square tail below, in the scipy.special
    # forms scipy.stats evaluates, so the statistics match it bit for bit;
    # imported here, not at module top, so that runs without them skip the import
    from scipy.special import chdtrc, gammaln, pdtrc, xlogy

    expected = [n_pool * np.exp(xlogy(k, 1.0) - gammaln(k + 1) - 1.0) for k in range(kmax + 1)]
    tail = n_pool * pdtrc(kmax, 1.0)
    observed = [int(np.sum(pooled == k)) for k in range(kmax + 1)]
    expected[-1] += tail
    while len(expected) > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected.pop()
        observed.pop()
    chi2 = float(
        sum((o - e) ** 2 / e for o, e in zip(observed, expected) if e > 0)
    )
    dof = max(len(expected) - 1, 1)
    pvalue = float(chdtrc(dof, chi2))
    histogram = [
        [k, observed[k], expected[k]] for k in range(len(observed))
    ]

    if gaps:
        gaps_arr = np.concatenate(gaps)
    else:
        gaps_arr = np.empty(0)
        warnings.append("no consecutive pairs inside the window; gap statistics empty")
    n_gaps = len(gaps_arr)
    ks = _ks_exponential(gaps_arr) if n_gaps else math.nan
    ks_crit = KS_COEFF_1PCT / math.sqrt(n_gaps) if n_gaps else math.nan

    gmax = float(gaps_arr.max()) if n_gaps else 1.0
    edges = np.arange(0.0, gmax + bin_width, bin_width)
    if len(edges) < 2:
        edges = np.array([0.0, bin_width])
    density = np.histogram(gaps_arr, bins=edges, density=True)[0] if n_gaps else np.zeros(
        len(edges) - 1
    )
    centers = 0.5 * (edges[:-1] + edges[1:])
    reference = np.exp(-centers)

    return PoissonReport(
        window=(lo, hi),
        n_realizations=len(spectra),
        n_windows=n_windows,
        count_mean=mean,
        count_variance=var,
        variance_ratio=ratio,
        count_histogram=histogram,
        chi_square=chi2,
        chi_square_dof=dof,
        chi_square_pvalue=pvalue,
        n_gaps=n_gaps,
        ks_statistic=ks,
        ks_critical_1pct=ks_crit,
        gap_bin_edges=edges,
        gap_density=density,
        gap_reference=reference,
        warnings=warnings,
    )
