"""Coupling measures: the common law of the i.i.d. lattice couplings.

A :class:`CouplingMeasure` bundles sampling, density, CDF and interval mass
for one of five kinds: ``uniform``, ``gaussian``, ``bernoulli``, ``cosine``
(raised-cosine on an interval, the smooth compactly supported choice) and
``grid`` (tabulated density).  Derived quantities used by the spectral bounds
live here as well: L1 norms of the density derivatives, total variation and
the Hoelder continuity check of the measure itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NoDensityError, ValidationError

__all__ = [
    "CouplingMeasure",
    "DensityNorms",
    "HolderCheck",
    "density_norms",
    "declared_holder",
    "holder_parameters",
]

_KINDS = ("uniform", "gaussian", "bernoulli", "cosine", "grid")
_TINY = np.finfo(float).tiny  # floors a divisor that is 0 only where its dividend is


@dataclass(frozen=True)
class CouplingMeasure:
    """Law of a single coupling.

    Construct through the kind-specific classmethods rather than directly;
    they validate parameters and normalize representations.
    """

    kind: str
    params: dict = field(default_factory=dict)

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, lo: float = 0.0, hi: float = 1.0) -> "CouplingMeasure":
        """Uniform law on ``[lo, hi]``."""
        if not -math.inf < lo < hi < math.inf:
            raise ValidationError("uniform measure needs finite ends with hi > lo")
        return cls("uniform", {"lo": float(lo), "hi": float(hi)})

    @classmethod
    def gaussian(cls, mean: float = 0.0, variance: float = 1.0) -> "CouplingMeasure":
        """Normal law with the given mean and variance."""
        if not (math.isfinite(mean) and 0 < variance < math.inf):
            raise ValidationError("gaussian measure needs a finite mean and variance > 0")
        return cls("gaussian", {"mean": float(mean), "variance": float(variance)})

    @classmethod
    def bernoulli(cls, p: float, levels: Sequence[float] = (0.0, 1.0)) -> "CouplingMeasure":
        """Two-point law: ``levels[1]`` with probability ``p``, else ``levels[0]``."""
        if not 0.0 <= p <= 1.0:
            raise ValidationError("bernoulli probability must lie in [0, 1]")
        if len(levels) != 2 or not all(map(math.isfinite, levels)):
            raise ValidationError("bernoulli needs exactly two finite levels")
        return cls("bernoulli", {"p": float(p), "levels": (float(levels[0]), float(levels[1]))})

    @classmethod
    def cosine(cls, lo: float = 0.0, hi: float = 1.0) -> "CouplingMeasure":
        """Raised-cosine density ``(1 - cos(2 pi t)) / w`` on ``[lo, hi]``.

        Smooth, compactly supported, with exact derivative norms; the default
        smooth stand-in wherever a bounded measure with an integrable density
        derivative is required.
        """
        if not -math.inf < lo < hi < math.inf:
            raise ValidationError("cosine measure needs finite ends with hi > lo")
        return cls("cosine", {"lo": float(lo), "hi": float(hi)})

    @classmethod
    def from_grid(cls, x: Sequence[float], density: Sequence[float]) -> "CouplingMeasure":
        """Tabulated density on a sorted grid, trapezoid-normalized.

        The tabulated values must integrate to 1 within 1e-8; the sampler and
        CDF treat the density as piecewise linear between knots and zero
        outside.
        """
        xa = np.asarray(x, dtype=float)
        da = np.asarray(density, dtype=float)
        if xa.ndim != 1 or xa.shape != da.shape or xa.size < 3:
            raise ValidationError("grid measure needs matching 1-d arrays with >= 3 knots")
        if np.any(np.diff(xa) <= 0):
            raise ValidationError("grid knots must be strictly increasing")
        if np.any(da < 0):
            raise ValidationError("grid density must be non-negative")
        total = np.trapezoid(da, xa)
        # written so that a NaN total, from any non-finite knot or value, fails
        if not abs(total - 1.0) <= 1e-8:
            raise ValidationError(f"grid density integrates to {total!r}, expected 1 within 1e-8")
        return cls("grid", {"x": tuple(map(float, xa)), "density": tuple(map(float, da))})

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown measure kind {self.kind!r}")

    # -- basic structure ---------------------------------------------------

    @property
    def has_density(self) -> bool:
        return self.kind != "bernoulli"

    @property
    def support(self) -> tuple[float, float]:
        """Closed support interval (infinite for gaussian)."""
        p = self.params
        if self.kind in ("uniform", "cosine"):
            return p["lo"], p["hi"]
        if self.kind == "gaussian":
            return -math.inf, math.inf
        if self.kind == "bernoulli":
            return min(p["levels"]), max(p["levels"])
        x = p["x"]
        return x[0], x[-1]

    def mean(self) -> float:
        p = self.params
        if self.kind in ("uniform", "cosine"):
            return 0.5 * (p["lo"] + p["hi"])
        if self.kind == "gaussian":
            return p["mean"]
        if self.kind == "bernoulli":
            lo, hi = p["levels"]
            return (1.0 - p["p"]) * lo + p["p"] * hi
        x = np.asarray(p["x"])
        d = np.asarray(p["density"])
        return float(np.trapezoid(x * d, x))

    # -- density / CDF -----------------------------------------------------

    def pdf(self, x) -> np.ndarray:
        """Density evaluated pointwise (raises for atomic kinds)."""
        if not self.has_density:
            raise NoDensityError("bernoulli measure has no density")
        xa = np.asarray(x, dtype=float)
        p = self.params
        if self.kind == "uniform":
            w = p["hi"] - p["lo"]
            return np.where((xa >= p["lo"]) & (xa <= p["hi"]), 1.0 / w, 0.0)
        if self.kind == "gaussian":
            s2 = p["variance"]
            return np.exp(-0.5 * (xa - p["mean"]) ** 2 / s2) / math.sqrt(2 * math.pi * s2)
        if self.kind == "cosine":
            w = p["hi"] - p["lo"]
            t = (xa - p["lo"]) / w
            inside = (t >= 0) & (t <= 1)
            return np.where(inside, (1.0 - np.cos(2 * math.pi * np.clip(t, 0, 1))) / w, 0.0)
        return np.interp(xa, p["x"], p["density"], left=0.0, right=0.0)

    def cdf(self, x) -> np.ndarray:
        xa = np.asarray(x, dtype=float)
        p = self.params
        if self.kind == "uniform":
            return np.clip((xa - p["lo"]) / (p["hi"] - p["lo"]), 0.0, 1.0)
        if self.kind == "gaussian":
            # imported here, not at module top: scipy.special would otherwise
            # load on every run, and only the Gaussian CDF needs it here
            from scipy.special import ndtr

            return ndtr((xa - p["mean"]) / math.sqrt(p["variance"]))
        if self.kind == "cosine":
            w = p["hi"] - p["lo"]
            t = np.clip((xa - p["lo"]) / w, 0.0, 1.0)
            return t - np.sin(2 * math.pi * t) / (2 * math.pi)
        if self.kind == "bernoulli":
            out = np.zeros_like(xa, dtype=float)
            for lv, weight in self.atom_weights().items():
                out += np.where(xa >= lv, weight, 0.0)
            return out
        x, cum, d, s = self._grid_cdf_knots()
        i = np.clip(np.searchsorted(x, xa, side="right") - 1, 0, len(d) - 1)
        tau = np.clip((xa - x[i]) / np.diff(x)[i], 0.0, 1.0)
        return np.minimum(cum[i] + tau * (d[i] + 0.5 * s[i] * tau), 1.0)

    def _atom_weight(self, level: float) -> float:
        p, (lo_lv, hi_lv) = self.params["p"], self.params["levels"]
        if lo_lv == hi_lv:
            return 1.0
        return p if level == hi_lv else 1.0 - p

    def atom_weights(self) -> dict:
        """Atoms as a ``{location: mass}`` dict; only atomic measures have them."""
        if self.has_density:
            raise NoDensityError(f"the {self.kind} measure has no atoms")
        return {lv: self._atom_weight(lv) for lv in set(self.params["levels"])}

    def _grid_cdf_knots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Knots, knot CDF and per-cell ``d``, ``s``: the CDF is ``cum[i] + d[i]
        tau + s[i] tau**2 / 2`` at the fraction ``tau`` of cell ``i``."""
        x = np.asarray(self.params["x"])
        d = np.asarray(self.params["density"])
        h = np.diff(x)
        seg = 0.5 * (d[1:] + d[:-1]) * h
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        return x, cum / cum[-1], d[:-1] * h / cum[-1], np.diff(d) * h / cum[-1]

    def interval_mass(self, a, b) -> np.ndarray:
        """Mass of the closed interval ``[a, b]`` (atom-aware)."""
        aa, bb = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        if self.kind == "bernoulli":
            out = np.zeros_like(aa, dtype=float)
            for lv in set(self.params["levels"]):
                out += np.where((aa <= lv) & (lv <= bb), self._atom_weight(lv), 0.0)
            return out
        return np.maximum(self.cdf(bb) - self.cdf(aa), 0.0)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. couplings using the supplied generator: one
        ``random()`` double each, or one standard normal for the gaussian."""
        return self._map_rows(self._fill_row(rng, np.empty(size)))

    # ``sample`` in two steps, so that a block of streams (``field.draw_fields``)
    # runs the first per stream, each generator filling one row, and the
    # second once over the block: every coupling is the same double either way.

    def _fill_row(self, rng: np.random.Generator, row: np.ndarray) -> np.ndarray:
        """Fill ``row`` from ``rng`` and return it: standard normals for the
        gaussian, uniforms on ``[0, 1)`` for every other kind."""
        if self.kind == "gaussian":
            rng.standard_normal(out=row)
        else:
            rng.random(out=row)
        return row

    def _map_rows(self, raw: np.ndarray) -> np.ndarray:
        """Couplings from ``_fill_row`` output of any shape, mapped elementwise
        in place and returned: the affine map, threshold or inverse CDF."""
        p = self.params
        if self.kind == "bernoulli":
            lo_lv, hi_lv = p["levels"]
            hit = raw < p["p"]
            raw.fill(lo_lv)
            raw[hit] = hi_lv
        elif self.kind == "gaussian":
            raw *= math.sqrt(p["variance"])
            raw += p["mean"]
        elif self.kind == "grid":
            x, cum, d, s = self._grid_cdf_knots()
            i = np.searchsorted(cum, raw, side="right") - 1
            r = raw - cum[i]
            # stable root of d tau + s tau**2 / 2 = r, floored at a zero-density end
            root = np.sqrt(np.maximum(d[i] * d[i] + 2.0 * s[i] * r, 0.0))
            tau = np.minimum(2.0 * r / np.maximum(d[i] + root, _TINY), 1.0)
            raw[...] = x[i] + tau * np.diff(x)[i]
        else:
            if self.kind == "cosine":
                # F(t) = t - sin(2 pi t) / (2 pi) = v on [0, 1/2], 1 - v above: F is
                # convex there and below 2 pi**2 t**3 / 3, so Newton from that cube
                # root overshoots once, then descends (cbrt would move SIMD-off bits).
                upper = raw > 0.5
                np.subtract(1.0, raw, out=raw, where=upper)
                t = np.float_power(raw * (3.0 / (2.0 * math.pi**2)), 1.0 / 3.0)
                for _ in range(4):
                    residual = t - np.sin(2 * math.pi * t) / (2 * math.pi) - raw
                    t -= residual / np.maximum(1.0 - np.cos(2 * math.pi * t), _TINY)
                raw[...] = np.where(upper, 1.0 - t, t)
            raw *= p["hi"] - p["lo"]
            raw += p["lo"]
        return raw


@dataclass(frozen=True)
class DensityNorms:
    """L1 norms of the density derivatives and total variation.

    ``hess_l1`` is ``inf`` when the distributional second derivative is not a
    finite measure (uniform), making bounds that consume it vacuous instead of
    silently wrong.  ``error`` carries the finite-difference error estimate
    for tabulated densities, ``None`` for closed forms.
    """

    grad_l1: float
    hess_l1: float
    total_variation: float
    error: Optional[float] = None


def density_norms(measure: CouplingMeasure) -> DensityNorms:
    """Return ``(||rho'||_1, ||rho''||_1, ||rho||_Var)`` for the measure.

    Closed forms for the analytic kinds; centered finite differences with
    Richardson extrapolation for tabulated densities.  Atomic kinds raise
    :class:`NoDensityError`.
    """
    p = measure.params
    if measure.kind == "uniform":
        w = p["hi"] - p["lo"]
        # BV reading: the derivative is two boundary jumps of height 1/w.
        return DensityNorms(2.0 / w, math.inf, 2.0 / w)
    if measure.kind == "gaussian":
        sigma = math.sqrt(p["variance"])
        grad = 2.0 / (sigma * math.sqrt(2 * math.pi))
        hess = 4.0 * math.exp(-0.5) / (sigma**2 * math.sqrt(2 * math.pi))
        return DensityNorms(grad, hess, grad)
    if measure.kind == "cosine":
        w = p["hi"] - p["lo"]
        return DensityNorms(4.0 / w, 8.0 * math.pi / w**2, 4.0 / w)
    if measure.kind == "bernoulli":
        raise NoDensityError("density norms undefined for an atomic measure")
    return _grid_density_norms(np.asarray(p["x"]), np.asarray(p["density"]))


def _grid_norm_pass(x: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    g = np.gradient(d, x)
    h = np.gradient(g, x)
    return float(np.trapezoid(np.abs(g), x)), float(np.trapezoid(np.abs(h), x))


def _grid_density_norms(x: np.ndarray, d: np.ndarray) -> DensityNorms:
    grad_f, hess_f = _grid_norm_pass(x, d)
    grad_c, hess_c = _grid_norm_pass(x[::2], d[::2])
    # Richardson step for the second-order centered scheme.
    grad = grad_f + (grad_f - grad_c) / 3.0
    hess = hess_f + (hess_f - hess_c) / 3.0
    err = max(abs(grad_f - grad_c), abs(hess_f - hess_c))
    tv = float(np.sum(np.abs(np.diff(d))) + abs(d[0]) + abs(d[-1]))
    return DensityNorms(grad, hess, tv, error=err)


@dataclass(frozen=True)
class HolderCheck:
    """Outcome of the interval-mass Hoelder verification."""

    alpha: float
    c1: float
    max_ratio: float
    passed: bool
    witness: Optional[tuple[float, float]] = None  # (t, eps) attaining max_ratio


def declared_holder(measure: CouplingMeasure) -> tuple[float, float]:
    """Analytic Hoelder parameters ``(alpha, C1)`` of the measure."""
    p = measure.params
    if measure.kind == "uniform":
        return 1.0, 2.0 / (p["hi"] - p["lo"])
    if measure.kind == "gaussian":
        return 1.0, 2.0 / math.sqrt(2 * math.pi * p["variance"])
    if measure.kind == "cosine":
        return 1.0, 4.0 / (p["hi"] - p["lo"])
    if measure.kind == "grid":
        return 1.0, 2.0 * max(p["density"])
    raise NoDensityError("an atomic measure is not Hoelder continuous for any alpha > 0")


def holder_parameters(
    measure: CouplingMeasure,
    *,
    alpha: Optional[float] = None,
    c1: Optional[float] = None,
) -> HolderCheck:
    """Verify ``mu([t - eps, t + eps]) <= C1 * eps**alpha`` on a grid.

    ``alpha``/``c1`` default to the measure's declared analytic values.  The
    grid is fixed: 241 centers across the support (the mean +- 6 sd for a
    gaussian) padded by a tenth of its width, and 25 geometric widths up to
    that width.  The check never raises on failure; it reports the maximal
    observed ratio and the witnessing ``(t, eps)`` so callers can decide.
    Atomic measures fail for every positive ``alpha`` (the ratio diverges at
    the atoms) and that is exactly what the returned witness shows.
    """
    if alpha is None or c1 is None:
        if measure.kind == "bernoulli":
            raise ValidationError("atomic measures need explicit alpha and c1 to test against")
        da, dc = declared_holder(measure)
        alpha = da if alpha is None else alpha
        c1 = dc if c1 is None else c1
    if alpha <= 0 or c1 <= 0:
        raise ValidationError("alpha and c1 must be positive")

    lo, hi = measure.support
    if math.isinf(lo) or math.isinf(hi):
        m, s = measure.params["mean"], math.sqrt(measure.params["variance"])
        lo, hi = m - 6 * s, m + 6 * s
    scale = hi - lo
    eps_grid = np.geomspace(1e-4 * scale, scale, 25)
    t_grid = np.linspace(lo - 0.1 * scale, hi + 0.1 * scale, 241)
    if measure.kind == "bernoulli":
        # a point mass w violates w <= c1 * eps**alpha once eps is small
        # enough; include that eps and the atoms so the witness is found
        w_min = min(measure.atom_weights().values())
        eps_star = (w_min / (2.0 * c1)) ** (1.0 / alpha)
        eps_grid = np.unique(np.concatenate([eps_grid, [eps_star]]))
        t_grid = np.unique(np.concatenate([t_grid, list(measure.params["levels"])]))

    t, eps = t_grid[:, None], eps_grid[None, :]
    ratios = measure.interval_mass(t - eps, t + eps) / eps**alpha
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    max_ratio = float(ratios[i, j])
    passed = max_ratio <= c1 * (1 + 1e-9)
    return HolderCheck(alpha, c1, max_ratio, passed, witness=(float(t[i, 0]), float(eps[0, j])))
