"""Single-site profiles and the constants derived from them.

The single-site profile ``u`` is a finitely supported real map on the lattice.
Everything the estimators need from it is computed here: sign decompositions
and the pinned index sets driving the conditioning certificate, the vanishing
order of the generating function at 1 (the volume-exponent correction of the
eigenvalue-counting bound), the l1 operator norm of the inverse convolution,
and the closed-form constants of the uniform fractional-moment bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import ConstantUndefinedError, NumericalError, ValidationError
from .lattice import as_point, build_volume
from .measures import CouplingMeasure, density_norms

__all__ = [
    "SingleSitePotential",
    "build_single_site",
    "exponential_profile_entries",
    "VanishingOrder",
    "vanishing_order",
    "ConvolutionInverseNorm",
    "convolution_inverse_norm",
    "UniformBoundConstants",
    "uniform_bound_constants",
]


@dataclass(frozen=True)
class SingleSitePotential:
    """Finitely supported single-site profile.

    ``points`` are lexicographically sorted lattice points (tuples of ints),
    ``values`` the matching nonzero coefficients.

    The sign-structure and certificate constants are cached on first read
    (the fields are frozen, so they cannot go stale); equality and hashing
    see the fields only.
    """

    dimension: int
    points: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(zip(self.points, self.values))

    def value_at(self, point) -> float:
        return self.as_dict().get(as_point(point, self.dimension), 0.0)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def total(self) -> float:
        """Coefficient sum (``u_bar`` in constant reports)."""
        return float(sum(self.values))

    @property
    def l1_norm(self) -> float:
        return float(sum(abs(v) for v in self.values))

    @cached_property
    def max_abs(self) -> float:
        return float(max(abs(v) for v in self.values))

    @cached_property
    def min_abs(self) -> float:
        return float(min(abs(v) for v in self.values))

    @property
    def diameter(self) -> int:
        """Largest l1 distance between two support points."""
        pts = np.asarray(self.points)
        if len(pts) == 1:
            return 0
        return int(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).max())

    # -- one-dimensional sign structure -------------------------------------

    @cached_property
    def contiguous_from_zero(self) -> bool:
        """True when d = 1 and the support is exactly {0, ..., n-1}."""
        if self.dimension != 1:
            return False
        ks = sorted(p[0] for p in self.points)
        return ks == list(range(len(ks)))

    @cached_property
    def support_pos(self) -> tuple[int, ...]:
        if self.dimension != 1:
            raise ValidationError("sign decomposition is defined for d = 1 profiles")
        return tuple(p[0] for p, v in zip(self.points, self.values) if v > 0)

    @cached_property
    def support_neg(self) -> tuple[int, ...]:
        if self.dimension != 1:
            raise ValidationError("sign decomposition is defined for d = 1 profiles")
        return tuple(p[0] for p, v in zip(self.points, self.values) if v < 0)

    @cached_property
    def positive_sum(self) -> float:
        """Sum of the positive coefficients (top of the field's support)."""
        return float(sum(v for v in self.values if v > 0))

    @cached_property
    def pinned_top(self) -> Optional[tuple[int, ...]]:
        """Indices whose couplings a top-band event pins near the upper
        support end; ``None`` unless the support is {0, ..., n-1} in d = 1.

        With P the positive sign set and n the support size, the set is P+1
        when n-1 is not in P, and ((P+1) within the support) plus {0} when it
        is: the right band event pins coupling 0 in that case.
        """
        if not self.contiguous_from_zero:
            return None
        n = self.n_points
        pos = set(self.support_pos)
        shifted = {k + 1 for k in pos}
        if (n - 1) in pos:
            pinned = (shifted & set(range(n))) | {0}
        else:
            pinned = shifted
        return tuple(sorted(pinned))

    @cached_property
    def pinned_bottom(self) -> Optional[tuple[int, ...]]:
        """Complement of :attr:`pinned_top` inside the support."""
        top = self.pinned_top
        if top is None:
            return None
        return tuple(sorted(set(range(self.n_points)) - set(top)))

    @cached_property
    def certificate_center(self) -> float:
        """Coefficient mass on the top-pinned set."""
        top = self.pinned_top
        if top is None:
            raise ValidationError("certificate constants need a {0..n-1} support in d = 1")
        lookup = self.as_dict()
        return float(sum(lookup[(k,)] for k in top))

    @cached_property
    def certificate_slope(self) -> float:
        """Interval half-width per unit band width: n * max|u| / min|u|."""
        if not self.contiguous_from_zero:
            raise ValidationError("certificate constants need a {0..n-1} support in d = 1")
        return self.n_points * self.max_abs / self.min_abs


def build_single_site(dimension: int, entries: Iterable[tuple]) -> SingleSitePotential:
    """Validate and sort a profile given as ``(point, value)`` pairs.

    A ``{point: value}`` mapping works too.  Values must be finite and
    nonzero (the support is exactly the given points); duplicate points are
    rejected.
    """
    if dimension < 1:
        raise ValidationError("dimension must be a positive integer")
    if isinstance(entries, Mapping):
        entries = entries.items()
    seen: dict[tuple[int, ...], float] = {}
    for point, value in entries:
        pt = as_point(point, dimension)
        val = float(value)
        if not math.isfinite(val) or val == 0.0:
            raise ValidationError(f"profile value at {pt} must be finite and nonzero, got {value!r}")
        if pt in seen:
            raise ValidationError(f"duplicate support point {pt}")
        seen[pt] = val
    if not seen:
        raise ValidationError("profile support must be nonempty")
    pts = tuple(sorted(seen))
    return SingleSitePotential(
        dimension=dimension,
        points=pts,
        values=tuple(seen[p] for p in pts),
    )


def exponential_profile_entries(
    dimension: int, amplitude: float, rate: float, cutoff: float
) -> list[tuple[tuple[int, ...], float]]:
    """Entries of ``amplitude * exp(-rate * |k|_1)`` truncated at ``cutoff``.

    Helper for building the exponentially decaying profiles some bounds
    assume; pass the result to :func:`build_single_site`.
    """
    if amplitude <= 0 or rate <= 0 or not 0 < cutoff <= amplitude:
        raise ValidationError("need amplitude, rate > 0 and 0 < cutoff <= amplitude")
    radius = int(math.floor(math.log(amplitude / cutoff) / rate))
    entries = []
    for pt in iter_product(range(-radius, radius + 1), repeat=dimension):
        val = amplitude * math.exp(-rate * sum(abs(c) for c in pt))
        if val >= cutoff:
            entries.append((pt, val))
    return entries


# ---------------------------------------------------------------------------
# Vanishing order of the generating function at 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VanishingOrder:
    """First nonvanishing derivative of ``F(z) = sum_k u(-k) z^k`` at 1."""

    order: int
    index: tuple[int, ...]
    derivative: float


def _falling_factorial(m: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= m - i
    return out


def vanishing_order(u: SingleSitePotential, max_order: int = 8) -> VanishingOrder:
    """Smallest total derivative order of the generating function that does
    not vanish at 1, scanned diagonally over multi-indices.

    The order is 0 exactly when the coefficient sum is nonzero.  Derivatives
    are evaluated exactly: the weight of ``u(-k)`` in the ``I``-th derivative
    is the product of integer falling factorials of the components of ``k``.
    """
    pts = np.asarray(u.points, dtype=int)
    vals = np.asarray(u.values)
    neg = -pts  # F collects u(-k) at monomial k
    for order in range(max_order + 1):
        for index in _indices_of_order(u.dimension, order):
            weights = np.ones(len(neg))
            for axis, j in enumerate(index):
                weights *= [_falling_factorial(int(m), j) for m in neg[:, axis]]
            val = float(np.dot(vals, weights))
            scale = float(np.dot(np.abs(vals), np.abs(weights)))
            if abs(val) > 1e-12 * max(1.0, scale):
                return VanishingOrder(order, index, val)
    raise NumericalError(
        f"all generating-function derivatives vanish at 1 up to order {max_order}"
    )


def _indices_of_order(dimension: int, order: int):
    if dimension == 1:
        yield (order,)
        return
    for head in range(order + 1):
        for tail in _indices_of_order(dimension - 1, order - head):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Inverse convolution norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvolutionInverseNorm:
    """Converged truncation of the l1 norm of the inverse convolution."""

    value: float
    radius: int
    history: tuple[float, ...]
    symbol_min: float


def _symbol_min(u: SingleSitePotential, n_grid: int) -> float:
    thetas = np.linspace(0.0, 2 * math.pi, n_grid, endpoint=False)
    grids = np.meshgrid(*([thetas] * u.dimension), indexing="ij")
    acc = np.zeros(grids[0].shape, dtype=complex)
    for pt, val in zip(u.points, u.values):
        phase = np.zeros(grids[0].shape)
        for axis, c in enumerate(pt):
            phase = phase + c * grids[axis]
        acc += val * np.exp(1j * phase)
    return float(np.abs(acc).min())


def convolution_inverse_norm(u: SingleSitePotential) -> ConvolutionInverseNorm:
    """l1 operator norm of the inverse of the convolution by ``u``.

    The convolution operator has matrix ``u(j - k)``; its inverse is bounded
    on l1 exactly when the symbol ``sum_k u(k) exp(i k.theta)`` never
    vanishes.  The norm is approximated on centered boxes of radius 4, 8,
    16, ... (at most 6000 points) until two successive radii agree to 1e-6
    (relative).

    Raises
    ------
    ValidationError
        If not even the radius-4 box fits in 6000 points (dimension 4 and up).
    NumericalError
        If the symbol vanishes somewhere on the torus (no bounded inverse),
        or the truncations have not converged at the largest feasible radius
        (the last two iterates are reported).
    """
    radii, r = [], 4
    while (2 * r + 1) ** u.dimension <= 6000:
        radii.append(r)
        r *= 2
    if not radii:
        raise ValidationError(
            f"no truncation box of radius 4 fits 6000 points in dimension {u.dimension}"
        )
    sym_min = _symbol_min(u, n_grid=256 if u.dimension == 1 else 64)
    if sym_min <= 1e-9 * max(1.0, u.l1_norm):
        raise NumericalError(
            f"convolution symbol reaches {sym_min:.3e}: no bounded l1 inverse"
        )
    history: list[float] = []
    for radius in radii:
        pts = build_volume(u.dimension, radius).points
        diff = pts[:, None, :] - pts[None, :, :]
        mat = np.zeros((len(pts), len(pts)))
        for pt, val in zip(u.points, u.values):
            mat[np.all(diff == np.asarray(pt), axis=2)] = val
        inv = np.linalg.inv(mat)
        history.append(float(np.abs(inv).sum(axis=0).max()))
        if len(history) >= 2 and abs(history[-1] - history[-2]) <= 1e-6 * max(1.0, history[-1]):
            return ConvolutionInverseNorm(history[-1], radius, tuple(history), sym_min)
    raise NumericalError(
        "inverse convolution norm did not converge: last iterates "
        f"{history[-2]:.9g} -> {history[-1]:.9g} at radius {radii[-1]}"
    )


# ---------------------------------------------------------------------------
# Constants of the uniform fractional-moment bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformBoundConstants:
    """Closed-form constants of the uniform Green-moment bound.

    ``bound(lam)`` evaluates ``coefficient / lam**s``, the volume- and
    energy-uniform bound on the ``s``-th absolute Green-function moment.
    """

    rate: float
    product_constant: float
    coefficient: float
    s: float
    u_total: float
    grad_l1: float

    def bound(self, lam: float) -> float:
        if lam <= 0:
            raise ValidationError("disorder strength must be positive")
        return self.coefficient / lam**self.s


def _rate_constants(u: SingleSitePotential) -> tuple[float, float]:
    """``c = log(1 + total / (2 l1)) / diameter`` and ``C = ((e^c + 1)/(e^c - 1))**d``."""
    rate = math.log(1.0 + u.total / (2.0 * u.l1_norm)) / u.diameter
    return rate, ((math.exp(rate) + 1.0) / (math.exp(rate) - 1.0)) ** u.dimension


def uniform_bound_constants(
    u: SingleSitePotential, s: float, measure: CouplingMeasure
) -> UniformBoundConstants:
    """Constants ``(c, C, coefficient)`` of the uniform fractional-moment bound.

    Parameters
    ----------
    u : SingleSitePotential
        Profile with positive coefficient sum and at least two support points.
    s : float
        Moment order, strictly between 0 and 1.
    measure : CouplingMeasure
        Source of the density-derivative norm ``grad_l1``.

    Notes
    -----
    ``c = log(1 + total / (2 l1)) / diameter`` and
    ``C = ((e^c + 1)/(e^c - 1))**d``; the bound coefficient is
    ``(8 / total**s) * (s**-s / (1 - s)) * grad_l1**s * C**s``.
    """
    if not 0 < s < 1:
        raise ValidationError("moment order s must lie in (0, 1)")
    if u.total <= 0:
        raise ValidationError("bound constants need a positive coefficient sum")
    if u.diameter == 0:
        raise ConstantUndefinedError(
            "rate constant undefined for a single-point support (diameter 0)"
        )
    grad_l1 = density_norms(measure).grad_l1
    if not math.isfinite(grad_l1):
        raise ValidationError("density derivative norm is not finite for this measure")
    rate, prod = _rate_constants(u)
    coeff = (8.0 / u.total**s) * (s**-s / (1.0 - s)) * grad_l1**s * prod**s
    return UniformBoundConstants(rate, prod, coeff, s, u.total, grad_l1)
