"""Quadrature checks for inverse moments and reverse Hölder ratios.

Both integrals carry power-law singularities (``|x - b|**-s`` at the probe
point, ``|Q2|**-s`` at real denominator roots), so the quadrature either
absorbs the power by substitution or hands the singular abscissae to the
adaptive rule explicitly.  Divergent configurations are detected up front
from the root multiplicities rather than discovered as quadrature blowups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonintegrableError, NumericalError, ValidationError
from .measures import CouplingMeasure, declared_holder, holder_parameters

__all__ = [
    "InverseMomentCheck",
    "inverse_moment_check",
    "ReverseHolderRatio",
    "reverse_holder_ratio",
]

_QUAD_TOL = 1e-10


@dataclass
class InverseMomentCheck:
    """Both sides of the inverse-moment bound and the slack between them."""

    integral: float
    bound: float
    margin: float
    s: float
    b: float
    alpha: float
    c1: float
    abs_error: float

    @property
    def holds(self) -> bool:
        return self.integral <= self.bound + 1e-9


def _finite_window(measure: CouplingMeasure) -> tuple[float, float]:
    lo, hi = measure.support
    if math.isfinite(lo) and math.isfinite(hi):
        return lo, hi
    # gaussian tails: 10 standard deviations carry ~1e-23 mass, far below
    # the quadrature tolerance
    mean = measure.params["mean"]
    sd = math.sqrt(measure.params["variance"])
    return mean - 10 * sd, mean + 10 * sd


def _quad(f, a, b, points=None) -> tuple[float, float]:
    # imported here, not at module top: scipy.integrate (and the scipy.optimize
    # it pulls in) would otherwise load on every run, and only the quadrature
    # checks use it
    from scipy import integrate

    if a >= b:
        return 0.0, 0.0
    kwargs: dict = {"epsabs": _QUAD_TOL, "epsrel": _QUAD_TOL, "limit": 300}
    if points:
        inside = [p for p in points if a < p < b]
        if inside:
            kwargs["points"] = inside
    out = integrate.quad(f, a, b, full_output=1, **kwargs)
    value, err = out[0], out[1]
    if len(out) > 3:
        raise NumericalError(f"quadrature did not converge: {out[3].strip()} (last value {value!r})")
    if not math.isfinite(value):
        raise NumericalError(f"quadrature diverged (value {value!r})")
    return value, err


def inverse_moment_check(
    measure: CouplingMeasure,
    s: float,
    b: float,
    alpha: float | None = None,
    c1: float | None = None,
) -> InverseMomentCheck:
    """Compare ``int |x - b|**-s dmu`` against ``C1**(s/alpha) * alpha/(alpha-s)``.

    The pair ``(alpha, c1)`` defaults to the measure's declared Hölder
    parameters and is re-validated on a grid before use.  Purely atomic
    measures never pass that validation (an atom keeps fixed mass in
    arbitrarily small windows), so they are rejected here as well.  The
    integral splits at ``b`` and substitutes ``x = b + t**(1/(1-s))`` on
    each side, which turns the integrand into the plain density along the
    substituted path (the power cancels exactly), so the adaptive rule sees
    a smooth function.
    """
    if alpha is None or c1 is None:
        declared_alpha, declared_c1 = declared_holder(measure)
        alpha = declared_alpha if alpha is None else alpha
        c1 = declared_c1 if c1 is None else c1
    if not 0 < s < alpha:
        raise ValidationError("need 0 < s < alpha")
    check = holder_parameters(measure, alpha=alpha, c1=c1)
    if not check.passed:
        raise ValidationError(
            f"(alpha={alpha!r}, c1={c1!r}) fails the window-mass check at {check.witness!r}"
        )
    bound = c1 ** (s / alpha) * alpha / (alpha - s)

    lo, hi = _finite_window(measure)
    power = 1.0 / (1.0 - s)
    scale = 1.0 / (1.0 - s)
    total = 0.0
    err_total = 0.0
    if b < hi:
        a0 = max(b, lo)

        def right(t):
            return scale * measure.pdf(b + t**power)

        v, e = _quad(right, (a0 - b) ** (1.0 - s), (hi - b) ** (1.0 - s))
        total += v
        err_total += e
    if b > lo:
        b0 = min(b, hi)

        def left(t):
            return scale * measure.pdf(b - t**power)

        v, e = _quad(left, (b - b0) ** (1.0 - s), (b - lo) ** (1.0 - s))
        total += v
        err_total += e
    return InverseMomentCheck(
        integral=total, bound=bound, margin=bound - total,
        s=s, b=b, alpha=alpha, c1=c1, abs_error=err_total,
    )


@dataclass
class ReverseHolderRatio:
    """``sqrt(E |Q1/Q2|**2s) / E |Q1/Q2|**s`` with the moments that built it."""

    ratio: float
    moment_2s: float
    moment_s: float
    s: float
    singular_points: list


def _real_roots_with_multiplicity(coeffs: np.ndarray) -> list[tuple[float, int]]:
    """Cluster the real roots of a polynomial given by highest-first coefficients."""
    trimmed = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if len(trimmed) <= 1:
        return []
    roots = np.roots(trimmed)
    scale = max(1.0, float(np.max(np.abs(roots))))
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-9 * scale)
    clusters: list[list[float]] = []
    for r in real:
        if clusters and abs(r - clusters[-1][-1]) <= 1e-6 * scale:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    return [(float(np.mean(c)), len(c)) for c in clusters]


def reverse_holder_ratio(
    q1_coeffs,
    q2_coeffs,
    measure: CouplingMeasure,
    s: float,
) -> ReverseHolderRatio:
    """Ratio of the root of the 2s-moment to the s-moment of ``|Q1/Q2|``.

    Coefficients are highest power first, as in ``numpy.polyval``.  Real
    roots of the denominator inside the support are integrable singularities
    as long as ``2 * s * multiplicity < 1`` (after cancelling any shared
    roots of the numerator); otherwise the configuration is rejected as
    nonintegrable before any quadrature runs.
    """
    q1 = np.trim_zeros(np.asarray(q1_coeffs, dtype=float), "f")
    q2 = np.trim_zeros(np.asarray(q2_coeffs, dtype=float), "f")
    if len(q2) == 0:
        raise ValidationError("denominator polynomial is identically zero")
    if len(q1) == 0:
        raise ValidationError("numerator polynomial is identically zero")
    if s <= 0:
        raise ValidationError("moment order s must be positive")

    roots2 = _real_roots_with_multiplicity(q2)
    roots1 = dict(_real_roots_with_multiplicity(q1))
    singular = []
    removable = []
    for r, mult in roots2:
        cancel = 0
        for r1, m1 in roots1.items():
            if abs(r1 - r) <= 1e-6 * max(1.0, abs(r)):
                cancel = m1
                break
        eff = mult - cancel
        if eff <= 0:
            removable.append(r)
            continue
        singular.append(r)
        if 2.0 * s * eff >= 1.0:
            raise NonintegrableError(
                f"denominator root {r!r} of effective multiplicity {eff} makes "
                f"|Q1/Q2|**{2 * s} nonintegrable"
            )

    def ratio_value(x):
        num = float(np.polyval(q1, x))
        den = float(np.polyval(q2, x))
        d1, d2 = q1, q2
        # an exact 0/0 hit on a cancelled root has a finite limit; climb
        # derivatives until the denominator separates from zero
        while den == 0.0 and num == 0.0 and len(d2) > 1:
            d1 = np.polyder(d1) if len(d1) > 1 else np.zeros(1)
            d2 = np.polyder(d2)
            num = float(np.polyval(d1, x))
            den = float(np.polyval(d2, x))
        if den == 0.0:
            return math.inf
        return abs(num / den)

    if not measure.has_density:
        weights = measure.atom_weights()
        for x in weights:
            if any(abs(x - r) <= 1e-12 for r in singular):
                raise NonintegrableError(f"atom at denominator root {x!r}")
        m2 = float(sum(w * ratio_value(x) ** (2 * s) for x, w in weights.items()))
        m1 = float(sum(w * ratio_value(x) ** s for x, w in weights.items()))
    else:
        a, b = _finite_window(measure)

        def f2(x):
            return ratio_value(x) ** (2 * s) * measure.pdf(x)

        def f1(x):
            return ratio_value(x) ** s * measure.pdf(x)

        # cancelled roots are removable but still good break points: the
        # split keeps the adaptive rule from sampling exactly on them
        pts = sorted(r for r in singular + removable if a < r < b)
        m2, _ = _quad(f2, a, b, points=pts)
        m1, _ = _quad(f1, a, b, points=pts)
    if m1 <= 0:
        raise NumericalError("s-moment vanished; ratio undefined")
    return ReverseHolderRatio(
        ratio=math.sqrt(m2) / m1,
        moment_2s=m2,
        moment_s=m1,
        s=s,
        singular_points=singular,
    )
