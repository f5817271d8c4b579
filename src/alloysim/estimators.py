"""Monte Carlo estimators for Green-function moments and eigenvalue counts.

Every estimator is a pure function of its arguments including
``(master_seed)``: realization ``r`` draws from stream ``r``, and retries
after a rejected draw (real energy hitting the spectrum) bump only the
attempt counter of that stream, so results are independent of evaluation
order and reproducible bit for bit.  Each realization is drawn once per
call: every interval, disorder strength or offset of a sweep is evaluated on
the same field.  Where the reduction cannot reject a draw, fields are drawn
in blocks of streams (``draw_fields``); where it can, each stream is drawn
and reduced on its own (``sample_field``), so a rejection redraws only that
stream.  Both give every field the same doubles.  Two routers pick the path
to the finite-volume operator.
``fractional_moment``, ``green_decay_profile``, ``minami_determinant`` and
``recursion_probe`` read resolvent entries through ``_green_rows``: the
batched tridiagonal kernel ``chain_green`` for a complex energy on a chain,
one ``green_column`` call per site and realization otherwise (slab by slab on
a d >= 2 box at a complex energy, densely on other volumes and at real
energies).  A dense solve at a real energy ``E`` first checks that no
eigenvalue lies within a tiny ``delta`` of ``E``: on a chain by two Sturm
counts, with no spectrum computed, elsewhere from the full spectrum.  The
chain kernel's fields come in blocks, the ``green_column`` calls' one stream
at a time.  ``wegner_count`` and ``two_level_probability`` read eigenvalue
counts through ``_count_rows``, one spectrum per field of a block.
``fvc_probability`` needs the whole resolvent and inverts each operator
densely, one stream at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .field import _MAX_ATTEMPTS, draw_fields, sample_field
from .lattice import (
    FiniteVolume,
    FiniteVolumeOperator,
    _check_not_in_spectrum,
    _finite_energy,
    as_point,
    assemble,
    chain_green,
    green_column,
    spectrum,
)
from .measures import density_norms
from .model import AlloyModel
from .potential import convolution_inverse_norm, uniform_bound_constants, vanishing_order
from .results import Estimate, write_csv

__all__ = [
    "fractional_moment",
    "DecayProfile",
    "green_decay_profile",
    "wegner_count",
    "minami_bound_constant",
    "minami_determinant",
    "TwoLevelResult",
    "two_level_probability",
    "RecursionRow",
    "RecursionProbe",
    "recursion_probe",
    "fvc_probability",
]


def _mean_estimate(values: np.ndarray, master_seed: int, metadata: dict) -> Estimate:
    n = len(values)
    std = float(np.std(values, ddof=1)) if n > 1 else 0.0
    return Estimate(
        value=float(np.mean(values)),
        stderr=std / math.sqrt(n),
        n_samples=n,
        master_seed=master_seed,
        metadata=metadata,
    )


class _InvariantViolation(NumericalError):
    """A per-draw invariant failed; fatal, never redrawn."""


def _check_count(n_samples: int) -> None:
    if n_samples < 1:
        raise ValidationError(f"need at least one realization, got n_samples = {n_samples}")


def _draw(model: AlloyModel, volume: FiniteVolume, master_seed: int, r: int, reduce):
    """``reduce(field)`` of stream ``r`` and the number of redraws it took.

    A ``NumericalError`` from the draw or its reduction redraws the stream
    with ``attempt + 1``, up to ``_MAX_ATTEMPTS`` attempts.
    """
    for attempt in range(_MAX_ATTEMPTS):
        try:
            real = sample_field(model.potential, model.measure, volume, master_seed, r, attempt)
            return reduce(real), attempt
        except _InvariantViolation:
            raise
        except NumericalError:
            pass
    raise NumericalError(f"realization {r} still singular after {_MAX_ATTEMPTS} redraws")


def _block_size(n: int) -> int:
    """Realizations per block on ``n`` sites: the chain kernel's complex
    ``(b, n)`` temporaries (about eight of them) stay within about 1 MB."""
    return max(1, (1 << 20) // (8 * 16 * n))


def _realizations(
    model: AlloyModel, volume: FiniteVolume, n_samples: int, master_seed: int, row
):
    """``row(real)`` for the realizations ``0 .. n_samples-1``, in order, and
    the number of redraws.

    Realization ``r`` draws from stream ``r`` and is reduced inside its draw
    (see ``_draw``), so a ``NumericalError`` from ``row`` redraws that stream.
    """
    _check_count(n_samples)
    out, redraws = [], 0
    for r in range(n_samples):
        value, k = _draw(model, volume, master_seed, r, row)
        out.append(value)
        redraws += k
    return out, redraws


def _block_realizations(
    model: AlloyModel, volume: FiniteVolume, n_samples: int, master_seed: int, block
):
    """``block(fields, first)`` over the realizations ``0 .. n_samples-1``,
    concatenated, and the number of redraws.

    The fields of ``_block_size(n)`` consecutive streams from ``first`` on
    are drawn at once by ``draw_fields``, each the field of ``sample_field``
    for its stream.  A failed draw redraws its stream there, but nothing
    ``block`` raises is redrawn, so it serves only reductions that cannot
    reject a draw.
    """
    _check_count(n_samples)
    size = _block_size(len(volume))
    out, redraws = [], 0
    for first in range(0, n_samples, size):
        fields, attempts = draw_fields(
            model.potential, model.measure, volume, master_seed, first,
            min(size, n_samples - first),
        )
        out.append(block(fields, first))
        redraws += int(attempts.sum())
    return np.concatenate(out), redraws


def _on_chain_kernel(volume: FiniteVolume, z: complex) -> bool:
    """Whether the resolvent at ``z`` takes the batched chain kernel.

    Off the real axis its pivots never vanish; at a real energy the scalar
    path keeps the guard against hitting the spectrum.
    """
    return volume.is_chain and z.imag != 0


def _green_rows(
    model: AlloyModel, volume: FiniteVolume, z: complex, sites, cols, lams, counts,
    n_samples: int, master_seed: int, reduce,
):
    """``reduce(g, fields, first)`` over blocks of realizations, concatenated,
    and the number of redraws.

    ``g[i, j, k, c] = G(z; sites[k], cols[c])`` for realization ``first + i``
    at ``lams[j]``, filled while ``first + i < counts[j]`` and nan after;
    ``fields[i]`` is that realization's field.  A complex ``z`` on a chain
    takes the batched kernel over blocks of fields drawn at once, and
    ``reduce`` runs on each block after its draws, so nothing it raises is
    redrawn.  Otherwise each realization is drawn on its own, solved by
    ``green_column`` (slab by slab on a d >= 2 box at a complex ``z``,
    densely on any other volume or at a real ``z``) and reduced as a one-row
    block inside its draw: a ``NumericalError`` from
    the solve or from ``reduce`` (a real energy hitting the spectrum) redraws
    only that stream, except ``_InvariantViolation``, which propagates at
    once.
    """
    shape = (len(lams), len(sites), len(cols))
    nan = complex(np.nan, np.nan)
    if _on_chain_kernel(volume, z):

        def block(fields, first):
            g = np.full((len(fields), *shape), nan)
            for j, (lam, m) in enumerate(zip(lams, counts)):
                if m > first:
                    rows = chain_green(lam * fields[: m - first], z, sites)
                    g[: m - first, j] = rows[:, :, cols]
            return reduce(g, fields, first)

        return _block_realizations(model, volume, n_samples, master_seed, block)

    def row(real):
        g = np.full((1, *shape), nan)
        for j, (lam, m) in enumerate(zip(lams, counts)):
            if real.stream_index < m:
                op = assemble(real, lam)
                for k, site in enumerate(sites):
                    g[0, j, k] = green_column(op, z, volume.points[site])[cols]
        return reduce(g, real.field[None], real.stream_index)[0]

    rows, redraws = _realizations(model, volume, n_samples, master_seed, row)
    return np.asarray(rows), redraws


def _count_rows(
    model: AlloyModel, volume: FiniteVolume, intervals, n_samples: int, master_seed: int
):
    """Count of the eigenvalues at ``model.lam`` in each closed, nondegenerate
    interval ``[a, b]``, one float row per realization, and the number of
    redraws.  Fields come in blocks (nothing here rejects a draw), each
    row's operator is built from ``lam * fields`` and diagonalized on its
    own."""
    for a, b in intervals:
        if not b > a:
            raise ValidationError("interval must be nondegenerate")
    a, b = np.asarray(intervals, dtype=float).reshape(-1, 2).T

    def counts(fields, first):
        out = np.empty((len(fields), len(a)))
        for i, diagonal in enumerate(model.lam * fields):
            evals = spectrum(FiniteVolumeOperator(volume, float(model.lam), diagonal))
            upto_b = np.searchsorted(evals, b, side="right")
            out[i] = upto_b - np.searchsorted(evals, a, side="left")
        return out

    return _block_realizations(model, volume, n_samples, master_seed, counts)


def _check_lams(lams) -> None:
    if not all(math.isfinite(lam) for lam in lams):
        raise ValidationError(f"disorder strengths must be finite, got {list(lams)!r}")


def _require_inside(volume: FiniteVolume, *points) -> list[int]:
    idx = [volume.index_of(p) for p in points]
    for p, i in zip(points, idx):
        if i < 0:
            raise ValidationError(f"point {as_point(p, volume.dimension)} is outside the volume")
    return idx


def fractional_moment(
    model: AlloyModel,
    volume: FiniteVolume,
    z: complex,
    x,
    y,
    s: float,
    n_samples: int,
    master_seed: int,
) -> Estimate:
    """Monte Carlo estimate of ``E |G(z; x, y)|**s``.

    The metadata carries the closed-form uniform bound when the model
    supports it (``bound`` and its pieces), the number of redraws forced by
    a real energy landing on a finite-volume eigenvalue, and the arguments
    needed to reproduce the run.
    """
    if not 0 < s < 1:
        raise ValidationError("moment order s must lie in (0, 1)")
    ix, iy = _require_inside(volume, x, y)
    z = _finite_energy(z)
    values, redraws = _green_rows(
        model, volume, z, [iy], [ix], [model.lam], [n_samples], n_samples, master_seed,
        lambda g, fields, first: np.abs(g[:, 0, 0, 0]) ** s,
    )
    meta: dict = {
        "s": s,
        "z": [z.real, z.imag],
        "x": list(np.atleast_1d(x)),
        "y": list(np.atleast_1d(y)),
        "redraws": redraws,
    }
    try:
        if model.lam <= 0:
            raise ValidationError("no disorder: the uniform bound needs lam > 0")
        consts = uniform_bound_constants(model.potential, s, model.measure)
        meta["bound"] = consts.bound(model.lam)
        meta["bound_constants"] = {
            "rate": consts.rate,
            "product_constant": consts.product_constant,
            "coefficient": consts.coefficient,
        }
    except (ValidationError, NumericalError) as exc:
        meta["bound"] = None
        meta["bound_note"] = str(exc)
    return _mean_estimate(values, master_seed, meta)


@dataclass
class DecayProfile:
    """Fitted exponential decay of fractional Green moments with distance."""

    distances: np.ndarray
    estimates: list
    amplitude: float
    rate: float
    r_squared: float
    dropped: list
    s: float

    def to_csv(self, path) -> None:
        write_csv(
            path, ["distance", "value", "stderr"],
            [(d, est.value, est.stderr) for d, est in zip(self.distances, self.estimates)],
        )


def green_decay_profile(
    model: AlloyModel,
    volume: FiniteVolume,
    z: complex,
    x,
    offsets: Sequence,
    s: float,
    n_samples: int,
    master_seed: int,
) -> DecayProfile:
    """Moment-versus-distance profile with a log-linear decay fit.

    One resolvent row per realization feeds every offset simultaneously.
    Offsets whose estimate is consistent with zero at the Monte Carlo noise
    level (mean below twice its standard error) are excluded from the fit
    and reported in ``dropped``.
    """
    if not 0 < s < 1:
        raise ValidationError("moment order s must lie in (0, 1)")
    (ix,) = _require_inside(volume, x)
    base = np.asarray(as_point(x, volume.dimension))
    targets = [base + as_point(o, volume.dimension) for o in offsets]
    cols = np.asarray(_require_inside(volume, *targets))
    dists = np.asarray([int(np.abs(t - base).sum()) for t in targets])
    z = _finite_energy(z)

    data, redraws = _green_rows(
        model, volume, z, [ix], cols, [model.lam], [n_samples], n_samples, master_seed,
        lambda g, fields, first: np.abs(g[:, 0, 0]) ** s,
    )
    estimates = [
        _mean_estimate(data[:, j], master_seed, {"distance": int(dists[j]), "redraws": redraws})
        for j in range(data.shape[1])
    ]
    keep = np.array([est.value > 2 * est.stderr for est in estimates])
    if keep.sum() < 3:
        raise NumericalError("fewer than 3 distances rise above Monte Carlo noise; cannot fit")
    xfit = dists[keep].astype(float)
    yfit = np.log([estimates[j].value for j in np.nonzero(keep)[0]])
    slope, intercept = np.polyfit(xfit, yfit, 1)
    pred = slope * xfit + intercept
    ss_res = float(np.sum((yfit - pred) ** 2))
    ss_tot = float(np.sum((yfit - yfit.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DecayProfile(
        distances=dists,
        estimates=estimates,
        amplitude=float(math.exp(intercept)),
        rate=float(-slope),
        r_squared=r2,
        dropped=[int(d) for d, k in zip(dists, keep) if not k],
        s=s,
    )


def wegner_count(
    model: AlloyModel,
    volume: FiniteVolume,
    intervals: Sequence[tuple[float, float]],
    n_samples: int,
    master_seed: int,
) -> list[Estimate]:
    """Expected number of eigenvalues in each interval, all counted on the
    same spectra; one estimate per interval.

    Metadata reports the structural pieces of the counting bound: the
    density total variation, the volume exponent ``2d + N`` with ``N`` the
    vanishing order of the profile's generating function at 1, and the
    implied empirical constant (estimate divided by
    ``(1/lam) * ||rho||_Var * |I| * (2L+1)**(2d+N)``).
    """
    rows, redraws = _count_rows(model, volume, intervals, n_samples, master_seed)
    try:
        order = vanishing_order(model.potential).order
        tv = density_norms(model.measure).total_variation
        pieces = {"volume_exponent_correction": order, "rho_total_variation": tv}
    except (ValidationError, NumericalError) as exc:
        pieces = {"bound_note": str(exc)}
    out = []
    for (a, b), counts in zip(intervals, rows.T.copy()):
        meta: dict = {
            "interval": [a, b], "volume_points": len(volume), "redraws": redraws, **pieces
        }
        if "bound_note" not in meta and volume.kind == "box" and model.lam > 0 and math.isfinite(tv):
            scale = (
                (1.0 / model.lam)
                * tv
                * (b - a)
                * (2 * volume.radius + 1) ** (2 * model.dimension + order)
            )
            meta["bound_scale"] = scale
            meta["implied_constant"] = float(np.mean(counts) / scale)
        out.append(_mean_estimate(counts, master_seed, meta))
    return out


def minami_bound_constant(model: AlloyModel) -> float:
    """Constant of the two-eigenvalue bound:
    ``(C_u**2 / 4) * max(||rho'||_1**2, ||rho''||_1)``."""
    cu = convolution_inverse_norm(model.potential).value
    norms = density_norms(model.measure)
    if not (math.isfinite(norms.grad_l1) and math.isfinite(norms.hess_l1)):
        raise ValidationError("two-eigenvalue constant needs finite density derivative norms")
    return cu * cu / 4.0 * max(norms.grad_l1**2, norms.hess_l1)


def minami_determinant(
    model: AlloyModel,
    volume: FiniteVolume,
    z: complex,
    x,
    y,
    lams: Sequence[float],
    n_samples: int,
    master_seed: int,
    lam_samples: Optional[Sequence[int]] = None,
) -> list[Estimate]:
    """Mean determinant of the 2x2 imaginary Green submatrix at (x, y), one
    estimate per disorder strength in ``lams``, all solved on the same fields.

    Realizations ``0 .. n_samples-1`` are drawn once each; the estimate at
    ``lams[j]`` averages the first ``lam_samples[j]`` of them (all of them
    when ``lam_samples`` is not given).  For ``Im z > 0`` the
    imaginary part of the resolvent is positive semidefinite, so each
    per-draw determinant must be non-negative; a value below -1e-10 raises
    at the first offending realization, without a redraw, instead of
    polluting the mean.  Metadata carries the closed-form bound
    ``(pi / lam)**2`` times the two-eigenvalue constant when the model
    provides it.
    """
    z = _finite_energy(z)
    if z.imag <= 0:
        raise ValidationError("the determinant estimator needs Im z > 0")
    _check_lams(lams)
    ix, iy = _require_inside(volume, x, y)
    if ix == iy:
        raise ValidationError("need two distinct points")
    counts = [n_samples] * len(lams) if lam_samples is None else list(lam_samples)
    if len(counts) != len(lams) or not all(1 <= m <= n_samples for m in counts):
        raise ValidationError("need one sample count in [1, n_samples] per disorder strength")
    pair = [ix, iy]

    def dets(g, fields, first):
        # rows are realizations from ``first`` on; unused entries are nan
        im = g.imag
        out = im[..., 0, 0] * im[..., 1, 1] - im[..., 0, 1] * im[..., 1, 0]
        bad = np.argwhere(out < -1e-10)
        if len(bad):
            i, j = bad[0]
            raise _InvariantViolation(
                f"imaginary Green submatrix lost positive semidefiniteness at realization "
                f"{first + i}: det = {out[i, j]!r}"
            )
        return out

    rows, redraws = _green_rows(
        model, volume, z, pair, pair, lams, counts, n_samples, master_seed, dets
    )
    try:
        cmin, note = minami_bound_constant(model), None
    except (ValidationError, NumericalError) as exc:
        cmin, note = None, str(exc)
    out = []
    for lam, m, vals in zip(lams, counts, rows.T.copy()):
        vals = vals[:m]
        meta: dict = {
            "z": [z.real, z.imag],
            "x": list(np.atleast_1d(x)),
            "y": list(np.atleast_1d(y)),
            "min_det": float(vals.min()),
            "redraws": redraws,
        }
        if lam > 0 and cmin is not None:
            meta["bound"] = (math.pi / lam) ** 2 * cmin
            meta["bound_constant"] = cmin
        else:
            meta["bound"] = None
            meta["bound_note"] = note if lam > 0 else "no disorder: the determinant bound needs lam > 0"
        out.append(_mean_estimate(vals, master_seed, meta))
    return out


@dataclass
class TwoLevelResult:
    """Probability of two eigenvalues in an interval and its dominating
    half factorial moment ``E[k(k-1)/2]``; the pointwise inequality
    ``1{k >= 2} <= k(k-1)/2`` holds draw by draw by construction."""

    p_two: Estimate
    half_moment: Estimate
    bound: Optional[float]
    bound_note: Optional[str] = None


def two_level_probability(
    model: AlloyModel,
    volume: FiniteVolume,
    interval: tuple[float, float],
    n_samples: int,
    master_seed: int,
) -> TwoLevelResult:
    """Estimate ``P(at least two eigenvalues in I)`` and ``E[k(k-1)/2]``."""
    a, b = interval
    rows, redraws = _count_rows(model, volume, [interval], n_samples, master_seed)
    k = rows[:, 0]
    meta = {"interval": [a, b], "volume_points": len(volume), "redraws": redraws}
    bound = None
    note = None
    try:
        if model.lam <= 0:
            raise ValidationError("no disorder: the two-eigenvalue bound needs lam > 0")
        cmin = minami_bound_constant(model)
        bound = 0.5 * (math.pi / model.lam) ** 2 * cmin * (b - a) ** 2 * len(volume) ** 2
    except (ValidationError, NumericalError) as exc:
        note = str(exc)
    return TwoLevelResult(
        p_two=_mean_estimate((k >= 2).astype(float), master_seed, dict(meta)),
        half_moment=_mean_estimate(0.5 * k * (k - 1), master_seed, dict(meta)),
        bound=bound,
        bound_note=note,
    )


@dataclass
class RecursionRow:
    lam: float
    lhs: Estimate
    rhs_sum: Estimate
    implied_constant: float


@dataclass
class RecursionProbe:
    rows: list
    max_residual: float
    s: float
    skipped: list

    @property
    def implied_range(self) -> tuple[float, float]:
        cs = [row.implied_constant for row in self.rows]
        if not cs:
            raise NumericalError("every disorder strength was skipped; nothing to range over")
        return min(cs), max(cs)


def recursion_probe(
    model: AlloyModel,
    volume: FiniteVolume,
    energy: float,
    x,
    y,
    s: float,
    lams: Sequence[float],
    n_samples: int,
    master_seed: int,
    residual_tol: float = 1e-8,
) -> RecursionProbe:
    """Probe the one-step moment recursion across disorder strengths.

    For each ``lam`` the probe estimates ``E|G(E; x, y)|**s`` and the summed
    neighbor moments ``sum_e E|G(E; x, y+e)|**s`` on common realizations and
    reports the implied constant ``lam**s * lhs / rhs``.  Every draw also
    checks the exact off-diagonal resolvent identity
    ``sum_e G(E; x, y+e) = (lam * field(y) - E) G(E; x, y)`` within
    ``residual_tol``; a violation marks the draw singular and redraws it.
    """
    if not 0 < s < 1:
        raise ValidationError("moment order s must lie in (0, 1)")
    if not lams:
        raise ValidationError("need at least one disorder strength")
    _check_lams(lams)
    _finite_energy(energy)
    if model.potential.value_at(np.zeros(model.dimension, dtype=int)) == 0.0:
        raise ValidationError("the recursion step needs the profile to cover the origin")
    ix, iy = _require_inside(volume, x, y)
    if ix == iy:
        raise ValidationError("the recursion is off-diagonal; need x != y")

    def reduce(g, fields, first):
        # g[i, j] is G(E; x, .) at y, then at y's neighbours, for lams[j]
        g_y, neigh = g[:, :, 0, 0], g[:, :, 0, 1:]
        defect = neigh.sum(axis=-1) - (fields[:, [iy]] * lams - energy) * g_y
        residual = np.abs(defect) / (1.0 + np.abs(g_y))
        if np.any(residual > residual_tol):
            raise NumericalError(f"resolvent identity residual {np.nanmax(residual):.3e}")
        # float_power rounds as libm's pow, like a scalar ``**``; ``**`` on
        # arrays may differ in the last bit
        lhs = np.float_power(np.abs(g_y), s)
        return np.stack([lhs, (np.abs(neigh) ** s).sum(axis=-1), residual], axis=-1)

    draws, redraws = _green_rows(
        model, volume, complex(energy), [ix], [iy, *volume.neighbors(iy)], lams,
        [n_samples] * len(lams), n_samples, master_seed, reduce,
    )
    rows, skipped = [], []
    for lam, (lhs, rhs, _) in zip(lams, draws.transpose(1, 2, 0).copy()):
        lhs_est = _mean_estimate(lhs, master_seed, {"lam": lam, "redraws": redraws})
        rhs_est = _mean_estimate(rhs, master_seed, {"lam": lam})
        if rhs_est.value <= 2 * rhs_est.stderr:
            skipped.append(lam)
            continue
        implied = lam**s * lhs_est.value / rhs_est.value
        rows.append(RecursionRow(lam=lam, lhs=lhs_est, rhs_sum=rhs_est, implied_constant=implied))
    max_res = float(draws[..., 2].max())
    return RecursionProbe(rows=rows, max_residual=max_res, s=s, skipped=skipped)


def fvc_probability(
    model: AlloyModel,
    volume: FiniteVolume,
    energy: float,
    exponent: float,
    n_samples: int,
    master_seed: int,
) -> Estimate:
    """Probability that every long-distance Green entry is polynomially small.

    The event asks ``|G(E; x, y)| <= L**-exponent`` simultaneously for all
    pairs at sup-distance at least ``L/2`` in a box of radius ``L``; the
    exponent must be finite and exceed ``3d - 1`` (an infinite one, whose
    event never holds, is a ``ValidationError`` like a nan).  Real energies
    hitting an eigenvalue force a redraw (counted in the metadata).  It reads the whole resolvent,
    where one dense inverse beats ``n`` guarded ``green_column`` solves.
    """
    if volume.kind != "box" or volume.radius is None:
        raise ValidationError("the smallness event is defined on a box volume")
    d = volume.dimension
    if not 3 * d - 1 < exponent < math.inf:
        raise ValidationError(f"exponent must be finite and exceed 3d - 1 = {3 * d - 1}")
    _finite_energy(energy)
    L = volume.radius
    pts = volume.points
    supdist = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    ii, jj = np.nonzero(np.triu(supdist >= L / 2, k=1))
    if len(ii) == 0:
        # no pair is far enough apart; the all-pairs event holds vacuously
        return Estimate(
            value=1.0,
            stderr=0.0,
            n_samples=n_samples,
            master_seed=master_seed,
            metadata={"n_pairs": 0, "vacuous": True, "exponent": exponent, "energy": energy},
        )
    threshold = float(L) ** (-exponent)

    def reduce(real):
        op = assemble(real, model.lam)
        _check_not_in_spectrum(op, complex(energy))
        inv = np.linalg.inv(op.matrix - energy * np.eye(op.size))
        return 1.0 if np.all(np.abs(inv[ii, jj]) <= threshold) else 0.0

    values, redraws = _realizations(model, volume, n_samples, master_seed, reduce)
    return Estimate.proportion(
        np.mean(values), len(values), master_seed,
        {
            "threshold": threshold,
            "n_pairs": int(len(ii)),
            "redraws": redraws,
            "exponent": exponent,
            "energy": energy,
        },
    )
