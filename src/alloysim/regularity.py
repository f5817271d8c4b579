"""Concentration of the field and conditioning diagnostics.

Three groups of tools live here:

* concentration functions of a single field value: the exact curve for the
  two-tap uniform example and an empirical sup-over-windows estimator;
* conditional Monte Carlo under band or pin events on neighboring field
  values, with exact samplers adapted to the event structure, plus the
  interval-pinning certificate that explains *why* a band event freezes the
  center value;
* Gaussian conditioning: the general linear-constraint formula and the
  closed form for the two-tap moving-average chain, cross-validated against
  each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr, ndtri

from .errors import NumericalError, ValidationError
from .lattice import as_point, build_volume
from .measures import CouplingMeasure
from .model import AlloyModel
from .potential import SingleSitePotential
from .results import Estimate, write_csv
from .rng import stream_rng

__all__ = [
    "uniform_pair_concentration",
    "concentration_empirical",
    "concentration_curve",
    "ConcentrationCurve",
    "BandEvent",
    "PinEvent",
    "ConditionalMCResult",
    "conditional_concentration_mc",
    "CertificateStep",
    "CertificateReport",
    "pinning_certificate",
    "GaussianConditional",
    "condition_gaussian_linear",
    "Ma1GramIdentities",
    "ma1_gram_identities",
    "condition_ma1_center",
    "condition_ma1_center_direct",
]


# ---------------------------------------------------------------------------
# Concentration functions
# ---------------------------------------------------------------------------


def uniform_pair_concentration(eps):
    """Exact concentration of the sum of two unit uniforms.

    ``sup_a P(sum in [a, a+eps])`` equals ``eps - eps**2/4`` for
    ``eps in (0, 2]`` (window centered at the mode) and 1 beyond.
    """
    e = np.asarray(eps, dtype=float)
    if np.any(e <= 0):
        raise ValidationError("window width must be positive")
    out = np.where(e >= 2.0, 1.0, e - e * e / 4.0)
    return float(out) if np.isscalar(eps) else out


def _site_weight_vector(model: AlloyModel, sites) -> tuple[np.ndarray, np.ndarray]:
    """Coupling points and per-site weight rows for field values at `sites`."""
    vol = build_volume(model.dimension, points=sites)
    coupling_points, gather = vol.coupling_layout(model.potential)
    weights = np.zeros((len(vol), len(coupling_points)))
    vals = np.asarray(model.potential.values)
    for j in range(len(vals)):
        weights[np.arange(len(vol)), gather[j]] += vals[j]
    rows = np.array([vol.index_of(s) for s in sites])
    return coupling_points, weights[rows]


def concentration_empirical(
    model: AlloyModel,
    site,
    eps: float,
    n_samples: int,
    a_step: float,
    master_seed: int,
) -> Estimate:
    """Empirical ``sup_a P(field(site) in [a, a+eps])`` over a window grid.

    The sup is taken over left endpoints spaced ``a_step`` apart spanning the
    sample range (``a_step <= eps / 10`` is required so the grid resolves the
    window).  The standard error is the binomial one at the maximizing
    window.
    """
    return _concentration(model, site, [(eps, a_step)], n_samples, master_seed)[0]


def _concentration(model: AlloyModel, site, windows, n_samples: int, master_seed: int) -> list:
    """One estimate per ``(eps, a_step)`` window, all on one sorted sample."""
    for eps, a_step in windows:
        if eps <= 0:
            raise ValidationError("window width must be positive")
        if not 0 < a_step <= eps / 10:
            raise ValidationError("need 0 < a_step <= eps/10")
    site_pt = as_point(site, model.dimension)
    _, weights = _site_weight_vector(model, [site_pt])
    rng = stream_rng(master_seed, 0)
    omegas = model.measure.sample(rng, n_samples * weights.shape[1]).reshape(n_samples, -1)
    values = np.sort(omegas @ weights[0])
    out = []
    for eps, a_step in windows:
        grid = np.arange(values[0] - eps, values[-1] + a_step, a_step)
        counts = np.searchsorted(values, grid + eps, side="right") - np.searchsorted(
            values, grid, side="left"
        )
        best = int(np.argmax(counts))
        out.append(Estimate.proportion(
            counts[best] / n_samples, n_samples, master_seed,
            {"eps": eps, "a_step": a_step, "argmax_a": float(grid[best]), "site": list(site_pt)},
        ))
    return out


@dataclass
class ConcentrationCurve:
    """Concentration values over a window-width grid."""

    eps: np.ndarray
    values: np.ndarray
    stderr: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, ["eps", "value", "stderr"], zip(self.eps, self.values, self.stderr))


def concentration_curve(
    model: AlloyModel,
    site,
    eps_grid: Sequence[float],
    n_samples: int,
    master_seed: int,
    a_step: Optional[float] = None,
) -> ConcentrationCurve:
    """Empirical concentration over a grid of window widths, all evaluated on
    one sample with grid step ``min(a_step, eps / 10)`` (``eps / 10`` if unset)."""
    ests = _concentration(
        model, site,
        [(eps, eps / 10 if a_step is None else min(a_step, eps / 10)) for eps in eps_grid],
        n_samples, master_seed,
    )
    return ConcentrationCurve(
        eps=np.asarray(eps_grid, dtype=float),
        values=np.asarray([est.value for est in ests]),
        stderr=np.asarray([est.stderr for est in ests]),
    )


# ---------------------------------------------------------------------------
# Conditioning events and conditional Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandEvent:
    """All listed sites carry a field value inside ``[lo, hi]``."""

    sites: tuple
    lo: float
    hi: float

    def __post_init__(self):
        if not self.sites:
            raise ValidationError("event needs at least one site")
        if not self.hi > self.lo:
            raise ValidationError("band event needs hi > lo")


@dataclass(frozen=True)
class PinEvent:
    """All listed sites carry field values within ``tolerance`` of targets."""

    sites: tuple
    values: tuple
    tolerance: float

    def __post_init__(self):
        if not self.sites:
            raise ValidationError("event needs at least one site")
        if len(self.values) != len(self.sites):
            raise ValidationError("one target value per pinned site")
        if self.tolerance <= 0:
            raise ValidationError("pin tolerance must be positive")


@dataclass
class ConditionalMCResult:
    """Conditional window frequency plus the accepted-sample summary."""

    frequency: Estimate
    acceptance_rate: float
    n_accepted: int
    n_draws: int
    sampler: str
    eta_values: np.ndarray
    eta_mean: float
    eta_var: float
    coupling_points: np.ndarray
    couplings: Optional[np.ndarray] = None

    def law_report(self) -> dict:
        """JSON-ready summary of the accepted conditional law."""
        return {
            "mean": self.eta_mean,
            "variance": self.eta_var,
            "n_accepted": self.n_accepted,
            "acceptance_rate": self.acceptance_rate,
            "sampler": self.sampler,
        }


def _event_bounds(event: Union[BandEvent, PinEvent]) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(event, BandEvent):
        k = len(event.sites)
        return np.full(k, event.lo), np.full(k, event.hi)
    v = np.asarray(event.values, dtype=float)
    return v - event.tolerance, v + event.tolerance


def conditional_concentration_mc(
    model: AlloyModel,
    site,
    interval: tuple[float, float],
    event: Union[BandEvent, PinEvent],
    n_target: int,
    master_seed: int,
    sampler: str = "auto",
    chains: int = 256,
    burn_in: int = 300,
    thin: int = 3,
    keep_couplings: bool = False,
) -> ConditionalMCResult:
    """Estimate ``P(field(site) in interval | event)`` by conditional sampling.

    Samplers
    --------
    ``rejection``
        Draw all couplings jointly, keep draws satisfying the event.  Exact
        for every event but the acceptance rate decays like the product of
        the per-site band masses.
    ``stratified``
        For band events whose sites have pairwise-disjoint coupling groups:
        rejection-sample each group against its own one-site band, which is
        the exact conditional law by independence, at a per-group acceptance
        cost.
    ``gibbs``
        For pin events under a gaussian measure: single-coordinate Gibbs
        updates, each a one-dimensional truncated normal.  Exact in
        distribution at stationarity; ``chains``/``burn_in``/``thin`` control
        mixing.
    ``auto`` picks stratified for factorizable band events, gibbs for
    gaussian pin events, rejection otherwise.

    Streams: rejection is the box sampler of ``_sample_groups`` with one
    group holding every site and coupling, stratified with one group per
    site; batch ``a`` of group ``j`` is 65536 draws from
    ``stream_rng(master_seed, j, a)``, and couplings in no group come from
    ``stream_rng(master_seed, len(groups))``.  Gibbs draws from
    ``stream_rng(master_seed, 0)``; its lift to couplings consumes the
    ``(n_target, m)`` standard normals in row blocks, the same doubles in the
    same order as one draw, with a one-row remainder joined to the block
    before it.

    Memory: each Gibbs block is reduced to ``eta`` as it is drawn, so the
    sampler holds the kept field vectors ``(n_target, n_con)`` plus one
    block; the ``(n_target, m)`` couplings are built only for
    ``keep_couplings``.

    Raises
    ------
    ValidationError
        For a malformed target, site, event or sampler choice, and for gibbs
        with ``chains < 1``, ``burn_in < 0`` or ``thin < 1``, before any draw.
    NumericalError
        When rejection or stratified sampling spends ``_MAX_DRAWS`` (20
        million) draws before ``n_target`` acceptances (the message suggests widening the
        event or switching sampler).
    """
    if n_target <= 0:
        raise ValidationError("n_target must be positive")
    lo_t, hi_t = interval
    if not hi_t > lo_t:
        raise ValidationError("target interval must be nondegenerate")
    site_pt = as_point(site, model.dimension)
    event_sites = [as_point(s, model.dimension) for s in event.sites]
    if site_pt in event_sites:
        raise ValidationError("the target site cannot be part of the conditioning event")

    coupling_points, weights = _site_weight_vector(model, event_sites + [site_pt])
    w_event, w_target = weights[:-1], weights[-1]
    ev_lo, ev_hi = _event_bounds(event)
    strata = _disjoint_groups(w_event) if isinstance(event, BandEvent) else None

    if sampler == "auto":
        if strata is not None:
            sampler = "stratified"
        elif isinstance(event, PinEvent) and model.measure.kind == "gaussian":
            sampler = "gibbs"
        else:
            sampler = "rejection"

    if sampler in ("rejection", "stratified"):
        if sampler == "rejection":
            groups = [(np.arange(len(w_event)), np.arange(w_event.shape[1]))]
        elif not isinstance(event, BandEvent):
            raise ValidationError("the stratified sampler handles band events only")
        elif strata is None:
            raise ValidationError(
                "band event does not factorize over disjoint coupling groups; "
                "use the rejection sampler"
            )
        else:
            groups = strata
        couplings, n_draws = _sample_groups(
            model.measure, w_event, groups, ev_lo, ev_hi, n_target, master_seed
        )
        blocks = [couplings]
        acceptance = n_target * len(groups) / n_draws
    elif sampler == "gibbs":
        if model.measure.kind != "gaussian":
            raise ValidationError("the gibbs sampler requires a gaussian measure")
        settings = (("chains", chains, 1), ("burn_in", burn_in, 0), ("thin", thin, 1))
        for name, value, least in settings:
            if value < least:
                raise ValidationError(f"gibbs {name} must be at least {least}, got {value!r}")
        blocks = _gibbs_sample_event(
            model.measure, w_event, ev_lo, ev_hi, n_target, master_seed, chains, burn_in, thin
        )
        n_draws = n_target
        acceptance = float("nan")
    else:
        raise ValidationError(f"unknown sampler {sampler!r}")

    etas, kept = [], []
    for block in blocks:
        etas.append(block @ w_target)
        if keep_couplings:
            kept.append(block)
    eta = np.concatenate(etas)
    inside = (eta >= lo_t) & (eta <= hi_t)
    freq = Estimate.proportion(
        np.mean(inside), len(eta), master_seed,
        {
            "interval": [lo_t, hi_t],
            "sampler": sampler,
            "acceptance_rate": acceptance,
            "event_sites": [list(s) for s in event_sites],
        },
    )
    return ConditionalMCResult(
        frequency=freq,
        acceptance_rate=acceptance,
        n_accepted=len(eta),
        n_draws=n_draws,
        sampler=sampler,
        eta_values=eta,
        eta_mean=float(np.mean(eta)),
        eta_var=float(np.var(eta)),
        coupling_points=coupling_points,
        couplings=np.concatenate(kept) if keep_couplings else None,
    )


def _disjoint_groups(w_event: np.ndarray) -> Optional[list[tuple[np.ndarray, np.ndarray]]]:
    """One ``(rows, cols)`` group per event row, holding the couplings the row
    weighs, or None when two rows share a coupling."""
    groups = [(np.array([i]), np.nonzero(row)[0]) for i, row in enumerate(w_event)]
    seen: set[int] = set()
    for _, cols in groups:
        if seen & set(cols.tolist()):
            return None
        seen.update(cols.tolist())
    return groups


# Joint draws per batch of one group of the box sampler, and the draws over
# all groups after which it gives up.
_BATCH = 65536
_MAX_DRAWS = 20_000_000


def _sample_groups(measure, w_event, groups, ev_lo, ev_hi, n_target, seed):
    """Exact conditional couplings under the event box, and the draws spent.

    Each group ``(rows, cols)`` holds event rows whose couplings ``cols`` no
    other group touches, so each group is rejection-sampled on its own: batch
    ``a`` of group ``j`` draws ``_BATCH`` rows of its couplings from
    ``stream_rng(seed, j, a)`` and keeps those whose values at ``rows`` all
    lie in their bands.  Couplings outside every group are drawn from the
    prior on ``stream_rng(seed, len(groups))``.
    """
    m = w_event.shape[1]
    out = np.empty((n_target, m))
    total = 0
    for j, (rows, cols) in enumerate(groups):
        w, lo, hi = w_event[np.ix_(rows, cols)], ev_lo[rows], ev_hi[rows]
        kept, n_kept = [], 0  # one kept block per batch, so batch a = len(kept)
        while n_kept < n_target:
            if total >= _MAX_DRAWS:
                raise NumericalError(
                    f"sampler accepted {n_kept}/{n_target} on group {j} after {total} draws "
                    "(acceptance too small: widen the event band or use stratified/gibbs)"
                )
            rng = stream_rng(seed, j, len(kept))
            omega = measure.sample(rng, _BATCH * len(cols)).reshape(_BATCH, len(cols))
            eta = omega @ w.T
            kept.append(omega[np.all((eta >= lo) & (eta <= hi), axis=1)])
            n_kept += len(kept[-1])
            total += _BATCH
        out[:, cols] = np.concatenate(kept)[:n_target]
    free = np.setdiff1d(np.arange(m), np.concatenate([cols for _, cols in groups]))
    if len(free):
        rng = stream_rng(seed, len(groups))
        out[:, free] = measure.sample(rng, n_target * len(free)).reshape(n_target, len(free))
    return out, total


# Rows per block of the Gibbs sampler's lift from field values to couplings.
_LIFT_ROWS = 4096


def _gibbs_sample_event(measure, w_event, ev_lo, ev_hi, n_target, seed, chains, burn_in, thin):
    """Two-stage conditional sampler for Gaussian couplings, yielding the
    ``(n_target, m)`` couplings as consecutive row blocks.

    Stage 1 runs Gibbs over the constrained field values themselves: a
    Gaussian vector of dimension equal to the number of conditioned sites,
    truncated to the event box.  Each coordinate conditional is a
    one-dimensional truncated normal whose scale is set by the field Gram
    matrix, far wider than a tight event box, so sweeps decorrelate in O(1)
    rather than in O(1/width**2) as coupling-space updates would.  Stage 2
    lifts each kept field vector to couplings exactly: a prior draw plus the
    Gram-solved correction realizes the conditional Gaussian law.

    Stream contract: everything is drawn from ``stream_rng(seed, 0)``.  Stage
    1 runs ``burn_in + ceil(n_target / chains) * thin`` sweeps, and each sweep
    consumes one ``(n_con, chains)`` block of uniforms, row ``i`` feeding the
    update of coordinate ``i`` in every chain, coordinates in order.  Stage 2
    then consumes the ``(n_target, m)`` standard normals in blocks of
    ``_LIFT_ROWS`` rows, the same doubles in the same order as one draw, and
    lifts each block as it is drawn; a one-row remainder joins the block
    before it.  The sampler holds the kept field vectors ``(n_target,
    n_con)`` and one block, never the whole coupling array.
    """
    center = measure.params["mean"]
    sigma = math.sqrt(measure.params["variance"])
    n_con, m = w_event.shape
    gram = sigma * sigma * (w_event @ w_event.T)
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise NumericalError(
            "pin constraints are linearly dependent; drop the redundant sites"
        )
    precision = np.linalg.inv(gram)
    cond_sd = 1.0 / np.sqrt(np.diag(precision))
    y_mean = center * (w_event @ np.ones(m))
    rng = stream_rng(seed, 0)

    y = np.tile(0.5 * (ev_lo + ev_hi), (chains, 1))
    dev = y - y_mean
    kept_per_chain = -(-n_target // chains)
    kept_y = np.empty((kept_per_chain, chains, n_con))
    # Every step of an update writes into these buffers; the operations and
    # their order are those of
    #   mu = y_mean_i - (dev @ P_i - P_ii * dev_i) / P_ii
    #   q = clip(za + u * (zb - za), tiny, 1 - tiny)
    #   y_i = clip(mu + sd_i * ndtri(q), lo_i, hi_i)
    # with (za, zb) = ndtr(((lo_i, hi_i) - mu) / sd_i).  ``dev = y - y_mean``
    # is kept current one column at a time.
    u = np.empty((n_con, chains))
    mu = np.empty(chains)
    tmp = np.empty(chains)
    z = np.empty((2, chains))
    za, zb = z
    tiny, one_minus = np.asarray(1e-15), np.asarray(1 - 1e-15)
    bounds = np.stack([ev_lo, ev_hi])
    # 0-d arrays broadcast faster than Python floats and hold the same doubles
    coords = [
        (precision[i], np.asarray(precision[i, i]), np.asarray(y_mean[i]),
         np.asarray(cond_sd[i]), bounds[:, i:i + 1], np.asarray(ev_lo[i]),
         np.asarray(ev_hi[i]), y[:, i], dev[:, i], u[i])
        for i in range(n_con)
    ]
    for sweep in range(1, burn_in + kept_per_chain * thin + 1):
        rng.random(out=u)
        for prec_i, p_ii, ym_i, sd_i, bnd_i, lo_i, hi_i, y_i, dev_i, u_i in coords:
            np.dot(dev, prec_i, out=mu)
            np.multiply(dev_i, p_ii, out=tmp)
            np.subtract(mu, tmp, out=mu)
            np.divide(mu, p_ii, out=mu)
            np.subtract(ym_i, mu, out=mu)
            np.subtract(bnd_i, mu, out=z)
            np.divide(z, sd_i, out=z)
            ndtr(z, out=z)
            np.subtract(zb, za, out=tmp)
            np.multiply(u_i, tmp, out=tmp)
            np.add(za, tmp, out=tmp)
            np.minimum(np.maximum(tmp, tiny, out=tmp), one_minus, out=tmp)
            ndtri(tmp, out=tmp)
            np.multiply(tmp, sd_i, out=tmp)
            np.add(mu, tmp, out=tmp)
            np.minimum(np.maximum(tmp, lo_i, out=tmp), hi_i, out=y_i)  # CDF round-off guard
            np.subtract(y_i, ym_i, out=dev_i)
        if sweep > burn_in and (sweep - burn_in) % thin == 0:
            kept_y[(sweep - burn_in) // thin - 1] = y
    ys = kept_y.reshape(-1, n_con)[:n_target]

    lift = np.linalg.solve(gram, sigma * sigma * w_event)
    edges = list(range(0, n_target, _LIFT_ROWS)) + [n_target]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        # numpy sends a one-row product to gemv, which can round unlike gemm
        del edges[-2]
    for a, b in zip(edges, edges[1:]):
        draws = center + sigma * rng.standard_normal((b - a, m))
        yield draws + (ys[a:b] - draws @ w_event.T) @ lift


# ---------------------------------------------------------------------------
# Interval-pinning certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateStep:
    """One membership layer: (coupling index, value, lo, hi, ok) tuples."""

    name: str
    checks: tuple


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    center: float
    slope: float
    target: tuple[float, float]
    center_value: float
    steps: tuple[CertificateStep, ...]

    @property
    def violations(self) -> list:
        return [c for s in self.steps for c in s.checks if not c[-1]]


def pinning_certificate(
    u: SingleSitePotential,
    delta: float,
    delta_prime: float,
    couplings: Mapping[int, float],
) -> CertificateReport:
    """Verify the interval chain a two-sided band event forces on couplings.

    Setting: d = 1, support {0, ..., n-1}, couplings valued in [0, 1], and a
    realization satisfying the band event (field values at -1 and n-1 within
    ``delta_prime`` below the positive coefficient sum), given as a mapping
    from coupling index ``k`` to ``omega(k)``.  The report checks, coupling
    by coupling:

    1. the left band pins ``omega(-1-k)`` near 1 for positive coefficients
       and near 0 for negative ones;
    2. the right band does the same for ``omega(n-1-k)``;
    3. consequently the couplings feeding the center site are pinned, near 1
       on the top-pinned set and near 0 on its complement;
    4. the center field value lands in ``[m - c*delta', m + c*delta']`` with
       ``m`` the top-pinned coefficient mass and ``c = n max|u| / min|u|``.

    All interval memberships use a 1e-12 slack for float round-off.
    """
    if not u.contiguous_from_zero:
        raise ValidationError("certificate needs a d = 1 profile supported on {0..n-1}")
    if not 0 < delta_prime <= delta:
        raise ValidationError("need 0 < delta_prime <= delta")

    omega = {k: float(v) for k, v in couplings.items()}
    n = u.n_points
    lookup = u.as_dict()
    u_min, u_max = u.min_abs, u.max_abs
    s_plus = u.positive_sum
    center = u.certificate_center
    slope = u.certificate_slope
    width = delta_prime / u_min
    near_one = (1.0 - width, 1.0)
    near_zero = (0.0, width)
    slack = 1e-12

    def member(x, lohi):
        return lohi[0] - slack <= x <= lohi[1] + slack

    def layer(name, items):
        checks = []
        for idx, lohi in items:
            val = omega[idx]
            checks.append((idx, val, lohi[0], lohi[1], member(val, lohi)))
        return CertificateStep(name, tuple(checks))

    pos, neg = set(u.support_pos), set(u.support_neg)
    band = (s_plus - delta_prime, s_plus)
    eta_left = sum(lookup[(k,)] * omega[-1 - k] for k in range(n))
    eta_right = sum(lookup[(k,)] * omega[n - 1 - k] for k in range(n))
    event_step = CertificateStep(
        "event",
        (
            (-1, eta_left, band[0], band[1], member(eta_left, band)),
            (n - 1, eta_right, band[0], band[1], member(eta_right, band)),
        ),
    )

    step1 = layer("left-band", [(-1 - k, near_one if k in pos else near_zero) for k in sorted(pos | neg)])
    step2 = layer("right-band", [(n - 1 - k, near_one if k in pos else near_zero) for k in sorted(pos | neg)])
    top, bottom = u.pinned_top, u.pinned_bottom
    step3 = layer(
        "center-couplings",
        [(-k, near_one) for k in top] + [(-k, near_zero) for k in bottom],
    )

    eta_center = sum(lookup[(k,)] * omega[-k] for k in range(n))
    target = (center - slope * delta_prime, center + slope * delta_prime)
    final = CertificateStep(
        "center-interval",
        ((0, eta_center, target[0], target[1], member(eta_center, target)),),
    )

    steps = (event_step, step1, step2, step3, final)
    passed = all(c[-1] for s in steps for c in s.checks)
    return CertificateReport(
        passed=passed,
        center=center,
        slope=slope,
        target=target,
        center_value=eta_center,
        steps=steps,
    )


# ---------------------------------------------------------------------------
# Gaussian conditioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianConditional:
    """Conditional law of a linear functional: normal with these moments."""

    mean: float
    variance: float
    provenance: str = ""

    def __post_init__(self):
        if self.variance < -1e-10:
            raise NumericalError(f"conditional variance {self.variance!r} is negative")
        if self.variance < 0:
            object.__setattr__(self, "variance", 0.0)


def condition_gaussian_linear(
    mean: Sequence[float],
    cov: np.ndarray,
    weights: Sequence[float],
    constraints: np.ndarray,
    observed: Sequence[float],
) -> GaussianConditional:
    """Law of ``weights . X`` given ``constraints @ X = observed``.

    ``X`` is Gaussian with the given mean and covariance.  Uses a Cholesky
    solve of the constraint Gram matrix; an ill-conditioned Gram matrix
    (condition number above 1e12, or a non-positive eigenvalue) raises with
    the offending eigenvalue in the message.  An empty constraint block
    returns the unconditioned law.
    """
    mu = np.asarray(mean, dtype=float)
    sig = np.asarray(cov, dtype=float)
    a = np.asarray(weights, dtype=float)
    b = np.asarray(constraints, dtype=float).reshape(-1, mu.size)
    v = np.asarray(observed, dtype=float)
    if sig.shape != (mu.size, mu.size):
        raise ValidationError("covariance shape does not match the mean vector")
    if b.shape[0] != v.size:
        raise ValidationError("one observed value per constraint row is required")
    base_var = float(a @ sig @ a)
    if b.shape[0] == 0:
        return GaussianConditional(float(a @ mu), base_var, provenance="unconditioned")
    gram = b @ sig @ b.T
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > 1e12:
        raise NumericalError(
            f"constraint Gram matrix is numerically singular (smallest eigenvalue {eigs[0]:.3e})"
        )
    cross = b @ sig @ a
    solve = cho_solve(cho_factor(gram), cross)
    variance = base_var - float(cross @ solve)
    mean_out = float(a @ mu + solve @ (v - b @ mu))
    return GaussianConditional(mean_out, variance, provenance="linear-constraint")


@dataclass(frozen=True)
class Ma1GramIdentities:
    """Determinant and corner-inverse identities of the two-tap Gram matrix.

    The Gram matrix of ``n`` consecutive values of the two-tap chain is
    tridiagonal with ``1 + coeff**2`` on the diagonal and ``coeff`` off it
    (times the coupling variance).  Its determinant satisfies
    ``D_n = (1 + coeff**2) D_{n-1} - coeff**2 D_{n-2}``, ``D_0 = 1``, and the
    (1,1) and (n,n) entries of the inverse both equal ``D_{n-1} / D_n``.
    """

    size: int
    coeff: float
    det_numeric: float
    det_recurrence: float
    corner_first: float
    corner_last: float
    determinants: tuple


def _gram_determinants(coeff: float, n: int) -> np.ndarray:
    d = np.empty(n + 1)
    d[0] = 1.0
    if n >= 1:
        d[1] = 1.0 + coeff * coeff
    for k in range(2, n + 1):
        d[k] = (1.0 + coeff * coeff) * d[k - 1] - coeff * coeff * d[k - 2]
    return d


def _gram_matrix(coeff: float, n: int) -> np.ndarray:
    t = np.diag(np.full(n, 1.0 + coeff * coeff))
    idx = np.arange(n - 1)
    t[idx, idx + 1] = coeff
    t[idx + 1, idx] = coeff
    return t


def ma1_gram_identities(n: int, coeff: float) -> Ma1GramIdentities:
    """Numerically check the determinant recurrence and corner entries."""
    if n < 1:
        raise ValidationError("need at least one chain value")
    dets = _gram_determinants(coeff, n)
    t = _gram_matrix(coeff, n)
    det_num = float(np.linalg.det(t))
    e_first = np.zeros(n)
    e_first[0] = 1.0
    e_last = np.zeros(n)
    e_last[-1] = 1.0
    corner_first = float(np.linalg.solve(t, e_first)[0])
    corner_last = float(np.linalg.solve(t, e_last)[-1])
    return Ma1GramIdentities(
        size=n,
        coeff=coeff,
        det_numeric=det_num,
        det_recurrence=float(dets[n]),
        corner_first=corner_first,
        corner_last=corner_last,
        determinants=tuple(dets),
    )


def condition_ma1_center_direct(
    coeff: float,
    sigma: float,
    right: Sequence[float] = (),
    left: Sequence[float] = (),
) -> GaussianConditional:
    """Same conditional law as :func:`condition_ma1_center`, no closed form.

    Builds the explicit coupling vector ``(omega_{-m}, ..., omega_{l+1})``
    with its bidiagonal constraint rows and delegates to
    :func:`condition_gaussian_linear`.  Serves as the independent route the
    closed form is checked against.
    """
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    v_right = np.asarray(right, dtype=float)
    v_left = np.asarray(left, dtype=float)
    l, m = v_right.size, v_left.size
    size = l + m + 2
    a = np.zeros(size)
    a[m] = 1.0
    a[m + 1] = coeff
    b = np.zeros((l + m, size))
    for k in range(m):
        b[k, k] = 1.0
        b[k, k + 1] = coeff
    for k in range(l):
        b[m + k, m + 1 + k] = 1.0
        b[m + k, m + 2 + k] = coeff
    observed = np.concatenate([v_left, v_right])
    out = condition_gaussian_linear(
        np.zeros(size), sigma * sigma * np.eye(size), a, b, observed
    )
    return GaussianConditional(out.mean, out.variance, provenance="direct-conditioning")


def condition_ma1_center(
    coeff: float,
    sigma: float,
    right: Sequence[float] = (),
    left: Sequence[float] = (),
) -> GaussianConditional:
    """Conditional law of the center value of a two-tap Gaussian chain.

    The chain is ``field(k) = omega_k + coeff * omega_{k+1}`` with i.i.d.
    centered normal couplings of standard deviation ``sigma``.  Conditioning
    is on the ``len(right)`` field values immediately to the right of the
    center and the ``len(left)`` values immediately to the left (``left`` is
    ordered left to right, so its last entry is the nearest neighbor).

    Closed form: with ``D_k`` the Gram determinants, the variance is
    ``sigma**2 (coeff**2 - 1 + 1/D_m + 1/D_l)`` and the mean contracts the
    observed values against the corner rows of the inverse Gram matrices.
    The literal geometric-sum reading of the determinants (starting the sum
    at index 1 instead of 0) fails the cross-check below for every l >= 1;
    the recurrence value is the one consistent with direct conditioning.

    The result is always cross-checked against
    :func:`condition_gaussian_linear` on the same data; disagreement beyond
    1e-8 raises :class:`NumericalError`.
    """
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    v_right = np.asarray(right, dtype=float)
    v_left = np.asarray(left, dtype=float)
    l, m = v_right.size, v_left.size
    dets = _gram_determinants(coeff, max(l, m))
    var = sigma * sigma * (coeff * coeff - 1.0 + 1.0 / dets[m] + 1.0 / dets[l])
    mean = 0.0
    if m:
        t_m = _gram_matrix(coeff, m)
        e_last = np.zeros(m)
        e_last[-1] = 1.0
        mean += coeff * float(np.linalg.solve(t_m, e_last) @ v_left)
    if l:
        t_l = _gram_matrix(coeff, l)
        e_first = np.zeros(l)
        e_first[0] = 1.0
        mean += coeff * float(np.linalg.solve(t_l, e_first) @ v_right)

    ref = condition_ma1_center_direct(coeff, sigma, right, left)
    if abs(ref.mean - mean) > 1e-8 * max(1.0, abs(mean)) or abs(ref.variance - var) > 1e-8 * max(
        1.0, var
    ):
        raise NumericalError(
            f"chain closed form ({mean!r}, {var!r}) disagrees with direct conditioning "
            f"({ref.mean!r}, {ref.variance!r})"
        )
    if abs(abs(coeff) - 1.0) > 1e-12:
        floor = sigma * sigma * abs(coeff * coeff - 1.0)
        if var < floor - 1e-10 * max(1.0, floor):
            raise NumericalError("conditional variance fell below its structural floor")
    return GaussianConditional(mean, var, provenance="ma1-closed-form")
