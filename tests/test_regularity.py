import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import alloysim as al
from alloysim import (
    AlloyModel,
    BandEvent,
    PinEvent,
    build_single_site,
    condition_gaussian_linear,
    condition_ma1_center,
    condition_ma1_center_direct,
    conditional_concentration_mc,
    ma1_gram_identities,
    pinning_certificate,
    uniform_pair_concentration,
)
from alloysim.errors import NumericalError
from alloysim.regularity import (
    _BATCH,
    _LIFT_ROWS,
    _disjoint_groups,
    _gibbs_sample_event,
    _sample_groups,
    _site_weight_vector,
)
from alloysim.rng import stream_rng


def _reference_gibbs(measure, w_event, ev_lo, ev_hi, n_target, seed, chains, burn_in, thin):
    """The Gibbs sampler in its plain form, one fresh temporary per step: the
    oracle the in-place sweep must match bit for bit."""
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
    kept_per_chain = -(-n_target // chains)
    kept_y = np.empty((kept_per_chain, chains, n_con))
    kept = 0
    sweep = 0
    tiny = 1e-15
    while kept < kept_per_chain:
        for i in range(n_con):
            cross = (y - y_mean) @ precision[i] - precision[i, i] * (y[:, i] - y_mean[i])
            mu = y_mean[i] - cross / precision[i, i]
            za = ndtr((ev_lo[i] - mu) / cond_sd[i])
            zb = ndtr((ev_hi[i] - mu) / cond_sd[i])
            q = np.clip(za + rng.random(chains) * (zb - za), tiny, 1 - tiny)
            new = mu + cond_sd[i] * ndtri(q)
            y[:, i] = np.clip(new, ev_lo[i], ev_hi[i])  # CDF round-off guard
        sweep += 1
        if sweep > burn_in and (sweep - burn_in) % thin == 0:
            kept_y[kept] = y
            kept += 1
    ys = kept_y.reshape(-1, n_con)[:n_target]

    draws = center + sigma * rng.standard_normal((len(ys), m))
    resid = ys - draws @ w_event.T
    return draws + resid @ np.linalg.solve(gram, sigma * sigma * w_event)


def _reference_rejection(measure, w_event, ev_lo, ev_hi, n_target, seed, max_draws, batch):
    """The joint rejection sampler as it stood before the box sampler: the
    oracle for rejection that finishes within one batch."""
    m = w_event.shape[1]
    kept, total, stream = [], 0, 0
    n_kept = 0
    while n_kept < n_target:
        if total >= max_draws:
            raise NumericalError(
                f"rejection sampler accepted {n_kept}/{n_target} after {total} draws "
                "(acceptance too small: widen the event band or use the "
                "stratified/gibbs sampler)"
            )
        rng = stream_rng(seed, stream)
        stream += 1
        omega = measure.sample(rng, batch * m).reshape(batch, m)
        eta = omega @ w_event.T
        ok = np.all((eta >= ev_lo) & (eta <= ev_hi), axis=1)
        total += batch
        if np.any(ok):
            kept.append(omega[ok])
            n_kept += int(ok.sum())
    return np.concatenate(kept)[:n_target], total


def _reference_stratified(measure, w_event, groups, ev_lo, ev_hi, n_target, seed, max_draws, batch):
    """The stratified sampler as it stood before the box sampler, one group of
    coupling columns per event row: its oracle, bit for bit."""
    m = w_event.shape[1]
    out = np.empty((n_target, m))
    free = np.setdiff1d(np.arange(m), np.concatenate(groups) if groups else [])
    total = 0
    for gi, g in enumerate(groups):
        w_g = w_event[gi, g]
        kept, n_kept, attempt = [], 0, 0
        while n_kept < n_target:
            if total >= max_draws:
                raise NumericalError(
                    f"stratified sampler stalled on conditioned site {gi} after {total} draws"
                )
            rng = stream_rng(seed, gi, attempt)
            attempt += 1
            omega = measure.sample(rng, batch * len(g)).reshape(batch, len(g))
            eta = omega @ w_g
            ok = (eta >= ev_lo[gi]) & (eta <= ev_hi[gi])
            total += batch
            if np.any(ok):
                kept.append(omega[ok])
                n_kept += int(ok.sum())
        out[:, g] = np.concatenate(kept)[:n_target]
    if len(free):
        rng = stream_rng(seed, len(groups))
        out[:, free] = measure.sample(rng, n_target * len(free)).reshape(n_target, len(free))
    return out, total


def _two_tap_rows(centers, m):
    """Event rows of ``omega_k + omega_{k+1}`` at the given column offsets."""
    w = np.zeros((len(centers), m))
    for row, k in enumerate(centers):
        w[row, k] = w[row, k + 1] = 1.0
    return w


class TestExactConcentration:
    def test_closed_form_values(self):
        assert uniform_pair_concentration(1.0) == pytest.approx(0.75)
        assert uniform_pair_concentration(0.5) == pytest.approx(0.5 - 0.0625)
        assert uniform_pair_concentration(2.0) == pytest.approx(1.0)
        assert uniform_pair_concentration(3.0) == 1.0

    def test_vectorized(self):
        eps = np.array([0.5, 1.0, 1.5])
        np.testing.assert_allclose(uniform_pair_concentration(eps), eps - eps**2 / 4)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(al.ValidationError):
            uniform_pair_concentration(0.0)


class TestEmpiricalConcentration:
    def test_matches_exact_flagship(self, flagship_model):
        est = al.concentration_empirical(
            flagship_model, 0, eps=1.0, n_samples=40_000, a_step=0.05, master_seed=31
        )
        assert est.value == pytest.approx(0.75, abs=0.02)

    def test_window_grid_gate(self, flagship_model):
        with pytest.raises(al.ValidationError):
            al.concentration_empirical(
                flagship_model, 0, eps=1.0, n_samples=100, a_step=0.2, master_seed=0
            )

    def test_curve_monotone_in_width(self, flagship_model):
        curve = al.concentration_curve(
            flagship_model, 0, eps_grid=[0.25, 0.5, 1.0, 1.5], n_samples=20_000, master_seed=7
        )
        assert np.all(np.diff(curve.values) > 0)

    def test_curve_matches_empirical_per_width(self, flagship_model):
        eps_grid = [0.3, 0.7, 1.2]
        curve = al.concentration_curve(
            flagship_model, 0, eps_grid=eps_grid, n_samples=5_000, master_seed=8, a_step=0.05
        )
        for eps, value, stderr in zip(eps_grid, curve.values, curve.stderr):
            est = al.concentration_empirical(
                flagship_model, 0, eps=eps, n_samples=5_000, a_step=min(0.05, eps / 10),
                master_seed=8,
            )
            assert value == est.value and stderr == est.stderr

    def test_curve_csv(self, flagship_model, tmp_path):
        curve = al.concentration_curve(
            flagship_model, 0, eps_grid=[0.5, 1.0], n_samples=2_000, master_seed=7
        )
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eps,value,stderr"
        assert len(lines) == 3


class TestConditionalMC:
    def test_event_validation(self):
        with pytest.raises(al.ValidationError):
            BandEvent(sites=(), lo=0.0, hi=1.0)
        with pytest.raises(al.ValidationError):
            BandEvent(sites=((-1,),), lo=1.0, hi=1.0)
        with pytest.raises(al.ValidationError):
            PinEvent(sites=((-1,),), values=(0.0, 1.0), tolerance=0.1)
        with pytest.raises(al.ValidationError):
            PinEvent(sites=((-1,),), values=(0.0,), tolerance=0.0)

    def test_target_site_cannot_be_conditioned(self, flagship_model):
        event = BandEvent(sites=((0,),), lo=1.0, hi=2.0)
        with pytest.raises(al.ValidationError):
            conditional_concentration_mc(flagship_model, 0, (0.0, 1.0), event, 10, 0)

    def test_rejection_and_stratified_agree(self, flagship_model):
        event = BandEvent(sites=((-1,), (1,)), lo=1.0, hi=2.0)
        kwargs = dict(interval=(1.0, 2.0), event=event, n_target=4_000, master_seed=5)
        a = conditional_concentration_mc(flagship_model, 0, sampler="rejection", **kwargs)
        b = conditional_concentration_mc(flagship_model, 0, sampler="stratified", **kwargs)
        assert a.sampler == "rejection" and b.sampler == "stratified"
        joint = math.hypot(a.frequency.stderr, b.frequency.stderr)
        assert abs(a.frequency.value - b.frequency.value) <= 4 * joint + 1e-9

    def test_auto_picks_stratified_for_disjoint_bands(self, flagship_model):
        event = BandEvent(sites=((-1,), (1,)), lo=1.5, hi=2.0)
        res = conditional_concentration_mc(
            flagship_model, 0, (0.0, 2.0), event, n_target=500, master_seed=2
        )
        assert res.sampler == "stratified"
        assert res.n_accepted == 500

    def test_rejection_exhaustion_raises(self, flagship_model, monkeypatch):
        monkeypatch.setattr("alloysim.regularity._MAX_DRAWS", 65_536)
        event = BandEvent(sites=((-1,), (1,)), lo=1.999, hi=2.0)
        with pytest.raises(al.NumericalError):
            conditional_concentration_mc(
                flagship_model,
                0,
                (0.0, 2.0),
                event,
                n_target=100,
                master_seed=3,
                sampler="rejection",
            )

    def test_band_event_pins_center_value(self, flagship_model):
        # the flagship certificate in action: conditioning both neighbors near
        # the top of the band traps the center field value near 2
        delta = 0.05
        event = BandEvent(sites=((-1,), (1,)), lo=2.0 - delta, hi=2.0)
        res = conditional_concentration_mc(
            flagship_model,
            0,
            (2.0 - 2 * delta, 2.0 + 2 * delta),
            event,
            n_target=1_000,
            master_seed=11,
            keep_couplings=True,
        )
        assert res.frequency.value == 1.0
        assert res.couplings is not None and res.couplings.shape[0] == 1_000
        report = res.law_report()
        assert report["n_accepted"] == 1_000

    @pytest.mark.parametrize(
        "centers, m, lo, hi, n_target",
        [
            pytest.param([0], 2, 1.5, 2.0, 300, id="one-group"),
            pytest.param([0, 2, 4], 6, 1.2, 1.9, 400, id="three-groups"),
            pytest.param([0, 3], 6, 0.3, 0.9, 250, id="free-couplings"),
            pytest.param([1], 3, 1.99, 2.0, 5, id="multi-batch"),
        ],
    )
    def test_stratified_matches_reference_bit_for_bit(self, uniform01, centers, m, lo, hi, n_target):
        w_event = _two_tap_rows(centers, m)
        ev_lo, ev_hi = np.full(len(centers), lo), np.full(len(centers), hi)
        groups = _disjoint_groups(w_event)
        out, n_draws = _sample_groups(uniform01, w_event, groups, ev_lo, ev_hi, n_target, 9)
        ref, ref_draws = _reference_stratified(
            uniform01, w_event, [cols for _, cols in groups], ev_lo, ev_hi, n_target, 9, 10**8, _BATCH
        )
        assert np.array_equal(out, ref) and n_draws == ref_draws
        if hi - lo < 0.1:  # the narrow band needs more than one batch
            assert n_draws > _BATCH

    def test_rejection_within_one_batch_matches_reference(self, uniform01):
        w_event = _two_tap_rows([0, 1], 3)  # overlapping rows: no stratification
        ev_lo, ev_hi = np.array([0.8, 1.0]), np.array([1.4, 1.6])
        groups = [(np.arange(2), np.arange(3))]
        out, n_draws = _sample_groups(uniform01, w_event, groups, ev_lo, ev_hi, 500, 4)
        ref, ref_draws = _reference_rejection(uniform01, w_event, ev_lo, ev_hi, 500, 4, 10**8, _BATCH)
        assert n_draws == ref_draws == _BATCH
        assert np.array_equal(out, ref)

    def test_multi_batch_rejection_draws_batch_a_from_stream_0_a(self, flagship_model):
        # rejection is the box sampler with one group, so its later batches
        # come from stream (seed, 0, a), where they once came from (seed, a)
        event = BandEvent(sites=((-1,), (1,)), lo=1.9, hi=2.0)
        res = conditional_concentration_mc(
            flagship_model, 0, (0.0, 2.0), event, n_target=30, master_seed=6,
            sampler="rejection", keep_couplings=True,
        )
        w_event = _two_tap_rows([0, 2], 4)  # couplings -2..1, sites -1 and 1
        kept, a = [], 0
        while sum(map(len, kept)) < 30:
            omega = flagship_model.measure.sample(stream_rng(6, 0, a), _BATCH * 4).reshape(_BATCH, 4)
            eta = omega @ w_event.T
            kept.append(omega[np.all((eta >= 1.9) & (eta <= 2.0), axis=1)])
            a += 1
        assert a > 1 and res.n_draws == a * _BATCH
        assert res.acceptance_rate == 30 / (a * _BATCH)
        assert np.array_equal(res.couplings, np.concatenate(kept)[:30])

    def test_event_and_target_sites_must_be_lattice_points(self, flagship_model):
        # non-integer sites were once truncated to the neighbouring integers
        ok_event = BandEvent(sites=((-1,), (1,)), lo=1.0, hi=2.0)
        for site, event in [
            (0.6, ok_event),
            (0, BandEvent(sites=([-1.4], [1.2]), lo=1.0, hi=2.0)),
            (0, BandEvent(sites=((-1, 0), (1, 0)), lo=1.0, hi=2.0)),
        ]:
            with pytest.raises(al.ValidationError):
                conditional_concentration_mc(flagship_model, site, (0.0, 1.0), event, 10, 0)

    def test_gibbs_matches_closed_form(self, two_tap, gaussian01):
        model = AlloyModel(potential=two_tap, measure=gaussian01, lam=1.0)
        event = PinEvent(sites=((-1,), (1,)), values=(0.3, -0.2), tolerance=0.05)
        res = conditional_concentration_mc(
            model,
            0,
            (-10.0, 10.0),
            event,
            n_target=4_000,
            master_seed=17,
            chains=64,
            burn_in=150,
            thin=2,
        )
        assert res.sampler == "gibbs"
        closed = condition_ma1_center(1.0, 1.0, right=[-0.2], left=[0.3])
        assert res.eta_mean == pytest.approx(closed.mean, abs=0.08)
        assert res.eta_var == pytest.approx(closed.variance, rel=0.12)

    @pytest.mark.parametrize(
        "n_con, m, chains, n_target, burn_in, thin",
        [
            pytest.param(1, 3, 8, 40, 5, 2, id="one-site"),
            pytest.param(3, 5, 1, 7, 4, 2, id="one-chain"),
            pytest.param(4, 6, 5, 23, 3, 2, id="ragged-target"),
            pytest.param(3, 5, 8, 32, 6, 1, id="thin-1"),
            pytest.param(3, 5, 8, 32, 0, 3, id="no-burn-in"),
            pytest.param(6, 9, 16, 90, 7, 3, id="dense-6"),
        ],
    )
    def test_gibbs_matches_reference_bit_for_bit(self, n_con, m, chains, n_target, burn_in, thin):
        # dense random weights and bands that are not symmetric about the mean
        rs = np.random.default_rng(1000 * n_con + chains)
        w_event = rs.normal(size=(n_con, m))
        lo = rs.normal(size=n_con)
        hi = lo + rs.uniform(0.05, 1.5, size=n_con)
        measure = al.CouplingMeasure.gaussian(0.3, 2.0)
        args = (measure, w_event, lo, hi, n_target, 23, chains, burn_in, thin)
        out = np.concatenate(list(_gibbs_sample_event(*args)))
        assert out.shape == (n_target, m)
        assert np.array_equal(out, _reference_gibbs(*args))

    def test_gibbs_matches_reference_on_pinned_chain(self, gaussian01):
        # the suite's pin event: two-tap chain, sites -5..5 but 0, |tau| band
        sites = [k for k in range(-5, 6) if k != 0]
        w_event = np.zeros((len(sites), len(sites) + 2))
        for row, k in enumerate(sites):
            w_event[row, k + 5] = w_event[row, k + 6] = 1.0
        tau = np.full(len(sites), 0.08)
        args = (gaussian01, w_event, -tau, tau, 600, 5, 64, 20, 3)
        out = np.concatenate(list(_gibbs_sample_event(*args)))
        assert np.array_equal(out, _reference_gibbs(*args))

    @pytest.mark.parametrize(
        "bad",
        [
            {"chains": 0},
            {"thin": 0},
            {"burn_in": -1},
        ],
    )
    def test_gibbs_rejects_bad_chain_settings_before_drawing(
        self, two_tap, gaussian01, monkeypatch, bad
    ):
        def no_draws(*args):
            raise AssertionError("a stream was derived before validation")

        monkeypatch.setattr("alloysim.regularity.stream_rng", no_draws)
        model = AlloyModel(potential=two_tap, measure=gaussian01, lam=1.0)
        settings = {"sampler": "gibbs", "chains": 4, "burn_in": 2, "thin": 1, **bad}
        event = PinEvent(sites=((-1,), (1,)), values=(0.3, -0.2), tolerance=0.05)
        with pytest.raises(al.ValidationError, match=next(iter(bad))):
            conditional_concentration_mc(model, 0, (-1.0, 1.0), event, 10, 0, **settings)

    def test_gibbs_requires_gaussian(self, flagship_model):
        event = PinEvent(sites=((-1,),), values=(1.0,), tolerance=0.1)
        with pytest.raises(al.ValidationError):
            conditional_concentration_mc(
                flagship_model, 0, (0.0, 2.0), event, 100, 0, sampler="gibbs"
            )


# Row counts at and around the lift's block edges, plus a one-row run.
_LIFT_EDGES = [
    1,
    _LIFT_ROWS - 1,
    _LIFT_ROWS,
    _LIFT_ROWS + 1,
    _LIFT_ROWS + 2,
    2 * _LIFT_ROWS + 1,
    3 * _LIFT_ROWS + 17,
]


def _pin_event_rows(sites):
    """A Gaussian two-tap chain, its field weights at the pinned ``sites``
    and its weights at the target site 0."""
    model = AlloyModel(
        al.build_single_site(1, {(0,): 1.0, (1,): 1.0}), al.CouplingMeasure.gaussian(0.2, 1.5), 1.0
    )
    _, weights = _site_weight_vector(model, [(k,) for k in sites] + [(0,)])
    return model, weights[:-1], weights[-1]


class TestGibbsLiftBlocks:
    @pytest.mark.parametrize("n_target", _LIFT_EDGES)
    @pytest.mark.parametrize("n_con, m", [(1, 1), (3, 5), (10, 12)])
    def test_blocks_concatenate_to_reference(self, n_target, n_con, m):
        rs = np.random.default_rng(100 * n_con + m)
        w_event = rs.normal(size=(n_con, m))
        lo = rs.normal(size=n_con)
        hi = lo + rs.uniform(0.05, 1.5, size=n_con)
        measure = al.CouplingMeasure.gaussian(-0.4, 1.7)
        args = (measure, w_event, lo, hi, n_target, 31, 256, 2, 1)
        blocks = list(_gibbs_sample_event(*args))
        sizes = [len(b) for b in blocks]
        assert sizes[:-1] == [_LIFT_ROWS] * (len(blocks) - 1)
        # a one-row block only when the whole run is one row
        assert sizes[-1] >= 2 or n_target == 1
        assert sizes[-1] <= _LIFT_ROWS + 1
        assert np.array_equal(np.concatenate(blocks), _reference_gibbs(*args))

    @pytest.mark.parametrize("n_target", _LIFT_EDGES)
    @pytest.mark.parametrize(
        "sites", [[1], [-2, -1, 2], [k for k in range(-5, 6) if k != 0]], ids=["1", "3", "10"]
    )
    def test_eta_and_couplings_match_reference(self, n_target, sites):
        model, w_event, w_target = _pin_event_rows(sites)
        values = np.full(len(sites), 0.1)
        event = PinEvent(sites=[(k,) for k in sites], values=values, tolerance=0.08)
        ref = _reference_gibbs(
            model.measure, w_event, values - 0.08, values + 0.08, n_target, 7, 256, 2, 1
        )
        res = conditional_concentration_mc(
            model, 0, (-0.5, 0.5), event, n_target, 7,
            sampler="gibbs", chains=256, burn_in=2, thin=1, keep_couplings=True,
        )
        assert np.array_equal(res.eta_values, ref @ w_target)
        assert np.array_equal(res.couplings, ref)

    def test_peak_memory_is_kept_fields_plus_one_block(self, two_tap, gaussian01):
        # the suite's pin event: two-tap chain, sites -5..5 but 0
        sites = [k for k in range(-5, 6) if k != 0]
        model = AlloyModel(two_tap, gaussian01, 1.0)
        event = PinEvent(sites=[(k,) for k in sites], values=[0.0] * len(sites), tolerance=0.08)
        n_target, n_con = 60_000, len(sites)
        tracemalloc.start()
        try:
            conditional_concentration_mc(
                model, 0, (-1.0, 1.0), event, n_target, 0,
                sampler="gibbs", chains=256, burn_in=0, thin=1,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # kept_y alone is n_target * n_con * 8 bytes; one block and eta fit beside it
        assert peak < 2 * n_target * n_con * 8


class TestPinningCertificate:
    def manual_flagship_couplings(self, delta_prime):
        # both neighbors of the center satisfy the band, all pinned couplings
        # sit within delta_prime of 1
        w = 0.4 * delta_prime
        return {-2: 1.0 - w, -1: 1.0 - w, 0: 1.0 - w, 1: 1.0 - w}

    def test_flagship_pass(self, two_tap):
        report = pinning_certificate(two_tap, 0.05, 0.05, self.manual_flagship_couplings(0.05))
        assert report.passed
        assert report.center == pytest.approx(2.0)
        assert report.slope == pytest.approx(2.0)
        assert report.target[0] == pytest.approx(2.0 - 2 * 0.05)
        assert not report.violations

    def test_flagship_failure_names_coupling(self, two_tap):
        couplings = self.manual_flagship_couplings(0.05)
        couplings[-1] = 0.5  # break the left band
        report = pinning_certificate(two_tap, 0.05, 0.05, couplings)
        assert not report.passed
        violated_indices = {v[0] for v in report.violations}
        assert -1 in violated_indices

    def test_sign_changing_profile(self):
        u = build_single_site(1, [((0,), 2.0), ((1,), -1.0)])
        # band events at -1 and 1 pin omega(-1), omega(1) near 1 and
        # omega(-2), omega(0) near 0; the center value lands near -1
        couplings = {-2: 0.01, -1: 0.999, 0: 0.01, 1: 0.995}
        report = pinning_certificate(u, 0.05, 0.05, couplings)
        assert report.passed
        assert report.center == pytest.approx(-1.0)
        assert report.slope == pytest.approx(4.0)
        # the center field value is u(0) omega(0) + u(1) omega(-1)
        assert report.center_value == pytest.approx(2 * 0.01 - 0.999)
        assert report.target == (pytest.approx(-1.2), pytest.approx(-0.8))

    def test_accepted_samples_all_pass(self, flagship_model):
        delta = 0.05
        event = BandEvent(sites=((-1,), (1,)), lo=2.0 - delta, hi=2.0)
        res = conditional_concentration_mc(
            flagship_model,
            0,
            (1.9, 2.0),
            event,
            n_target=200,
            master_seed=23,
            keep_couplings=True,
        )
        cindex = {tuple(p): i for i, p in enumerate(res.coupling_points)}
        for row in res.couplings:
            lookup = {k: row[cindex[(k,)]] for k in (-2, -1, 0, 1)}
            report = pinning_certificate(flagship_model.potential, delta, delta, lookup)
            assert report.passed

    def test_parameter_gates(self, two_tap):
        with pytest.raises(al.ValidationError):
            pinning_certificate(two_tap, 0.05, 0.1, {})
        u = build_single_site(1, [((-1,), 1.0), ((1,), 1.0)])
        with pytest.raises(al.ValidationError):
            pinning_certificate(u, 0.05, 0.05, {})


class TestGaussianConditioning:
    def test_bivariate_oracle(self):
        # classic closed form: X1 | X2 = v is normal(rho v, 1 - rho^2)
        rho = 0.6
        cov = np.array([[1.0, rho], [rho, 1.0]])
        out = condition_gaussian_linear([0, 0], cov, [1, 0], np.array([[0.0, 1.0]]), [0.8])
        assert out.mean == pytest.approx(rho * 0.8)
        assert out.variance == pytest.approx(1 - rho * rho)

    def test_empty_constraints_return_unconditioned(self):
        cov = np.diag([2.0, 3.0])
        out = condition_gaussian_linear([1.0, -1.0], cov, [1.0, 1.0], np.zeros((0, 2)), [])
        assert out.provenance == "unconditioned"
        assert out.mean == pytest.approx(0.0)
        assert out.variance == pytest.approx(5.0)

    def test_degenerate_constraints_raise(self):
        cov = np.eye(2)
        rows = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(al.NumericalError):
            condition_gaussian_linear([0, 0], cov, [0, 1], rows, [0.0, 0.0])

    def test_shape_validation(self):
        with pytest.raises(al.ValidationError):
            condition_gaussian_linear([0, 0], np.eye(3), [1, 0], np.zeros((0, 2)), [])

    def test_conditioning_reduces_variance(self, rng):
        n = 5
        a_mat = rng.normal(size=(n, n))
        cov = a_mat @ a_mat.T + n * np.eye(n)
        w = rng.normal(size=n)
        base = condition_gaussian_linear(np.zeros(n), cov, w, np.zeros((0, n)), [])
        conditioned = condition_gaussian_linear(
            np.zeros(n), cov, w, rng.normal(size=(2, n)), rng.normal(size=2)
        )
        assert conditioned.variance <= base.variance + 1e-12

    def test_variance_clip_and_guard(self):
        clipped = al.GaussianConditional(0.0, -5e-11)
        assert clipped.variance == 0.0
        with pytest.raises(al.NumericalError):
            al.GaussianConditional(0.0, -1e-9)


class TestMa1Identities:
    def test_small_determinants(self):
        out = ma1_gram_identities(1, 2.0)
        assert out.det_recurrence == pytest.approx(5.0)
        out = ma1_gram_identities(2, 1.0)
        assert out.det_recurrence == pytest.approx(3.0)
        assert out.determinants == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("coeff", [0.3, 1.0, -1.5, 3.0])
    def test_recurrence_matches_numeric_determinant(self, coeff):
        for n in [1, 2, 5, 20, 50]:
            out = ma1_gram_identities(n, coeff)
            assert out.det_numeric == pytest.approx(out.det_recurrence, rel=1e-9)

    @pytest.mark.parametrize("coeff", [0.5, 1.0, 2.0])
    def test_corner_inverse_entries(self, coeff):
        for n in [1, 3, 10]:
            out = ma1_gram_identities(n, coeff)
            expected = out.determinants[n - 1] / out.determinants[n]
            assert out.corner_first == pytest.approx(expected, rel=1e-10)
            assert out.corner_last == pytest.approx(expected, rel=1e-10)

    def test_unit_coeff_closed_form(self):
        # with coeff 1 the determinants are 1, 2, 3, ...
        out = ma1_gram_identities(6, 1.0)
        assert out.determinants == tuple(float(k) for k in range(1, 8))


class TestMa1Conditioning:
    def test_uncoupled_chain(self):
        out = condition_ma1_center(0.0, 1.3, right=[0.5])
        assert out.mean == pytest.approx(0.0)
        assert out.variance == pytest.approx(1.3**2)

    def test_zero_observations_zero_mean(self):
        out = condition_ma1_center(1.0, 1.0, right=[0.0, 0.0], left=[0.0, 0.0, 0.0])
        assert out.mean == pytest.approx(0.0)

    def test_symmetric_window_unit_coeff(self):
        # five values on each side: variance sigma^2 (1/6 + 1/6) = 1/3
        out = condition_ma1_center(1.0, 1.0, right=[0.0] * 5, left=[0.0] * 5)
        assert out.variance == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_pin_limit_scaling(self):
        # symmetric windows with unit coeff: variance 2 sigma^2 / (l + 1)
        for l in [1, 4, 9]:
            out = condition_ma1_center(1.0, 2.0, right=[0.1] * l, left=[0.1] * l)
            assert out.variance == pytest.approx(2 * 4.0 / (l + 1), rel=1e-12)

    def test_variance_floor(self):
        out = condition_ma1_center(2.0, 1.0, right=[0.3] * 6, left=[-0.2] * 6)
        assert out.variance >= abs(2.0**2 - 1.0)

    def test_closed_form_matches_direct_on_grid(self, rng):
        for coeff in [0.5, 1.0, 2.0]:
            for l in range(4):
                for m in range(4):
                    right = rng.normal(size=l)
                    left = rng.normal(size=m)
                    closed = condition_ma1_center(coeff, 1.0, right=right, left=left)
                    direct = condition_ma1_center_direct(coeff, 1.0, right=right, left=left)
                    assert closed.mean == pytest.approx(direct.mean, abs=1e-10)
                    assert closed.variance == pytest.approx(direct.variance, abs=1e-10)

    def test_nearest_neighbor_mean(self):
        # single right observation v: mean = coeff v / (1 + coeff^2)
        coeff, v = 0.7, 1.1
        out = condition_ma1_center(coeff, 1.0, right=[v])
        assert out.mean == pytest.approx(coeff * v / (1 + coeff * coeff))

    def test_sigma_validation(self):
        with pytest.raises(al.ValidationError):
            condition_ma1_center(1.0, 0.0, right=[0.0])
