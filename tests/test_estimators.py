import importlib.util
import itertools
import json
import math
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import alloysim as al
from alloysim import AlloyModel, build_single_site, build_volume, estimators, experiments, lattice
from alloysim import field as field_module
from alloysim.estimators import _MAX_ATTEMPTS, _block_size, _realizations


@pytest.fixture
def one_site_model(delta_profile, uniform01):
    return AlloyModel(potential=delta_profile, measure=uniform01, lam=1.0)


@pytest.fixture
def free_model(two_tap, uniform01):
    return AlloyModel(potential=two_tap, measure=uniform01, lam=0.0)


class TestFractionalMoment:
    def test_one_site_quadrature_oracle(self, one_site_model):
        # on the single-point volume G(i; 0, 0) = 1/(omega - i), so the
        # moment is the explicit integral of (omega^2 + 1)^(-s/2)
        vol = build_volume(1, radius=0)
        s = 0.5
        est = al.fractional_moment(one_site_model, vol, 1j, 0, 0, s, 20_000, master_seed=40)
        oracle = integrate.quad(lambda w: (w * w + 1) ** (-s / 2), 0.0, 1.0)[0]
        assert abs(est.value - oracle) <= 3 * est.stderr

    def test_small_s_approaches_one(self, one_site_model):
        vol = build_volume(1, radius=0)
        est = al.fractional_moment(one_site_model, vol, 1j, 0, 0, 0.01, 2_000, master_seed=41)
        assert est.value == pytest.approx(1.0, abs=0.02)

    def test_stderr_scales_with_samples(self, anderson_gaussian):
        vol = build_volume(1, radius=4)
        small = al.fractional_moment(anderson_gaussian, vol, 0.5 + 0.1j, 0, 1, 0.5, 2_000, 42)
        large = al.fractional_moment(anderson_gaussian, vol, 0.5 + 0.1j, 0, 1, 0.5, 8_000, 42)
        ratio = large.stderr / small.stderr
        assert 0.37 <= ratio <= 0.68

    def test_bound_metadata(self, anderson_gaussian):
        vol = build_volume(1, radius=3)
        est = al.fractional_moment(anderson_gaussian, vol, 0.1j, 0, 0, 0.5, 100, 43)
        # delta profile has a single-point support: no uniform bound constants
        assert est.metadata["bound"] is None
        assert "single-point" in est.metadata["bound_note"]

    def test_bound_metadata_two_tap(self, two_tap, cosine01):
        model = AlloyModel(potential=two_tap, measure=cosine01, lam=10.0)
        vol = build_volume(1, radius=3)
        est = al.fractional_moment(model, vol, 0.1j, 0, 0, 0.5, 100, 44)
        consts = al.uniform_bound_constants(two_tap, 0.5, cosine01)
        assert est.metadata["bound"] == pytest.approx(consts.bound(10.0))

    def test_invalid_s(self, one_site_model):
        vol = build_volume(1, radius=0)
        with pytest.raises(al.ValidationError):
            al.fractional_moment(one_site_model, vol, 1j, 0, 0, 1.0, 10, 0)

    def test_outside_point_rejected(self, one_site_model):
        vol = build_volume(1, radius=0)
        with pytest.raises(al.ValidationError):
            al.fractional_moment(one_site_model, vol, 1j, 0, 3, 0.5, 10, 0)

    @pytest.mark.parametrize("x, y", [([0.5], [0.7]), (0, 1.5), (0, [0, 1])])
    def test_non_integer_point_rejected(self, anderson_gaussian, x, y):
        # these used to be truncated to sites 0 and 1 while the metadata
        # recorded the points as given
        vol = build_volume(1, radius=3)
        with pytest.raises(al.ValidationError):
            al.fractional_moment(anderson_gaussian, vol, 1j, x, y, 0.5, 10, 0)

    def test_determinism(self, anderson_gaussian):
        vol = build_volume(1, radius=4)
        a = al.fractional_moment(anderson_gaussian, vol, 0.3 + 0.1j, 0, 2, 0.5, 500, 7)
        b = al.fractional_moment(anderson_gaussian, vol, 0.3 + 0.1j, 0, 2, 0.5, 500, 7)
        assert a.value == b.value and a.stderr == b.stderr


class TestDecayProfile:
    def test_distance_zero_matches_fractional_moment(self, anderson_gaussian):
        vol = build_volume(1, radius=5)
        z = 0.2 + 0.1j
        profile = al.green_decay_profile(
            anderson_gaussian, vol, z, 0, [[0], [1], [2], [3]], 0.5, 400, master_seed=50
        )
        direct = al.fractional_moment(anderson_gaussian, vol, z, 0, 0, 0.5, 400, master_seed=50)
        assert profile.estimates[0].value == direct.value
        assert profile.estimates[0].stderr == direct.stderr

    def test_disordered_decay_fit(self, anderson_gaussian):
        vol = build_volume(1, radius=8)
        profile = al.green_decay_profile(
            anderson_gaussian,
            vol,
            0.0 + 0.05j,
            0,
            [[k] for k in range(1, 7)],
            0.3,
            600,
            master_seed=51,
        )
        assert profile.rate > 0
        assert profile.r_squared > 0.9
        assert profile.distances.tolist() == [1, 2, 3, 4, 5, 6]

    def test_free_model_still_profiles(self, free_model):
        # no disorder: draws are all identical, the bound is unavailable but
        # the profile and fit still make sense
        vol = build_volume(1, radius=8)
        profile = al.green_decay_profile(
            free_model, vol, 1j, 0, [[k] for k in range(5)], 0.5, 5, master_seed=52
        )
        assert profile.rate > 0
        assert profile.r_squared > 0.99
        for est in profile.estimates:
            assert est.stderr <= 1e-15

    def test_all_noise_raises(self, anderson_gaussian):
        # distances so deep that every estimate drowns in Monte Carlo noise
        vol = build_volume(1, radius=10)
        with pytest.raises(al.NumericalError):
            al.green_decay_profile(
                anderson_gaussian,
                vol,
                0.0 + 0.01j,
                -10,
                [[17], [18], [19]],
                0.5,
                30,
                master_seed=53,
            )

    def test_outside_offset_names_the_point(self, anderson_gaussian):
        vol = build_volume(1, radius=4)
        with pytest.raises(al.ValidationError, match=r"^point \(5,\) is outside the volume$"):
            al.green_decay_profile(anderson_gaussian, vol, 0.1j, 0, [[1], [5]], 0.5, 10, 0)

    @pytest.mark.parametrize("x, offsets", [(0, [[1], [1.5], [2]]), ([0.5], [[1], [2], [3]])])
    def test_non_integer_point_rejected(self, anderson_gaussian, x, offsets):
        vol = build_volume(1, radius=5)
        with pytest.raises(al.ValidationError):
            al.green_decay_profile(anderson_gaussian, vol, 0.1j, x, offsets, 0.5, 10, 0)

    def test_csv(self, anderson_gaussian, tmp_path):
        vol = build_volume(1, radius=4)
        profile = al.green_decay_profile(
            anderson_gaussian, vol, 0.1j, 0, [[0], [1], [2]], 0.5, 50, master_seed=54
        )
        path = tmp_path / "decay.csv"
        profile.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "distance,value,stderr"
        assert len(lines) == 4


class TestWegnerCount:
    def test_whole_spectrum_counts_everything(self, anderson_gaussian):
        vol = build_volume(1, radius=3)
        est = al.wegner_count(anderson_gaussian, vol, [(-1e4, 1e4)], 50, master_seed=60)[0]
        assert est.value == len(vol)
        assert est.stderr == 0.0

    def test_far_interval_counts_nothing(self, anderson_gaussian):
        vol = build_volume(1, radius=3)
        est = al.wegner_count(anderson_gaussian, vol, [(1e5, 2e5)], 50, master_seed=61)[0]
        assert est.value == 0.0

    def test_implied_constant_metadata(self, flagship_model):
        vol = build_volume(1, radius=4)
        est = al.wegner_count(flagship_model, vol, [(1.0, 2.0)], 200, master_seed=62)[0]
        meta = est.metadata
        assert meta["volume_exponent_correction"] == 0
        assert meta["rho_total_variation"] == pytest.approx(2.0)
        expected_scale = (1.0 / 1.0) * 2.0 * 1.0 * 9 ** (2 * 1 + 0)
        assert meta["bound_scale"] == pytest.approx(expected_scale)
        assert meta["implied_constant"] == pytest.approx(est.value / expected_scale)

    def test_additive_in_disjoint_intervals(self, anderson_gaussian):
        vol = build_volume(1, radius=4)
        whole, left, right = al.wegner_count(
            anderson_gaussian, vol, [(-30.0, 30.0), (-30.0, 0.0), (0.0, 30.0)], 100, master_seed=63
        )
        assert left.value + right.value == pytest.approx(whole.value, abs=1e-12)

    def test_degenerate_interval_rejected(self, anderson_gaussian):
        vol = build_volume(1, radius=2)
        with pytest.raises(al.ValidationError):
            al.wegner_count(anderson_gaussian, vol, [(1.0, 1.0)], 10, 0)


class TestMinamiDeterminant:
    def test_determinants_stay_psd(self, anderson_gaussian):
        vol = build_volume(1, radius=5)
        (est,) = al.minami_determinant(
            anderson_gaussian, vol, 0.0 + 0.05j, 0, 3, [anderson_gaussian.lam], 400, master_seed=70
        )
        assert est.metadata["min_det"] >= -1e-10
        assert est.value >= 0

    def test_bound_formula(self, anderson_gaussian):
        vol = build_volume(1, radius=4)
        (est,) = al.minami_determinant(
            anderson_gaussian, vol, 0.1j, 0, 1, [anderson_gaussian.lam], 50, master_seed=71
        )
        cmin = al.minami_bound_constant(anderson_gaussian)
        assert est.metadata["bound"] == pytest.approx((math.pi / 10.0) ** 2 * cmin)
        assert est.value <= est.metadata["bound"] + 3 * est.stderr

    def test_real_energy_rejected(self, anderson_gaussian):
        vol = build_volume(1, radius=3)
        with pytest.raises(al.ValidationError):
            al.minami_determinant(anderson_gaussian, vol, 0.5, 0, 1, [anderson_gaussian.lam], 10, 0)

    def test_coincident_points_rejected(self, anderson_gaussian):
        vol = build_volume(1, radius=3)
        with pytest.raises(al.ValidationError):
            al.minami_determinant(anderson_gaussian, vol, 0.1j, 1, 1, [anderson_gaussian.lam], 10, 0)

    def test_bound_constant_value(self, anderson_gaussian):
        # delta profile: C_u = 1; gaussian norms in closed form
        norms = al.density_norms(anderson_gaussian.measure)
        expected = 0.25 * max(norms.grad_l1**2, norms.hess_l1)
        assert al.minami_bound_constant(anderson_gaussian) == pytest.approx(expected)

    def test_atomic_measure_has_no_constant(self, delta_profile):
        model = AlloyModel(
            potential=delta_profile, measure=al.CouplingMeasure.bernoulli(0.5), lam=1.0
        )
        with pytest.raises(al.NoDensityError):
            al.minami_bound_constant(model)


class TestTwoLevel:
    def test_whole_band_saturates(self, anderson_gaussian):
        vol = build_volume(1, radius=2)
        out = al.two_level_probability(anderson_gaussian, vol, (-1e4, 1e4), 30, master_seed=80)
        n = len(vol)
        assert out.p_two.value == 1.0
        assert out.half_moment.value == pytest.approx(0.5 * n * (n - 1))

    def test_pointwise_chain_inequality(self, anderson_gaussian):
        vol = build_volume(1, radius=5)
        out = al.two_level_probability(anderson_gaussian, vol, (-0.5, 0.5), 500, master_seed=81)
        assert out.p_two.value <= out.half_moment.value + 1e-15

    def test_bound_present_for_gaussian(self, anderson_gaussian):
        vol = build_volume(1, radius=4)
        out = al.two_level_probability(anderson_gaussian, vol, (-0.1, 0.1), 50, master_seed=82)
        cmin = al.minami_bound_constant(anderson_gaussian)
        expected = 0.5 * (math.pi / 10.0) ** 2 * cmin * 0.2**2 * len(vol) ** 2
        assert out.bound == pytest.approx(expected)

    def test_bound_absent_without_disorder(self, free_model):
        vol = build_volume(1, radius=2)
        out = al.two_level_probability(free_model, vol, (-0.5, 0.5), 5, master_seed=83)
        assert out.bound is None
        assert "disorder" in out.bound_note


class TestRecursionProbe:
    def test_residuals_and_implied_constants(self, anderson_gaussian):
        vol = build_volume(1, radius=5)
        probe = al.recursion_probe(
            anderson_gaussian, vol, 0.3, -3, 2, 0.5, [5.0, 10.0], 300, master_seed=90
        )
        assert probe.max_residual <= 1e-8
        assert len(probe.rows) + len(probe.skipped) == 2
        lo, hi = probe.implied_range
        assert 0 < lo <= hi

    def test_coincident_points_rejected(self, anderson_gaussian):
        vol = build_volume(1, radius=3)
        with pytest.raises(al.ValidationError):
            al.recursion_probe(anderson_gaussian, vol, 0.2, 1, 1, 0.5, [5.0], 10, 0)

    def test_profile_must_cover_origin(self, uniform01):
        shifted = build_single_site(1, [((1,), 1.0)])
        model = AlloyModel(potential=shifted, measure=uniform01, lam=5.0)
        vol = build_volume(1, radius=3)
        with pytest.raises(al.ValidationError):
            al.recursion_probe(model, vol, 0.2, 0, 1, 0.5, [5.0], 10, 0)

    def test_empty_rows_range_raises(self):
        probe = al.RecursionProbe(rows=[], max_residual=0.0, s=0.5, skipped=[5.0])
        with pytest.raises(al.NumericalError):
            probe.implied_range


class TestSmallnessProbability:
    def test_vacuous_volume(self, anderson_gaussian):
        vol = build_volume(1, radius=0)
        est = al.fvc_probability(anderson_gaussian, vol, 0.3, 3.0, 20, master_seed=95)
        assert est.value == 1.0
        assert est.stderr == 0.0
        assert est.metadata["vacuous"] is True

    def test_strong_disorder_localizes(self, two_tap, uniform01):
        model = AlloyModel(potential=two_tap, measure=uniform01, lam=50.0)
        vol = build_volume(1, radius=6)
        est = al.fvc_probability(model, vol, 50.0, 2.5, 200, master_seed=96)
        assert est.value >= 0.8
        assert est.metadata["n_pairs"] > 0

    def test_free_model_fails_event(self, free_model):
        vol = build_volume(1, radius=6)
        est = al.fvc_probability(free_model, vol, 0.1, 2.5, 5, master_seed=97)
        assert est.value == 0.0

    def test_exponent_gate(self, anderson_gaussian):
        vol = build_volume(1, radius=4)
        with pytest.raises(al.ValidationError):
            al.fvc_probability(anderson_gaussian, vol, 0.3, 2.0, 10, 0)

    def test_box_volume_required(self, anderson_gaussian):
        vol = build_volume(1, points=[(0,), (1,), (5,)])
        with pytest.raises(al.ValidationError):
            al.fvc_probability(anderson_gaussian, vol, 0.3, 3.0, 10, 0)


@pytest.fixture
def draws(monkeypatch):
    """(stream, attempt) of every field the estimators draw.

    Every draw, one stream at a time (``sample_field``) or a block of streams
    at once (``draw_fields``), takes its generator from ``field.stream_rng``.
    """
    calls = []
    stream = field_module.stream_rng

    def spy(master_seed, stream_index, attempt=0):
        calls.append((stream_index, attempt))
        return stream(master_seed, stream_index, attempt)

    monkeypatch.setattr(field_module, "stream_rng", spy)
    return calls


def _field(model, vol, seed, r):
    return al.sample_field(model.potential, model.measure, vol, seed, r)


def _mean_and_stderr(values):
    return float(np.mean(values)), float(np.std(values, ddof=1)) / math.sqrt(len(values))


class TestSweepOracles:
    """Shared-draw sweeps equal per-entry scalar loops (exactly where the
    arithmetic is the same; the chain kernel's Minami dets to 1e-12)."""

    def test_wegner_intervals_match_per_interval_counts(self, anderson_gaussian):
        vol = build_volume(1, radius=5)
        intervals = [(-1.0, 1.0), (-0.5, 0.5), (0.2, 3.0)]
        ests = al.wegner_count(anderson_gaussian, vol, intervals, 60, master_seed=64)
        spectra = [
            al.spectrum(al.assemble(_field(anderson_gaussian, vol, 64, r), anderson_gaussian.lam))
            for r in range(60)
        ]
        for (a, b), est in zip(intervals, ests):
            counts = np.empty(60)
            for r, evals in enumerate(spectra):
                counts[r] = np.count_nonzero((evals >= a) & (evals <= b))
            assert (est.value, est.stderr) == _mean_and_stderr(counts)

    def test_minami_lams_match_per_lam_determinants(self, anderson_gaussian):
        vol = build_volume(1, radius=4)
        z = 0.05j
        lams = [5.0, 10.0, 20.0]
        ests = al.minami_determinant(anderson_gaussian, vol, z, 0, 2, lams, 40, master_seed=72)
        ix, iy = vol.index_of(0), vol.index_of(2)
        rhs = np.eye(len(vol), dtype=complex)[:, [ix, iy]]
        for lam, est in zip(lams, ests):
            model = dc_replace(anderson_gaussian, lam=lam)
            dets = np.empty(40)
            for r in range(40):
                op = al.assemble(_field(model, vol, 72, r), model.lam)
                im = np.linalg.solve(op.matrix - z * np.eye(len(vol)), rhs)[[ix, iy]].imag
                dets[r] = im[0, 0] * im[1, 1] - im[0, 1] * im[1, 0]
            assert (est.value, est.stderr) == pytest.approx(_mean_and_stderr(dets), rel=1e-12)
            assert est.metadata["min_det"] == pytest.approx(dets.min(), rel=1e-12)
            assert est.metadata["bound"] == (math.pi / lam) ** 2 * al.minami_bound_constant(model)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_minami_lam_samples_use_stream_prefixes(self, anderson_gaussian, dimension, draws):
        vol = build_volume(dimension, radius=4 if dimension == 1 else 1)
        x, y = [0] * dimension, [1] + [0] * (dimension - 1)
        lams = [5.0, 10.0, 20.0]
        shared = al.minami_determinant(
            anderson_gaussian, vol, 0.05j, x, y, lams, 30, master_seed=73, lam_samples=[30, 7, 19]
        )
        assert draws == [(r, 0) for r in range(30)]
        for lam, m, est in zip(lams, [30, 7, 19], shared):
            (alone,) = al.minami_determinant(anderson_gaussian, vol, 0.05j, x, y, [lam], m, 73)
            assert est.n_samples == m
            assert (est.value, est.stderr) == pytest.approx((alone.value, alone.stderr), rel=1e-12)
            assert est.metadata["min_det"] == pytest.approx(alone.metadata["min_det"], rel=1e-12)

    @pytest.mark.parametrize("lam_samples", [[5, 0], [5, 31], [5]])
    def test_minami_lam_samples_checked(self, anderson_gaussian, lam_samples):
        vol = build_volume(1, radius=2)
        with pytest.raises(al.ValidationError, match="sample count"):
            al.minami_determinant(
                anderson_gaussian, vol, 0.1j, 0, 1, [5.0, 10.0], 30, 0, lam_samples=lam_samples
            )


def _pre_router_recursion(model, vol, energy, x, y, s, lams, n, seed, residual_tol=1e-8):
    """``recursion_probe``'s per-draw reduction as it was before it read its
    entries through ``_green_rows``: one dense ``green_column`` per lam."""
    iy = vol.index_of(y)
    neighbor_idx = vol.neighbors(iy)

    def reduce(real):
        per_lam = []
        for lam in lams:
            op = al.assemble(real, lam)
            row = al.green_column(op, complex(energy), x)
            g_y = row[iy]
            neigh = row[neighbor_idx]
            residual = abs(neigh.sum() - (op.diagonal[iy] - energy) * g_y) / (1.0 + abs(g_y))
            if residual > residual_tol:
                raise al.NumericalError(f"resolvent identity residual {residual:.3e}")
            per_lam.append((abs(g_y) ** s, float(np.sum(np.abs(neigh) ** s)), residual))
        return per_lam

    return _realizations(model, vol, n, seed, reduce)


def _pre_router_counts(model, vol, intervals, n, seed):
    """``wegner_count``'s per-draw reduction before ``_count_rows``."""

    def reduce(real):
        evals = al.spectrum(al.assemble(real, model.lam))
        return [
            float(np.searchsorted(evals, b, side="right") - np.searchsorted(evals, a, side="left"))
            for a, b in intervals
        ]

    return _realizations(model, vol, n, seed, reduce)


def _pre_router_two_level(model, vol, interval, n, seed):
    """``two_level_probability``'s per-draw reduction before ``_count_rows``."""
    a, b = interval

    def reduce(real):
        evals = al.spectrum(al.assemble(real, model.lam))
        k = float(np.searchsorted(evals, b, side="right") - np.searchsorted(evals, a, side="left"))
        return 1.0 if k >= 2 else 0.0, 0.5 * k * (k - 1)

    return _realizations(model, vol, n, seed, reduce)


@pytest.fixture
def bernoulli_chain(two_tap):
    """Two-tap chain of 5 sites with Bernoulli(0.3) couplings at lam = 3."""
    return AlloyModel(two_tap, al.CouplingMeasure.bernoulli(0.3), 3.0), build_volume(1, radius=2)


class TestRouterOracles:
    """The routed estimators equal their pre-router reductions bit for bit,
    redraws included."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_recursion(self, anderson_gaussian, dimension, seed):
        vol = build_volume(dimension, radius=5 if dimension == 1 else 2)
        x, y = ([-3], [2]) if dimension == 1 else ([-2, 0], [1, 1])
        self._check_recursion(anderson_gaussian, vol, 0.3, x, y, [5.0, 10.0, 20.0], seed)

    def test_recursion_energy_on_the_spectrum_redraws(self, bernoulli_chain):
        # every field with all couplings 0 has the eigenvalue 0 at each lam
        model, vol = bernoulli_chain
        redraws = self._check_recursion(model, vol, 0.0, -2, 0, [3.0, 6.0], 2)
        assert redraws > 0

    @staticmethod
    def _check_recursion(model, vol, energy, x, y, lams, seed):
        draws, redraws = _pre_router_recursion(model, vol, energy, x, y, 0.5, lams, 200, seed)
        probe = al.recursion_probe(model, vol, energy, x, y, 0.5, lams, 200, seed)
        assert not probe.skipped
        assert probe.max_residual == max(d[j][2] for d in draws for j in range(len(lams)))
        for j, (lam, row) in enumerate(zip(lams, probe.rows)):
            assert row.lam == lam and row.lhs.metadata["redraws"] == redraws
            assert (row.lhs.value, row.lhs.stderr) == _mean_and_stderr([d[j][0] for d in draws])
            assert (row.rhs_sum.value, row.rhs_sum.stderr) == _mean_and_stderr(
                [d[j][1] for d in draws]
            )
        return redraws

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_counts(self, anderson_gaussian, dimension, seed):
        vol = build_volume(dimension, radius=4 if dimension == 1 else 1)
        intervals = [(-1.0, 1.0), (-0.5, 0.5), (0.2, 3.0)]
        self._check_counts(anderson_gaussian, vol, intervals, seed)

    def test_counts_with_a_redraw(self, anderson_gaussian, draws, monkeypatch):
        spy = field_module.stream_rng

        def flaky(master_seed, stream_index, attempt=0):
            rng = spy(master_seed, stream_index, attempt)
            if (stream_index, attempt) == (3, 0):
                raise al.NumericalError("rejected draw")
            return rng

        monkeypatch.setattr(field_module, "stream_rng", flaky)
        assert self._check_counts(anderson_gaussian, build_volume(1, radius=4),
                                  [(-1.0, 1.0), (0.2, 3.0)], 5) == 1

    def test_counts_on_a_box_across_blocks(self, anderson_gaussian, monkeypatch):
        # blocks of 7 fields on a 5 x 5 box, stream 9 redrawn inside the second
        monkeypatch.setattr(estimators, "_block_size", lambda n: 7)
        spy = field_module.stream_rng

        def flaky(master_seed, stream_index, attempt=0):
            rng = spy(master_seed, stream_index, attempt)
            if (stream_index, attempt) == (9, 0):
                raise al.NumericalError("rejected draw")
            return rng

        monkeypatch.setattr(field_module, "stream_rng", flaky)
        assert self._check_counts(anderson_gaussian, build_volume(2, radius=2),
                                  [(-1.0, 1.0), (-0.5, 0.5), (0.2, 3.0)], 8) == 1

    @staticmethod
    def _check_counts(model, vol, intervals, seed):
        rows, redraws = _pre_router_counts(model, vol, intervals, 100, seed)
        for j, est in enumerate(al.wegner_count(model, vol, intervals, 100, seed)):
            assert (est.value, est.stderr) == _mean_and_stderr([row[j] for row in rows])
            assert est.metadata["redraws"] == redraws
        for interval in intervals:
            pairs, two_redraws = _pre_router_two_level(model, vol, interval, 100, seed)
            res = al.two_level_probability(model, vol, interval, 100, seed)
            indicator, half = np.asarray(pairs).T
            assert (res.p_two.value, res.p_two.stderr) == _mean_and_stderr(indicator)
            assert (res.half_moment.value, res.half_moment.stderr) == _mean_and_stderr(half)
            assert res.p_two.metadata["redraws"] == two_redraws == redraws
        return redraws


REPO = Path(__file__).resolve().parents[1]


def _bench_recursion_config(seed):
    """The small-chain bench ``recursion`` config at a workload seed."""
    spec = importlib.util.spec_from_file_location(
        "alloysim_bench_workloads", REPO / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.configs("small-chain", seed)["recursion"]


class TestRealEnergyGuard:
    """On chains the guard counts eigenvalues with two Sturm counts; its
    decision equals that of the spectrum-distance rule it replaced on every
    real-energy solve of the suite and bench ``recursion`` runs, so the same
    streams are redrawn."""

    @pytest.fixture
    def decisions(self, monkeypatch):
        guard = lattice._check_not_in_spectrum
        seen = []

        def spy(op, z):
            # the rule before Sturm counts: the distance to the full spectrum
            dist = float(np.min(np.abs(al.spectrum(op) - z.real)))
            old = dist <= lattice._REAL_GUARD * max(1.0, op.norm_bound())
            try:
                guard(op, z)
            except al.NumericalError:
                seen.append((op.volume.is_chain, old, True))
                raise
            seen.append((op.volume.is_chain, old, False))

        monkeypatch.setattr(lattice, "_check_not_in_spectrum", spy)
        return seen

    @pytest.mark.parametrize("config", ["suite", "bench-0", "bench-1"])
    def test_recursion_runs_decide_as_the_spectrum_did(self, decisions, config, tmp_path):
        if config == "suite":
            cfg = json.loads((REPO / "suites" / "acceptance_checks" / "recursion.json").read_text())
        else:
            cfg = _bench_recursion_config(int(config[-1]))
        path = tmp_path / "recursion.json"
        path.write_text(json.dumps(cfg))
        assert experiments.run(str(path), out=str(tmp_path / "out")) == 0
        p = cfg["params"]
        assert len(decisions) >= p["n_samples"] * len(p["lams"])
        assert all(chain for chain, _, _ in decisions)
        assert [new for _, _, new in decisions] == [old for _, old, _ in decisions]

    def test_bernoulli_chain_on_the_spectrum_still_redraws(self, decisions, bernoulli_chain):
        # every field with all couplings 0 has the eigenvalue 0 at each lam
        probe = al.recursion_probe(*bernoulli_chain, 0.0, -2, 0, 0.5, [3.0, 6.0], 200, 2)
        assert probe.rows[0].lhs.metadata["redraws"] > 0
        assert [new for _, _, new in decisions] == [old for _, old, _ in decisions]
        assert any(new for _, _, new in decisions)


class TestExactExpectations:
    """Monte Carlo counts against their exact expectation, summed over all
    2**6 coupling configurations of the Bernoulli chain and solved densely;
    no interval end lies near any configuration's spectrum."""

    @pytest.fixture
    def spectra(self):
        # field(x) = c_x + c_{x-1} on x = -2..2 from the couplings c_-3 .. c_2
        configs = np.array(list(itertools.product([0.0, 1.0], repeat=6)))
        weights = np.prod(np.where(configs == 1.0, 0.3, 0.7), axis=1)
        fields = configs[:, 1:] + configs[:, :-1]
        hop = -(np.eye(5, k=1) + np.eye(5, k=-1))
        return weights, np.array([np.linalg.eigvalsh(np.diag(3.0 * f) + hop) for f in fields])

    @staticmethod
    def _exact_counts(spectra, a, b):
        assert np.abs(spectra - a).min() > 1e-2 and np.abs(spectra - b).min() > 1e-2
        return ((spectra >= a) & (spectra <= b)).sum(axis=1)

    def test_wegner_count(self, bernoulli_chain, spectra):
        weights, evals = spectra
        intervals = [(-0.9, 0.3), (0.9, 4.1), (0.25, 3.2)]
        ests = al.wegner_count(*bernoulli_chain, intervals, 2000, master_seed=11)
        for (a, b), est in zip(intervals, ests):
            exact = weights @ self._exact_counts(evals, a, b)
            assert abs(est.value - exact) < 4 * est.stderr

    def test_two_level_probability(self, bernoulli_chain, spectra):
        weights, evals = spectra
        k = self._exact_counts(evals, 0.9, 4.1)
        res = al.two_level_probability(*bernoulli_chain, (0.9, 4.1), 2000, master_seed=12)
        assert abs(res.p_two.value - weights @ (k >= 2)) < 4 * res.p_two.stderr
        exact_half = weights @ (0.5 * k * (k - 1))
        assert abs(res.half_moment.value - exact_half) < 4 * res.half_moment.stderr


class TestChainKernelRouting:
    """Complex-energy chain estimators take the batched kernel; the scalar
    row-by-row path, still used off the chain, is their oracle."""

    @pytest.fixture
    def scalar(self, monkeypatch):
        def run(fn, *args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(estimators, "_on_chain_kernel", lambda volume, z: False)
                return fn(*args, **kwargs)

        return run

    @staticmethod
    def _sample_counts(vol):
        size = _block_size(len(vol))
        counts = [2 * size + 7, 5]
        assert counts[0] % size and counts[1] < size
        return counts

    def test_fractional_moment(self, two_tap, cosine01, scalar):
        model = AlloyModel(potential=two_tap, measure=cosine01, lam=10.0)
        vol = build_volume(1, radius=8)
        for n in self._sample_counts(vol):
            for z, x, y in [(10.0 + 0.01j, 0, 0), (0.3 - 0.1j, -8, 8)]:
                args = (model, vol, z, x, y, 0.5, n, 11)
                fast, slow = al.fractional_moment(*args), scalar(al.fractional_moment, *args)
                assert (fast.value, fast.stderr) == pytest.approx(
                    (slow.value, slow.stderr), rel=1e-12
                )
                assert fast.metadata == slow.metadata

    def test_decay_profile(self, two_tap, uniform01, scalar):
        model = AlloyModel(potential=two_tap, measure=uniform01, lam=20.0)
        vol = build_volume(1, radius=12)
        offsets = [[k] for k in range(-2, 11)]
        for n in self._sample_counts(vol):
            args = (model, vol, 20.0 + 0.01j, 0, offsets, 0.1, n, 13)
            fast, slow = al.green_decay_profile(*args), scalar(al.green_decay_profile, *args)
            for a, b in zip(fast.estimates, slow.estimates):
                assert (a.value, a.stderr) == pytest.approx((b.value, b.stderr), rel=1e-12)
                assert a.metadata == b.metadata
            assert fast.rate == pytest.approx(slow.rate, rel=1e-12)
            assert fast.dropped == slow.dropped

    def test_minami_determinant(self, anderson_gaussian, scalar):
        vol = build_volume(1, radius=10)
        lams = [10.0, 5.0, 40.0]
        for n in self._sample_counts(vol):
            args = (anderson_gaussian, vol, 0.05j, 0, 1, lams, n, 107)
            counts = [n, max(1, n // 3), n - 1]
            fast = al.minami_determinant(*args, lam_samples=counts)
            slow = scalar(al.minami_determinant, *args, lam_samples=counts)
            for a, b in zip(fast, slow):
                assert (a.value, a.stderr) == pytest.approx((b.value, b.stderr), rel=1e-12)
                assert a.metadata["min_det"] == pytest.approx(b.metadata["min_det"], rel=1e-12)
                assert a.n_samples == b.n_samples

    def test_complex_chain_takes_kernel(self, anderson_gaussian, monkeypatch):
        def refuse(*args):
            raise AssertionError("a dense solve ran")

        monkeypatch.setattr(estimators, "green_column", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        chain = build_volume(1, radius=3)
        al.fractional_moment(anderson_gaussian, chain, 0.3j, 0, 1, 0.5, 5, 0)
        al.minami_determinant(anderson_gaussian, chain, 0.3j, 0, 1, [10.0], 5, 0)
        al.green_decay_profile(anderson_gaussian, chain, -0.3j, 0, [[0], [1], [2]], 0.5, 5, 0)

    def test_real_energy_and_2d_stay_scalar(self, anderson_gaussian, monkeypatch):
        def refuse(*args):
            raise AssertionError("the chain kernel ran")

        monkeypatch.setattr(estimators, "chain_green", refuse)
        chain, box = build_volume(1, radius=3), build_volume(2, radius=1)
        al.fractional_moment(anderson_gaussian, chain, 0.3, 0, 1, 0.5, 5, 0)
        al.fractional_moment(anderson_gaussian, box, 0.3j, [0, 0], [0, 1], 0.5, 5, 0)
        al.minami_determinant(anderson_gaussian, box, 0.3j, [0, 0], [0, 1], [10.0], 5, 0)
        offsets = [[0, 0], [0, 1], [1, 1]]
        al.green_decay_profile(anderson_gaussian, box, 0.3j, [0, 0], offsets, 0.5, 5, 0)


class TestSlabRouting:
    """Complex-energy estimators on a 2-d box read columns eliminated slab by
    slab; a dense solve of each assembled operator is their oracle."""

    @pytest.fixture
    def dense(self, monkeypatch):
        def column(op, z, y):
            rhs = np.zeros(op.size)
            rhs[op.volume.index_of(y)] = 1.0
            return np.linalg.solve(op.matrix - z * np.eye(op.size), rhs)

        def run(fn, *args):
            with monkeypatch.context() as m:
                m.setattr(estimators, "green_column", column)
                return fn(*args)

        return run

    @pytest.fixture
    def model(self, cosine01):
        return AlloyModel(potential=build_single_site(2, {(0, 0): 1.0, (1, 0): 1.0}),
                          measure=cosine01, lam=10.0)

    @pytest.mark.parametrize("z", [10.0 + 0.01j, 0.3 - 0.1j])
    def test_fractional_moment(self, model, dense, z):
        vol = build_volume(2, radius=3)
        for x, y in [((0, 0), (0, 0)), ((-3, -3), (2, 3))]:
            args = (model, vol, z, x, y, 0.5, 20, 11)
            fast, slow = al.fractional_moment(*args), dense(al.fractional_moment, *args)
            assert (fast.value, fast.stderr) == pytest.approx((slow.value, slow.stderr), rel=1e-12)
            assert fast.metadata == slow.metadata

    def test_decay_profile(self, model, dense):
        vol = build_volume(2, radius=3)
        offsets = [[k, k % 2] for k in range(-2, 4)]
        args = (model, vol, 10.0 - 0.01j, [0, 0], offsets, 0.1, 20, 13)
        fast, slow = al.green_decay_profile(*args), dense(al.green_decay_profile, *args)
        for a, b in zip(fast.estimates, slow.estimates):
            assert (a.value, a.stderr) == pytest.approx((b.value, b.stderr), rel=1e-12)
            assert a.metadata == b.metadata
        assert fast.rate == pytest.approx(slow.rate, rel=1e-12)
        assert fast.dropped == slow.dropped

    def test_box_estimators_never_build_the_matrix(self, model, monkeypatch):
        def dense(op):
            raise AssertionError(f"dense {op.size} x {op.size} matrix built on a box")

        monkeypatch.setattr(al.FiniteVolumeOperator, "matrix", property(dense))
        vol = build_volume(2, radius=2)
        al.fractional_moment(model, vol, 0.3j, [0, 0], [1, 2], 0.5, 5, 0)
        al.green_decay_profile(model, vol, -0.3j, [0, 0], [[0, 0], [1, 0], [1, 1]], 0.5, 5, 0)


class TestRealizationLoop:
    def test_error_redraws_only_that_stream(self, anderson_gaussian, draws):
        def reduce(real):
            if draws[-1] == (2, 0):
                raise al.NumericalError("singular draw")
            return real.stream_index

        vol = build_volume(1, radius=2)
        out, redraws = _realizations(anderson_gaussian, vol, 4, 9, reduce)
        assert draws == [(0, 0), (1, 0), (2, 0), (2, 1), (3, 0)]
        assert out == [0, 1, 2, 3]
        assert redraws == 1

    def test_redraw_counted_in_estimator_metadata(self, anderson_gaussian, draws, monkeypatch):
        column = estimators.green_column

        def flaky(op, z, y):
            if draws[-1] == (1, 0):
                raise al.NumericalError("energy hit the spectrum")
            return column(op, z, y)

        monkeypatch.setattr(estimators, "green_column", flaky)
        m, v = anderson_gaussian, build_volume(1, radius=2)
        # a real energy keeps the row-by-row path, whose reduction can redraw
        for estimate in [
            lambda: [al.fractional_moment(m, v, 0.1, 0, 1, 0.5, 3, master_seed=5)],
            lambda: al.green_decay_profile(m, v, 0.1, 0, [[0], [1], [2]], 0.5, 3, 5).estimates,
        ]:
            draws.clear()
            for est in estimate():
                assert est.metadata["redraws"] == 1
            assert draws == [(0, 0), (1, 0), (1, 1), (2, 0)]

    @pytest.mark.parametrize("estimate", [
        lambda m, v: [al.fractional_moment(m, v, 0.1j, 0, 1, 0.5, 3, 5)],
        lambda m, v: al.green_decay_profile(m, v, 0.1j, 0, [[0], [1], [2]], 0.5, 3, 5).estimates,
        lambda m, v: al.minami_determinant(m, v, 0.1j, 0, 1, [5.0, 10.0], 3, 5),
        lambda m, v: al.wegner_count(m, v, [(-1.0, 1.0), (0.0, 2.0)], 3, 5),
        lambda m, v: (lambda r: [r.p_two, r.half_moment])(
            al.two_level_probability(m, v, (-1.0, 1.0), 3, 5)),
    ], ids=["fractional-moment", "decay", "minami", "wegner", "two-level"])
    def test_failed_draw_redrawn_and_reported(self, anderson_gaussian, draws, monkeypatch,
                                              estimate):
        spy = field_module.stream_rng

        def flaky(*args):
            rng = spy(*args)
            if draws[-1] == (1, 0):
                raise al.NumericalError("rejected draw")
            return rng

        monkeypatch.setattr(field_module, "stream_rng", flaky)
        for est in estimate(anderson_gaussian, build_volume(1, radius=2)):
            assert est.metadata["redraws"] == 1
        assert draws == [(0, 0), (1, 0), (1, 1), (2, 0)]

    @pytest.mark.parametrize("z", [0.1j, 0.1])
    def test_no_realizations_rejected(self, anderson_gaussian, z):
        vol = build_volume(1, radius=2)
        with pytest.raises(al.ValidationError, match="at least one realization"):
            al.fractional_moment(anderson_gaussian, vol, z, 0, 1, 0.5, 0, 0)
        with pytest.raises(al.ValidationError, match="at least one realization"):
            al.wegner_count(anderson_gaussian, vol, [(-1.0, 1.0)], 0, 0)

    def test_exhausted_attempts_raise(self, anderson_gaussian, draws):
        def reduce(real):
            raise al.NumericalError("always singular")

        vol = build_volume(1, radius=2)
        with pytest.raises(al.NumericalError, match="still singular"):
            _realizations(anderson_gaussian, vol, 3, 9, reduce)
        assert draws == [(0, attempt) for attempt in range(_MAX_ATTEMPTS)]

    def test_minami_psd_violation_is_not_redrawn(self, anderson_gaussian, draws, monkeypatch):
        # a 2-d box keeps the row-by-row dense solve
        vol = build_volume(2, radius=1)
        ix, iy = vol.index_of([0, 0]), vol.index_of([0, 1])

        def indefinite(op, z, y):
            # columns ix and iy give the imaginary submatrix [[1, 2], [2, 1]], det -3
            out = np.zeros(op.size, dtype=complex)
            out[[ix, iy]] = [1j, 2j] if op.volume.index_of(y) == ix else [2j, 1j]
            return out

        monkeypatch.setattr(estimators, "green_column", indefinite)
        with pytest.raises(al.NumericalError, match="positive semidefiniteness"):
            al.minami_determinant(
                anderson_gaussian, vol, 0.1j, [0, 0], [0, 1], [10.0], 5, master_seed=3
            )
        assert draws == [(0, 0)]

    def test_minami_psd_violation_in_a_block(self, anderson_gaussian, draws, monkeypatch):
        vol = build_volume(1, radius=3)
        ix, iy = vol.index_of(0), vol.index_of(1)
        kernel = estimators.chain_green

        def indefinite_rows(diags, z, sites):
            rows = kernel(diags, z, sites)
            # imaginary submatrices [[1, 2], [2, 1]] (det -3) and [[1, 3], [3, 1]] (det -8)
            for r, off in [(2, 2j), (4, 3j)]:
                rows[r][:, [ix, iy]] = [[1j, off], [off, 1j]]
            return rows

        monkeypatch.setattr(estimators, "chain_green", indefinite_rows)
        with pytest.raises(al.NumericalError, match=r"at realization 2: det = .*-3\.0"):
            al.minami_determinant(anderson_gaussian, vol, 0.1j, 0, 1, [10.0], 5, master_seed=3)
        # the block is drawn whole, and nothing is redrawn
        assert draws == [(r, 0) for r in range(5)]


class TestNonFiniteInputs:
    """A nan or infinite energy or disorder strength is a ``ValidationError``
    before any draw, never a LAPACK error, a warning or a nan estimate."""

    @pytest.mark.parametrize("probe", [
        lambda m, v: al.recursion_probe(m, v, math.nan, 0, 2, 0.5, [5.0], 5, 0),
        lambda m, v: al.recursion_probe(m, v, math.inf, 0, 2, 0.5, [5.0], 5, 0),
        lambda m, v: al.recursion_probe(m, v, 0.3, 0, 2, 0.5, [5.0, math.inf], 5, 0),
        lambda m, v: al.fractional_moment(m, v, complex(math.nan, 0.01), 0, 1, 0.5, 5, 0),
        lambda m, v: al.fractional_moment(m, v, complex(1.0, math.inf), 0, 1, 0.5, 5, 0),
        lambda m, v: al.green_decay_profile(m, v, complex(math.nan, 0.01), 0, [[0], [1]],
                                            0.5, 5, 0),
        lambda m, v: al.minami_determinant(m, v, 0.05j, 0, 1, [math.nan], 5, 0),
        lambda m, v: al.fvc_probability(m, v, math.nan, 3.0, 5, 0),
    ], ids=["recursion-nan-energy", "recursion-inf-energy", "recursion-inf-lam",
            "moment-nan-energy", "moment-inf-imaginary-part", "decay-nan-energy",
            "minami-nan-lam", "fvc-nan-energy"])
    def test_rejected_before_any_draw(self, anderson_gaussian, draws, probe):
        with pytest.raises(al.ValidationError, match="finite"):
            probe(anderson_gaussian, build_volume(1, radius=4))
        assert draws == []

    @pytest.mark.parametrize("call", [
        lambda m, v: al.fvc_probability(m, v, 0.3, math.nan, 5, 0),
        lambda m, v: al.fvc_probability(m, v, 0.3, math.inf, 5, 0),
        lambda m, v: al.uniform_pair_concentration(math.nan),
        lambda m, v: al.condition_ma1_center(0.5, math.nan, [0.1], [0.2]),
        lambda m, v: al.chain_count(np.zeros((2, 5)), np.full((2, 1), math.nan)),
        lambda m, v: al.chain_green(np.zeros((2, 5)), complex(math.nan, 1.0), [0]),
    ], ids=["fvc-nan-exponent", "fvc-inf-exponent", "uniform-pair-nan-width",
            "ma1-nan-sigma", "chain-count-nan-energy", "chain-green-nan-energy"])
    def test_library_inputs_rejected_before_any_work(self, anderson_gaussian, draws, call):
        with pytest.raises(al.ValidationError):
            call(anderson_gaussian, build_volume(1, radius=4))
        assert draws == []
