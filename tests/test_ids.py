import contextlib
import math
import os
import signal

import numpy as np
import pytest
import scipy.linalg
from scipy import special, stats

import alloysim as al
from alloysim import (
    AlloyModel,
    IdsTable,
    RescaledSpectrum,
    build_volume,
    ids_estimate,
    ids_positivity_probe,
    poisson_statistics,
    rescale_eigenvalues,
)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # a forked part still running, or ended and not reaped, is left behind
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def free_ids_exact(energies):
    """Infinite-volume counting function of the one-dimensional free operator."""
    e = np.clip(np.asarray(energies, dtype=float), -2.0, 2.0)
    return np.arccos(-e / 2.0) / math.pi


@pytest.fixture
def free_chain_model(two_tap, uniform01):
    return AlloyModel(potential=two_tap, measure=uniform01, lam=0.0)


def synthetic_poisson_spectra(rng, n_realizations, span=12.0, volume_points=1000):
    """Unit-intensity Poisson point process on [-span, span] per realization."""
    out = []
    for _ in range(n_realizations):
        k = rng.poisson(2 * span)
        xi = np.sort(rng.uniform(-span, span, size=k))
        out.append(RescaledSpectrum(e0=0.0, xi=xi, volume_points=volume_points))
    return out


class TestIdsEstimate:
    def test_free_chain_converges_to_arccos_law(self, free_chain_model):
        # the finite-volume counting function is floor((n+1) t / pi) / n with
        # t = arccos(-E/2), so the sup error is below 1/n plus grid slack,
        # and doubling the volume roughly halves it
        errors = {}
        grid = np.linspace(-1.95, 1.95, 801)
        for L in (200, 400):
            vol = build_volume(1, radius=L)
            table = ids_estimate(free_chain_model, vol, 1, master_seed=0)
            errors[L] = float(np.max(np.abs(table.evaluate(grid) - free_ids_exact(grid))))
            assert errors[L] <= 1.0 / (2 * L + 1) + 5e-4
        assert errors[400] < 0.7 * errors[200]

    def test_range_and_monotonicity(self, anderson_gaussian):
        vol = build_volume(1, radius=12)
        table = ids_estimate(anderson_gaussian, vol, 20, master_seed=1)
        assert float(table.evaluate(table.energies[0])) == 0.0
        assert float(table.evaluate(table.energies[-1])) == 1.0
        assert np.all(np.diff(table.values) >= 0)
        assert np.all((table.values >= 0) & (table.values <= 1))

    def test_free_median_at_band_center(self, free_chain_model):
        vol = build_volume(1, radius=100)
        table = ids_estimate(free_chain_model, vol, 1, master_seed=0)
        assert table.median_energy() == pytest.approx(0.0, abs=0.02)

    def test_bounded_support_grid_encloses_spectrum(self, flagship_model):
        vol = build_volume(1, radius=10)
        table = ids_estimate(flagship_model, vol, 5, master_seed=2)
        # enclosure: |energy| <= 2d + lam * ||u||_1 * max|support|
        assert table.energies[0] <= -2 - 2 * 1.0
        assert table.energies[-1] >= 2 + 2 * 1.0

    def test_zero_realizations_rejected(self, flagship_model):
        with pytest.raises(al.ValidationError):
            ids_estimate(flagship_model, build_volume(1, radius=3), 0, 0)

    def test_median_requires_crossing(self):
        table = IdsTable(
            energies=np.array([0.0, 1.0]),
            values=np.array([0.0, 0.2]),
            n_realizations=1,
            volume_points=10,
        )
        with pytest.raises(al.NumericalError):
            table.median_energy()

    def test_csv(self, flagship_model, tmp_path):
        vol = build_volume(1, radius=3)
        table = ids_estimate(flagship_model, vol, 2, 0, n_grid=11)
        path = tmp_path / "ids.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "energy,ids"
        assert len(lines) == 12


class TestPositivityProbe:
    def test_free_band_center_growth(self, free_chain_model):
        vol = build_volume(1, radius=300)
        table = ids_estimate(free_chain_model, vol, 1, master_seed=0)
        probe = ids_positivity_probe(
            table,
            e0=0.0,
            kappa=0.0,
            window_pairs=[(1.0, -1.0), (1.0, 0.5)],
            eps_grid=[0.05, 0.1, 0.2, 0.4],
        )
        assert probe.all_passed
        for row in probe.rows:
            # counting increments scale linearly at the band center
            assert row.loglog_slope == pytest.approx(1.0, abs=0.2)
            assert row.best_fit_c > 1e-3

    def test_energy_outside_spectrum_fails(self, free_chain_model):
        vol = build_volume(1, radius=200)
        table = ids_estimate(free_chain_model, vol, 1, master_seed=0)
        probe = ids_positivity_probe(
            table, e0=3.5, kappa=0.0, window_pairs=[(0.1, -0.1)], eps_grid=[0.05, 0.1]
        )
        assert not probe.all_passed
        assert probe.rows[0].best_fit_c <= 1e-6

    def test_degenerate_pair_has_no_growth(self, free_chain_model):
        vol = build_volume(1, radius=100)
        table = ids_estimate(free_chain_model, vol, 1, master_seed=0)
        probe = ids_positivity_probe(
            table, e0=0.0, kappa=0.0, window_pairs=[(0.3, 0.3)], eps_grid=[0.1, 0.2]
        )
        row = probe.rows[0]
        assert not row.passed and row.loglog_slope is None

    def test_epsilon_below_resolution_rejected(self):
        table = IdsTable(
            energies=np.linspace(0, 1, 11),
            values=np.linspace(0, 1, 11),
            n_realizations=1,
            volume_points=10,
        )
        with pytest.raises(al.ValidationError):
            ids_positivity_probe(table, 0.5, 0.0, [(1.0, -1.0)], eps_grid=[0.01])

    @pytest.mark.parametrize(
        "eps_grid", [[np.nan, 0.5], [0.5, np.inf], [0.2, 0.5, 0.2], [], [-0.1, 0.5]]
    )
    def test_malformed_epsilon_grid_rejected(self, eps_grid):
        table = IdsTable(
            energies=np.linspace(0, 1, 101),
            values=np.linspace(0, 1, 101),
            n_realizations=1,
            volume_points=10,
        )
        with pytest.raises(al.ValidationError, match="epsilon grid"):
            ids_positivity_probe(table, 0.5, 0.0, [(1.0, -1.0)], eps_grid=eps_grid)


class TestRescaling:
    def linear_table(self):
        return IdsTable(
            energies=np.array([0.0, 1.0]),
            values=np.array([0.0, 1.0]),
            n_realizations=1,
            volume_points=100,
        )

    def test_linear_table_rescales_affinely(self):
        table = self.linear_table()
        out = rescale_eigenvalues(np.array([0.2, 0.5, 0.9]), table, e0=0.1, volume_points=100)
        np.testing.assert_allclose(out.xi, [10.0, 40.0, 80.0])

    def test_reference_energy_maps_to_zero(self):
        table = self.linear_table()
        out = rescale_eigenvalues(np.array([0.3]), table, e0=0.3, volume_points=100)
        assert out.xi[0] == pytest.approx(0.0)

    def test_monotone_in_eigenvalues(self, anderson_gaussian):
        vol = build_volume(1, radius=10)
        table = ids_estimate(anderson_gaussian, vol, 10, master_seed=3)
        spectra = al.sample_rescaled_spectra(anderson_gaussian, vol, table, 0.0, 3, master_seed=9)
        for rescaled in spectra:
            assert np.all(np.diff(rescaled.xi) >= 0)

    def test_eigenvalue_outside_grid_rejected(self):
        table = self.linear_table()
        with pytest.raises(al.ValidationError) as err:
            rescale_eigenvalues(np.array([1.5]), table, e0=0.5, volume_points=100)
        assert "eigenvalue 1.5 falls outside" in str(err.value)
        assert "np.float64" not in str(err.value)


class TestWindowEigenvalues:
    """The bisection against LAPACK's eigenvalues of the same chains."""

    @pytest.mark.parametrize(
        "ea, eb",
        [(-np.inf, np.inf), (-3.0, 2.5), (1.0, 1.5), (40.0, 45.0), (60.0, np.inf)],
        ids=["everything", "outlier-neighbour", "narrow", "neighbour-only", "above-all"],
    )
    def test_slices_match_lapack(self, rng, ea, eb):
        diags = rng.uniform(-1.0, 1.0, size=(6, 30))
        diags[:, -1] = 50.0  # one eigenvalue near 50, far above the rest
        got = al.ids._window_eigenvalues(np.asfortranarray(diags), ea, eb)
        for evals, diag in zip(got, diags):
            full = scipy.linalg.eigvalsh_tridiagonal(diag, -np.ones(len(diag) - 1))
            start, end = np.searchsorted(full, [ea, eb])
            np.testing.assert_allclose(evals, full[start: end + 1], rtol=1e-12, atol=1e-13)


class TestWindowedSpectra:
    """``sample_rescaled_spectra`` with a window against the full-spectrum path."""

    WINDOW = (-5.0, 5.0)

    @pytest.fixture(scope="class")
    def chain(self):
        model = AlloyModel(
            al.build_single_site(1, {(0,): 1.0}), al.CouplingMeasure.uniform(0.0, 1.0), 15.0
        )
        table = ids_estimate(model, build_volume(1, 100), 20, master_seed=5)
        return model, table, table.median_energy(), build_volume(1, 60)

    @pytest.fixture(scope="class")
    def both(self, chain):
        model, table, e0, vol = chain
        full = al.sample_rescaled_spectra(model, vol, table, e0, 200, 6)
        windowed = al.sample_rescaled_spectra(model, vol, table, e0, 200, 6, window=self.WINDOW)
        return full, windowed

    def test_contiguous_slices_of_the_full_spectrum(self, both):
        lo, hi = self.WINDOW
        for full, windowed in zip(*both):
            # bisection and LAPACK differ by the latter's rounding, about 1e-13
            # in energy, which the counting function scales up by about 30
            start = int(np.argmin(np.abs(full.xi - windowed.xi[0])))
            piece = full.xi[start: start + len(windowed.xi)]
            np.testing.assert_allclose(windowed.xi, piece, rtol=1e-12, atol=1e-11)
            in_window = np.flatnonzero((full.xi >= lo) & (full.xi <= hi))
            assert start <= in_window[0] and in_window[-1] < start + len(windowed.xi) - 1
            assert windowed.xi[-1] > hi  # the right neighbour of the last point

    def test_poisson_statistics_agree(self, both):
        full, windowed = (poisson_statistics(s, window=self.WINDOW) for s in both)
        assert windowed.count_histogram == full.count_histogram
        assert windowed.n_gaps == full.n_gaps
        assert (windowed.count_mean, windowed.count_variance) == (
            full.count_mean, full.count_variance
        )
        assert windowed.ks_statistic == pytest.approx(full.ks_statistic, abs=1e-11)
        np.testing.assert_allclose(windowed.gap_density, full.gap_density, rtol=1e-12)

    def test_window_reaching_past_the_grid_returns_every_eigenvalue(self, chain, both):
        model, table, e0, vol = chain
        wide = al.sample_rescaled_spectra(model, vol, table, e0, 200, 6, window=(-1e3, 1e3))
        for full, windowed in zip(both[0], wide):
            assert len(windowed.xi) == len(vol)
            np.testing.assert_allclose(windowed.xi, full.xi, rtol=1e-12, atol=1e-11)

    def test_blocks_do_not_change_the_slices(self, chain, both, monkeypatch):
        model, table, e0, vol = chain
        monkeypatch.setattr(al.ids, "_BLOCK_BYTES", 8 * len(vol) * 7)  # blocks of 7
        small = al.sample_rescaled_spectra(model, vol, table, e0, 200, 6, window=self.WINDOW)
        for one, other in zip(both[1], small):
            np.testing.assert_allclose(other.xi, one.xi, rtol=1e-12, atol=1e-11)

    def test_each_stream_drawn_once_and_nothing_assembled(self, chain, monkeypatch):
        model, table, e0, vol = chain
        streams = []
        draw = al.ids.sample_field

        def spy(potential, measure, volume, master_seed, stream_index, *args, **kwargs):
            streams.append(stream_index)
            return draw(potential, measure, volume, master_seed, stream_index, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the windowed path assembles no operator")

        monkeypatch.setattr(al.ids, "sample_field", spy)
        monkeypatch.setattr(al.ids, "assemble", forbidden)
        monkeypatch.setattr(al.ids, "spectrum", forbidden)
        out = al.sample_rescaled_spectra(model, vol, table, e0, 9, 6, window=self.WINDOW)
        assert streams == list(range(9)) and len(out) == 9

    def test_window_none_and_2d_keep_the_full_spectrum(self, chain):
        model, table, e0, vol = chain
        for rescaled in al.sample_rescaled_spectra(model, vol, table, e0, 3, 6):
            assert len(rescaled.xi) == len(vol)
        model2 = AlloyModel(
            al.build_single_site(2, {(0, 0): 1.0}), al.CouplingMeasure.uniform(0.0, 1.0), 15.0
        )
        box = build_volume(2, 3)
        table2 = ids_estimate(model2, box, 5, master_seed=5)
        e2 = table2.median_energy()
        plain = al.sample_rescaled_spectra(model2, box, table2, e2, 3, 6)
        windowed = al.sample_rescaled_spectra(model2, box, table2, e2, 3, 6, window=self.WINDOW)
        for a, b in zip(plain, windowed):
            assert len(b.xi) == len(box)
            np.testing.assert_array_equal(a.xi, b.xi)

    BAD_INPUTS = {
        "bin-width-nan": ("poisson", {"bin_width": math.nan}),
        "bin-width-inf": ("poisson", {"bin_width": math.inf}),
        "window-nan": ("poisson", {"window": (math.nan, 5.0)}),
        "window-inf": ("poisson", {"window": (-5.0, math.inf)}),
        "sampled-window-nan": ("sample", {"window": (-5.0, math.nan)}),
        "sampled-window-inf": ("sample", {"window": (-math.inf, 5.0)}),
        "one-grid-energy": ("ids", {"n_grid": 1}),
        "no-grid-energy": ("ids", {"n_grid": 0}),
    }

    @pytest.mark.parametrize("call, kwargs", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
    def test_malformed_library_input_is_a_validation_error(self, chain, both, call, kwargs):
        model, table, e0, vol = chain
        calls = {
            "poisson": lambda: poisson_statistics(both[0], **kwargs),
            "sample": lambda: al.sample_rescaled_spectra(model, vol, table, e0, 200, 6, **kwargs),
            "ids": lambda: ids_estimate(model, vol, 2, 5, **kwargs),
        }
        with pytest.raises(al.ValidationError):
            calls[call]()

    @pytest.mark.parametrize("window", [(5.0, -5.0), (0.0, 0.5)])
    def test_malformed_window_rejected_before_drawing(self, chain, window, monkeypatch):
        model, table, e0, vol = chain
        monkeypatch.setattr(al.ids, "sample_field", None)  # a draw would raise TypeError
        with pytest.raises(al.ValidationError, match="unit length"):
            al.sample_rescaled_spectra(model, vol, table, e0, 200, 6, window=window)


class TestPoissonStatistics:
    def test_synthetic_poisson_process_passes(self, rng):
        spectra = synthetic_poisson_spectra(rng, 400)
        report = poisson_statistics(spectra, window=(-5.0, 5.0))
        assert 0.8 <= report.variance_ratio <= 1.2
        assert report.count_mean == pytest.approx(1.0, abs=0.1)
        assert report.ks_statistic < report.ks_critical_1pct
        assert report.poissonian
        assert report.chi_square_pvalue > 1e-3

    def test_rigid_lattice_rejected(self):
        # a deterministic unit lattice has zero count variance and flat gaps
        xi = np.arange(-7.5, 8.0, 1.0)
        spectra = [RescaledSpectrum(0.0, xi, 1000) for _ in range(300)]
        report = poisson_statistics(spectra, window=(-5.0, 5.0))
        assert report.variance_ratio < 0.2
        assert not report.poissonian

    def test_ks_calibration_at_one_percent(self, rng):
        # the 1% critical value should reject a true Poisson sample rarely
        rejections = sum(
            poisson_statistics(synthetic_poisson_spectra(rng, 220)).ks_statistic
            >= poisson_statistics(synthetic_poisson_spectra(rng, 220)).ks_critical_1pct
            for _ in range(12)
        )
        assert rejections <= 2

    def test_empty_window_warning(self):
        spectra = [RescaledSpectrum(0.0, np.empty(0), 100) for _ in range(250)]
        report = poisson_statistics(spectra)
        assert any("empty" in w for w in report.warnings)
        assert not report.poissonian

    def test_min_realizations_gate(self, rng, monkeypatch):
        spectra = synthetic_poisson_spectra(rng, 30)
        with pytest.raises(al.ValidationError):
            poisson_statistics(spectra)
        monkeypatch.setattr("alloysim.ids._MIN_REALIZATIONS", 30)
        report = poisson_statistics(spectra)
        assert report.n_realizations == 30

    def test_report_serialization(self, rng, tmp_path):
        spectra = synthetic_poisson_spectra(rng, 250)
        report = poisson_statistics(spectra)
        data = report.to_dict()
        assert set(data) >= {"variance_ratio", "ks_statistic", "poissonian", "warnings"}
        path = tmp_path / "gaps.csv"
        report.gap_histogram_to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "gap_left,gap_right,density,exp1_reference"
        assert len(lines) > 2


class TestSpecialFunctionForms:
    """``poisson_statistics`` evaluates the Poisson pmf and tail and the
    chi-square tail through ``scipy.special``; ``scipy.stats`` is the oracle,
    and the two must agree bit for bit."""

    @pytest.mark.parametrize("k", range(41))
    def test_poisson_pmf_and_tail(self, k):
        pmf = np.exp(special.xlogy(k, 1.0) - special.gammaln(k + 1) - 1.0)
        assert pmf == stats.poisson.pmf(k, 1.0)
        assert special.pdtrc(k, 1.0) == stats.poisson.sf(k, 1.0)

    @pytest.mark.parametrize("dof", range(1, 13))
    def test_chi_square_tail(self, dof):
        for x in [0.0, 1e-8, 0.3, 1.0, 2.5, 7.0, 12.0, 25.0, 60.0, 200.0]:
            assert special.chdtrc(dof, x) == stats.chi2.sf(x, dof)

    def test_report_matches_scipy_stats(self):
        spectra = synthetic_poisson_spectra(np.random.default_rng(11), 300)
        report = poisson_statistics(spectra, window=(-5.0, 5.0))
        # the chi-square test redone through scipy.stats from the raw counts
        pooled = np.concatenate(
            [np.histogram(sp.xi, bins=np.arange(-5.0, 6.0))[0] for sp in spectra]
        )
        kmax = int(pooled.max())
        expected = [len(pooled) * stats.poisson.pmf(k, 1.0) for k in range(kmax + 1)]
        expected[-1] += len(pooled) * stats.poisson.sf(kmax, 1.0)
        observed = [int(np.sum(pooled == k)) for k in range(kmax + 1)]
        while len(expected) > 2 and expected[-1] < 5.0:
            e, o = expected.pop(), observed.pop()
            expected[-1] += e
            observed[-1] += o
        chi2 = float(sum((o - e) ** 2 / e for o, e in zip(observed, expected)))
        histogram = [[k, o, e] for k, (o, e) in enumerate(zip(observed, expected))]
        assert report.count_histogram == histogram
        assert report.chi_square == chi2
        assert report.chi_square_dof == len(expected) - 1
        assert report.chi_square_pvalue == float(stats.chi2.sf(chi2, len(expected) - 1))


class TestForkMap:
    """``ids._fork_map`` and the loops that use it, against one serial loop."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_parts_cover_the_items_in_order(self, monkeypatch, cpus):
        force_cpus(monkeypatch, cpus)
        parts = al.ids._fork_map(lambda rows: (rows, os.getpid(), al.ids._cpus()), 10)
        assert [rows for rows, _, _ in parts] == [
            slice(10 * i // cpus, 10 * (i + 1) // cpus) for i in range(cpus)
        ]
        pids = [pid for _, pid, _ in parts]
        assert pids[0] == os.getpid() and len(set(pids)) == cpus
        # a call made inside a forked part runs serially
        assert [inner for _, _, inner in parts] == [cpus] + [1] * (cpus - 1)

    def test_serial_without_fork_and_never_more_parts_than_items(self, monkeypatch):
        force_cpus(monkeypatch, 8)
        assert al.ids._fork_map(lambda rows: rows, 2) == [slice(0, 1), slice(1, 2)]
        assert al.ids._fork_map(lambda rows: rows, 0) == [slice(0, 0)]
        monkeypatch.delattr(os, "fork")
        assert al.ids._cpus() == 1
        assert al.ids._fork_map(lambda rows: (rows, os.getpid()), 5) == [
            (slice(0, 5), os.getpid())
        ]

    def test_tables_and_spectra_do_not_depend_on_the_part_count(self, monkeypatch):
        model = AlloyModel(
            al.build_single_site(1, {(0,): 1.0}), al.CouplingMeasure.uniform(0.0, 1.0), 15.0
        )
        runs = []
        # 200 chains of 61 sites are below the fork floor; fork them anyway
        monkeypatch.setattr(al.ids, "_FORK_CHAIN_SITES", 0)
        for cpus in (1, 2, 3):
            force_cpus(monkeypatch, cpus)
            table = ids_estimate(model, build_volume(1, 100), 20, master_seed=5)
            e0, vol = table.median_energy(), build_volume(1, 60)
            # in this window the parts of 200 chains need different step counts
            windowed = al.sample_rescaled_spectra(model, vol, table, e0, 200, 6, window=(-1.0, 1.0))
            full = al.sample_rescaled_spectra(model, vol, table, e0, 7, 6)
            runs.append((table, windowed, full))
        serial = runs[0]
        for table, windowed, full in runs[1:]:
            assert np.array_equal(table.energies, serial[0].energies)
            assert np.array_equal(table.values, serial[0].values)
            for spectra, reference in ((windowed, serial[1]), (full, serial[2])):
                assert len(spectra) == len(reference)
                assert all(np.array_equal(a.xi, b.xi) for a, b in zip(spectra, reference))

    @pytest.mark.parametrize("shape, forks", [((7, 61), False), ((200, 61), False),
                                              ((261, 501), True)])
    def test_bisection_forks_only_blocks_above_the_floor(self, monkeypatch, shape, forks):
        calls = []
        fork_map = al.ids._fork_map
        monkeypatch.setattr(al.ids, "_fork_map", lambda fn, n: calls.append(n) or fork_map(fn, n))
        # brackets that have converged already: no halving, only the routing
        bracket = np.zeros((shape[0], 1))
        evals = al.ids._bisect_eigenvalues(np.zeros(shape), bracket.astype(int), bracket, bracket)
        assert calls == ([shape[0]] if forks else [])
        assert np.array_equal(evals, bracket)

    @pytest.mark.parametrize("error", [al.ValidationError, al.NumericalError])
    def test_a_forked_error_is_raised_as_the_serial_loop_raises_it(
        self, monkeypatch, flagship_model, error
    ):
        draw = al.ids.sample_field

        def refuse(potential, measure, volume, master_seed, stream, *args, **kwargs):
            if stream in (4, 7):
                raise error(f"stream {stream} refused")
            return draw(potential, measure, volume, master_seed, stream, *args, **kwargs)

        monkeypatch.setattr(al.ids, "sample_field", refuse)
        raised = []
        for cpus in (1, 2, 3):  # stream 4 is in the second part of 2 and of 3
            force_cpus(monkeypatch, cpus)
            with pytest.raises(al.AlloysimError) as info:
                ids_estimate(flagship_model, build_volume(1, 10), 9, 0)
            raised.append((type(info.value), str(info.value)))
        assert raised == [(error, "stream 4 refused")] * 3

    def test_an_error_in_the_callers_part_leaves_no_child(self, monkeypatch):
        force_cpus(monkeypatch, 3)

        def part(rows):
            if rows.start == 0:
                raise al.ValidationError("first part refused")
            return np.zeros(1 << 17)  # 1 MB: a child blocks until its pipe is read or closed

        with deadline(60), pytest.raises(al.ValidationError, match="first part refused"):
            al.ids._fork_map(part, 3)

    def test_a_child_that_ends_without_a_result(self, monkeypatch):
        force_cpus(monkeypatch, 2)

        def part(rows):
            if rows.start:
                os._exit(3)
            return rows

        message = r"items 5 to 9 of 10 ended without a result \(exit code 3\)"
        with pytest.raises(al.NumericalError, match=message):
            al.ids._fork_map(part, 10)
