import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import alloysim as al
from alloysim import assemble, build_volume, green, green_column, spectrum


def diag_operator(diag, lam=1.0):
    """Chain operator with a prescribed diagonal (field = diag / lam)."""
    diag = np.asarray(diag, dtype=float)
    vol = build_volume(1, points=[[k] for k in range(len(diag))])
    fake = SimpleNamespace(volume=vol, field=diag / lam)
    return assemble(fake, lam)


class TestVolumes:
    def test_box_size_and_order_1d(self):
        vol = build_volume(1, radius=2)
        assert len(vol) == 5
        assert vol.points[:, 0].tolist() == [-2, -1, 0, 1, 2]

    def test_box_order_2d_lexicographic(self):
        vol = build_volume(2, radius=1)
        expected = [
            (-1, -1), (-1, 0), (-1, 1),
            (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        ]
        assert [tuple(p) for p in vol.points] == expected

    def test_box_cardinality(self):
        for d, L in [(1, 8), (2, 3), (3, 2)]:
            assert len(build_volume(d, radius=L)) == (2 * L + 1) ** d

    def test_radius_zero(self):
        vol = build_volume(1, radius=0)
        assert len(vol) == 1 and vol.index_of(0) == 0

    def test_index_of_outside(self):
        vol = build_volume(1, radius=3)
        assert vol.index_of(4) == -1
        assert vol.index_of(-3) == 0
        assert (7,) not in vol and 2 in vol

    @pytest.mark.parametrize("point", [[0.5], 0.9, [-0.5], np.float64(2.5), "a", [0, 0], [float("nan")]])
    def test_index_of_rejects_malformed_points(self, point):
        # a non-integer or wrong-dimension point is an input error, never a
        # truncated lookup of a neighbouring site
        with pytest.raises(al.ValidationError):
            build_volume(1, radius=3).index_of(point)

    def test_index_of_accepts_integral_forms(self):
        vol = build_volume(2, radius=1)
        assert vol.index_of((1, -1)) == vol.index_of(np.array([1, -1])) == vol.index_of([1.0, -1.0])
        assert vol.index_of((2, 0)) == -1
        assert build_volume(1, radius=1).index_of(np.int64(1)) == 2

    def test_explicit_points_must_be_integer(self):
        with pytest.raises(al.ValidationError):
            build_volume(1, points=[[0], [0.5]])
        with pytest.raises(al.ValidationError):
            build_volume(2, points=[(0, 0), (1,)])
        with pytest.raises(al.ValidationError):
            build_volume(1, points=[])

    def test_explicit_points_sorted(self):
        vol = build_volume(2, points=[(1, 0), (0, 1), (0, 0)])
        assert [tuple(p) for p in vol.points] == [(0, 0), (0, 1), (1, 0)]
        assert vol.kind == "explicit" and vol.radius is None

    def test_duplicate_points_rejected(self):
        with pytest.raises(al.ValidationError):
            build_volume(1, points=[(0,), (0,)])

    def test_both_or_neither_argument_rejected(self):
        with pytest.raises(al.ValidationError):
            build_volume(1)
        with pytest.raises(al.ValidationError):
            build_volume(1, radius=2, points=[(0,)])

    def test_neighbor_pair_counts(self):
        assert len(build_volume(1, radius=4).neighbor_pairs()) == 8
        L = 2
        n_side = 2 * L + 1
        assert len(build_volume(2, radius=L).neighbor_pairs()) == 2 * n_side * (n_side - 1)

    def test_neighbors_axis_by_axis_minus_first(self):
        chain = build_volume(1, radius=2)
        assert chain.neighbors(chain.index_of(0)) == [chain.index_of(-1), chain.index_of(1)]
        assert chain.neighbors(chain.index_of(-2)) == [chain.index_of(-1)]
        box = build_volume(2, radius=1)
        expected = [box.index_of(p) for p in [(-1, 0), (1, 0), (0, -1), (0, 1)]]
        assert box.neighbors(box.index_of((0, 0))) == expected
        assert box.neighbors(box.index_of((1, 1))) == [box.index_of((0, 1)), box.index_of((1, 0))]
        gap = build_volume(1, points=[(0,), (2,)])
        assert gap.neighbors(0) == gap.neighbors(1) == []

    def test_is_chain(self):
        assert build_volume(1, radius=3).is_chain
        assert not build_volume(2, radius=1).is_chain
        assert not build_volume(1, points=[(0,), (2,)]).is_chain


class TestAssembly:
    def test_matrix_structure(self):
        op = diag_operator([2.0, -1.0, 0.5])
        expected = np.array([
            [2.0, -1.0, 0.0],
            [-1.0, -1.0, -1.0],
            [0.0, -1.0, 0.5],
        ])
        np.testing.assert_allclose(op.matrix, expected)

    def test_norm_bound_dominates_spectrum(self):
        op = diag_operator([1.5, -2.0, 0.0, 3.0])
        assert op.norm_bound() >= np.abs(spectrum(op)).max()

    def test_symmetry(self):
        op = diag_operator(np.linspace(-1, 1, 6))
        np.testing.assert_array_equal(op.matrix, op.matrix.T)

    def test_chain_counts_never_build_the_matrix(self, flagship_model, monkeypatch):
        def dense(op):
            raise AssertionError(f"dense {op.size} x {op.size} matrix built on a chain")

        monkeypatch.setattr(al.FiniteVolumeOperator, "matrix", property(dense))
        vol = build_volume(1, radius=6)
        al.wegner_count(flagship_model, vol, [(9.0, 11.0)], 5, 0)
        al.two_level_probability(flagship_model, vol, (9.0, 11.0), 5, 0)
        al.ids_estimate(flagship_model, vol, 5, 0, n_grid=11)


class TestSpectrum:
    def test_free_chain_closed_form(self):
        # minus the path adjacency has eigenvalues -2 cos(k pi / (n+1))
        n = 12
        op = diag_operator(np.zeros(n))
        expected = np.sort(-2 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
        np.testing.assert_allclose(spectrum(op), expected, atol=1e-12)

    def test_tridiagonal_path_matches_dense(self, rng):
        op = diag_operator(rng.normal(size=30))
        assert op.volume.is_chain
        np.testing.assert_allclose(spectrum(op), np.linalg.eigvalsh(op.matrix), atol=1e-10)


class TestGreen:
    def test_two_site_closed_form(self):
        a, b, z = 0.7, -0.3, 0.1 + 0.2j
        op = diag_operator([a, b])
        det = (a - z) * (b - z) - 1.0
        assert green(op, z, 0, 1) == pytest.approx(1.0 / det)
        assert green(op, z, 0, 0) == pytest.approx((b - z) / det)
        assert green(op, z, 1, 1) == pytest.approx((a - z) / det)

    def test_symmetric_in_arguments(self, rng):
        op = diag_operator(rng.normal(size=7))
        z = 0.3 + 0.05j
        assert green(op, z, 1, 5) == pytest.approx(green(op, z, 5, 1))

    def test_outside_points_give_zero(self):
        op = diag_operator([1.0, 2.0])
        assert green(op, 1j, 0, 9) == 0.0
        assert green(op, 1j, -4, 1) == 0.0

    def test_column_solves_shifted_system(self, rng):
        op = diag_operator(rng.normal(size=9))
        z = -0.2 + 0.07j
        col = green_column(op, z, 4)
        shifted = op.matrix - z * np.eye(op.size)
        rhs = np.zeros(op.size)
        rhs[4] = 1.0
        assert np.abs(shifted @ col - rhs).max() < 1e-12

    def test_column_outside_raises(self):
        op = diag_operator([1.0, 2.0])
        with pytest.raises(al.ValidationError):
            green_column(op, 1j, 5)

    def test_real_energy_guard(self):
        op = diag_operator([1.0, 2.0, 3.0])
        e0 = float(spectrum(op)[0])
        with pytest.raises(al.NumericalError):
            green_column(op, e0, 0)

    def test_real_energy_away_from_spectrum_works(self):
        op = diag_operator([1.0, 2.0, 3.0])
        col = green_column(op, 100.0, 0)
        assert np.all(np.isfinite(col.real))

    def test_imaginary_part_sign(self, rng):
        # Im G(z; x, x) has the sign of Im z for self-adjoint operators
        op = diag_operator(rng.normal(size=11))
        g = green(op, 0.4 + 0.3j, 2, 2)
        assert g.imag > 0


class TestChainGreen:
    """The batched tridiagonal kernel against dense solves of assembled chains."""

    @pytest.mark.parametrize("n", [1, 2, 3, 21, 33])
    @pytest.mark.parametrize("z", [0.3 + 0.05j, 0.3 - 0.05j, 10.0 + 0.01j])
    def test_rows_match_dense_columns(self, rng, n, z):
        diags = 10.0 * rng.normal(size=(4, n))
        sites = sorted({0, n - 1, n // 2})
        rows = al.chain_green(diags, z, sites)
        assert rows.shape == (4, len(sites), n)
        for b, diag in enumerate(diags):
            op = diag_operator(diag)
            for i, site in enumerate(sites):
                dense = green_column(op, z, [site])
                np.testing.assert_allclose(rows[b, i], dense, rtol=1e-12, atol=0)

    def test_real_energy_rejected(self):
        with pytest.raises(al.ValidationError):
            al.chain_green(np.zeros((1, 3)), 0.5, [0])

    @pytest.mark.parametrize("n", [401, 801])
    @pytest.mark.parametrize("eta", [1e-4, 0.01])
    def test_ward_identity_on_long_chains(self, rng, n, eta):
        # sum_y |G(z; x, y)|^2 = Im G(z; x, x) / Im z holds row by row with no
        # second solver, at sizes where a dense oracle would be slow; the
        # kernel meets it to about 1e-15 relative
        diags = 15.0 * rng.uniform(size=(256, n))
        sites = [0, n // 2, n - 1]
        rows = al.chain_green(diags, 7.5 + 1j * eta, sites)
        norms = np.sum(rows.real ** 2 + rows.imag ** 2, axis=2)
        diagonal = rows[:, np.arange(len(sites)), sites]
        ward = diagonal.imag / eta
        assert np.all(ward > 0)
        assert np.max(np.abs(norms - ward) / ward) < 1e-13


def dense_column(op, z, iy):
    """Oracle for ``green_column``: a dense solve of ``(H - z) g = e_y``."""
    rhs = np.zeros(op.size)
    rhs[iy] = 1.0
    return np.linalg.solve(op.matrix - z * np.eye(op.size), rhs)


def box_operator(rng, d, radius, lam=10.0):
    vol = build_volume(d, radius=radius)
    return assemble(SimpleNamespace(volume=vol, field=rng.normal(size=len(vol))), lam)


def box_targets(d, radius):
    """A corner, an edge point, the centre, and points of the first and the
    last slab (first coordinate -radius and +radius)."""
    inner = [0] * (d - 1)
    return list(dict.fromkeys([
        (-radius,) * d,
        (0, *inner[1:], radius),
        (0,) * d,
        (-radius, *inner),
        (radius, *[min(1, radius)] * (d - 1)),
    ]))


class TestSlabColumn:
    """Slab elimination on d >= 2 boxes at complex energies against dense
    solves built here."""

    @pytest.mark.parametrize("d, radius", [(2, 0), (2, 1), (2, 3), (2, 10), (3, 1), (3, 2)])
    @pytest.mark.parametrize("z", [0.3 + 0.05j, 0.3 - 0.05j, -1.0 - 0.01j])
    def test_columns_and_entries_match_dense(self, rng, d, radius, z):
        op = box_operator(rng, d, radius)
        targets = box_targets(d, radius)
        for y in targets:
            iy = op.volume.index_of(y)
            expected = dense_column(op, z, iy)
            np.testing.assert_allclose(green_column(op, z, y), expected, rtol=1e-12, atol=0)
            for x in targets:
                entry = green(op, z, x, y)
                ix = op.volume.index_of(x)
                assert entry == pytest.approx(expected[ix], rel=1e-12, abs=0)

    def test_box_column_never_builds_the_matrix(self, rng, monkeypatch):
        def dense(op):
            raise AssertionError(f"dense {op.size} x {op.size} matrix built on a box")

        op = box_operator(rng, 2, 3)
        monkeypatch.setattr(al.FiniteVolumeOperator, "matrix", property(dense))
        green_column(op, 0.3 + 0.05j, (1, -2))
        green(op, -0.3j, (0, 0), (3, 3))

    def test_real_eigenvalue_of_box_raises(self, rng):
        op = box_operator(rng, 2, 2)
        e0 = float(spectrum(op)[7])
        with pytest.raises(al.NumericalError):
            green_column(op, e0, (0, 0))

    def test_chain_and_explicit_volume_take_dense_solve(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("the slab elimination ran")

        solved = []
        solve = np.linalg.solve

        def record(a, b):
            solved.append(np.shape(a))
            return solve(a, b)

        box = box_operator(rng, 2, 2)
        z = 0.3 - 0.05j
        via_slabs = green(box, z, (-2, 1), (1, 0))
        explicit = build_volume(2, points=box.volume.points.tolist())
        as_explicit = assemble(SimpleNamespace(volume=explicit, field=box.diagonal / box.lam),
                               box.lam)
        chain = diag_operator(rng.normal(size=9))
        monkeypatch.setattr(al.lattice, "_slab_column", refuse)
        monkeypatch.setattr(np.linalg, "solve", record)
        assert green(as_explicit, z, (-2, 1), (1, 0)) == pytest.approx(via_slabs, rel=1e-12)
        green(chain, z, 2, 6)
        assert solved == [(25, 25), (9, 9)]


def chain_eigenvalues(diag):
    n = len(diag)
    return scipy.linalg.eigvalsh_tridiagonal(diag, -np.ones(n - 1)) if n > 1 else diag.copy()


class TestChainCount:
    """The batched Sturm count against searchsorted on tridiagonal spectra."""

    @pytest.mark.parametrize("n", [1, 2, 3, 21, 501])
    def test_counts_match_spectra(self, rng, n):
        diags = 10.0 * rng.normal(size=(4, n))
        spectra = [chain_eigenvalues(d) for d in diags]
        off = rng.uniform(-40.0, 40.0, size=(4, 30))
        counts = al.chain_count(diags, off)
        assert counts.shape == (4, 30)
        for c, x, evals in zip(counts, off, spectra):
            np.testing.assert_array_equal(c, np.searchsorted(evals, x))

    @pytest.mark.parametrize("n", [1, 2, 3, 21, 501])
    def test_at_and_one_ulp_around_eigenvalues(self, rng, n):
        # LAPACK's eigenvalues are rounded, so at them the count may fall on
        # either side of each eigenvalue within its error, and no further
        diags = 10.0 * rng.normal(size=(3, n))
        spectra = [chain_eigenvalues(d) for d in diags]
        x = np.stack([
            np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])
            for e in spectra
        ])
        counts = al.chain_count(diags, x)
        for c, energies, diag, evals in zip(counts, x, diags, spectra):
            err = 8 * np.finfo(float).eps * (np.abs(diag).max() + 2.0)
            assert np.all(np.searchsorted(evals, energies - err) <= c)
            assert np.all(c <= np.searchsorted(evals, energies + err))

    def test_exact_eigenvalues_are_not_below_themselves(self):
        # eigenvalues c - 1, c + 1 (n = 2) and c (n = 3) are exact in floats
        for n, evals in ((1, [0.25]), (2, [-0.75, 1.25]), (3, [0.25])):
            diag = np.full((1, n), 0.25)
            for e in evals:
                x = [[np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]]
                below = int(np.searchsorted(chain_eigenvalues(diag[0]), e - 1e-9))
                assert al.chain_count(diag, x).tolist() == [[below, below, below + 1]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 21])
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    def test_exact_zero_pivots(self, n, zero):
        # an all-zero diagonal at x = 0 makes every other pivot exactly zero;
        # the free chain has n // 2 eigenvalues below 0 and, for odd n, one at 0
        diags = np.full((1, n), zero)
        assert al.chain_count(diags, np.zeros((1, 1))).item() == n // 2
        assert al.chain_count(diags, [[-1e-300, 1e-300]]).tolist() == [[n // 2, (n + 1) // 2]]

    def test_fortran_order_and_infinite_energies(self, rng):
        diags = rng.normal(size=(5, 40))
        x = np.column_stack([np.full(5, -np.inf), rng.normal(size=(5, 3)), np.full(5, np.inf)])
        counts = al.chain_count(np.asfortranarray(diags), x)
        np.testing.assert_array_equal(counts, al.chain_count(diags, x))
        assert np.all(counts[:, 0] == 0) and np.all(counts[:, -1] == 40)


class TestResolventIdentity:
    def test_residual_tiny(self, rng):
        op = diag_operator(rng.normal(size=14))
        assert al.resolvent_identity_residual(op, 0.37, 2, 9) < 1e-12

    def test_manual_identity(self):
        # sum of neighbor entries equals (diagonal - E) times the entry
        op = diag_operator([0.5, -0.4, 0.9, 0.1])
        energy = 0.23
        col = green_column(op, energy, 0)
        lhs = col[1] + col[3]
        rhs = (op.diagonal[2] - energy) * col[2]
        assert abs(lhs - rhs) < 1e-12
        assert al.resolvent_identity_residual(op, energy, 0, 2) < 1e-12

    def test_diagonal_pair_rejected(self):
        op = diag_operator([0.5, -0.4, 0.9])
        with pytest.raises(al.ValidationError):
            al.resolvent_identity_residual(op, 0.2, 1, 1)

    def test_outside_point_rejected(self):
        op = diag_operator([0.5, -0.4, 0.9])
        with pytest.raises(al.ValidationError):
            al.resolvent_identity_residual(op, 0.2, 0, 11)
