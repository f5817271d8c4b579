import numpy as np
import pytest

import alloysim as al
from alloysim import build_single_site, build_volume, draw_fields, sample_field
from alloysim import field as field_module
from alloysim.rng import _BLOCK


class TestConvolution:
    def test_manual_double_loop_oracle(self, uniform01):
        # independent evaluation: field(x) = sum over support of
        # u(theta) * coupling(x - theta), couplings looked up point by point
        u = build_single_site(1, [((0,), 1.0), ((1,), 0.5), ((-2,), -2.0)])
        vol = build_volume(1, radius=4)
        real = sample_field(u, uniform01, vol, master_seed=7, stream_index=0)
        for i, x in enumerate(vol.points):
            expected = sum(
                val * real.coupling_at(x - np.asarray(pt))
                for pt, val in zip(u.points, u.values)
            )
            assert real.field[i] == pytest.approx(expected, abs=1e-14)

    def test_manual_oracle_2d(self, gaussian01):
        u = build_single_site(2, [((0, 0), 1.0), ((1, 0), 2.0), ((0, -1), -1.0)])
        vol = build_volume(2, radius=2)
        real = sample_field(u, gaussian01, vol, master_seed=3, stream_index=5)
        for i, x in enumerate(vol.points):
            expected = sum(
                val * real.coupling_at(x - np.asarray(pt))
                for pt, val in zip(u.points, u.values)
            )
            assert real.field[i] == pytest.approx(expected, abs=1e-14)

    def test_delta_profile_field_is_couplings(self, delta_profile, uniform01):
        vol = build_volume(1, radius=3)
        real = sample_field(delta_profile, uniform01, vol, master_seed=11, stream_index=0)
        assert [tuple(p) for p in real.coupling_points] == [tuple(p) for p in vol.points]
        np.testing.assert_array_equal(real.field, real.couplings)

    def test_coupling_set_is_union_of_shifts(self, two_tap, uniform01):
        vol = build_volume(1, radius=2)
        real = sample_field(two_tap, uniform01, vol, master_seed=1, stream_index=0)
        # support {0, 1} shifts the box [-2, 2] to cover [-3, 2]
        assert real.coupling_points[:, 0].tolist() == [-3, -2, -1, 0, 1, 2]

    def test_reconstruction_error_zero(self, two_tap, uniform01):
        vol = build_volume(1, radius=5)
        real = sample_field(two_tap, uniform01, vol, master_seed=2, stream_index=4)
        assert real.reconstruction_error() == 0.0

    def test_linearity_in_profile(self, uniform01):
        # profiles sharing a support see identical couplings, so the field of
        # the sum profile is the sum of the fields
        vol = build_volume(1, radius=3)
        ua = build_single_site(1, [((0,), 1.0), ((1,), 2.0)])
        ub = build_single_site(1, [((0,), 3.0), ((1,), -1.0)])
        uc = build_single_site(1, [((0,), 4.0), ((1,), 1.0)])
        fields = [
            sample_field(u, uniform01, vol, master_seed=9, stream_index=0).field
            for u in (ua, ub, uc)
        ]
        np.testing.assert_allclose(fields[0] + fields[1], fields[2], atol=1e-14)


class TestDeterminism:
    def test_same_stream_bit_for_bit(self, two_tap, uniform01):
        vol = build_volume(1, radius=6)
        a = sample_field(two_tap, uniform01, vol, master_seed=5, stream_index=3)
        b = sample_field(two_tap, uniform01, vol, master_seed=5, stream_index=3)
        np.testing.assert_array_equal(a.couplings, b.couplings)
        np.testing.assert_array_equal(a.field, b.field)

    def test_streams_differ(self, two_tap, uniform01):
        vol = build_volume(1, radius=6)
        a = sample_field(two_tap, uniform01, vol, master_seed=5, stream_index=0)
        b = sample_field(two_tap, uniform01, vol, master_seed=5, stream_index=1)
        assert not np.array_equal(a.couplings, b.couplings)

    def test_attempts_differ(self, two_tap, uniform01):
        vol = build_volume(1, radius=6)
        a = sample_field(two_tap, uniform01, vol, master_seed=5, stream_index=0, attempt=0)
        b = sample_field(two_tap, uniform01, vol, master_seed=5, stream_index=0, attempt=1)
        assert not np.array_equal(a.couplings, b.couplings)

    def test_master_seeds_differ(self, two_tap, uniform01):
        vol = build_volume(1, radius=6)
        a = sample_field(two_tap, uniform01, vol, master_seed=5, stream_index=0)
        b = sample_field(two_tap, uniform01, vol, master_seed=6, stream_index=0)
        assert not np.array_equal(a.couplings, b.couplings)

    def test_stream_rng_reproducible(self):
        x = al.stream_rng(42, 7, 0).uniform(size=4)
        y = al.stream_rng(42, 7, 0).uniform(size=4)
        np.testing.assert_array_equal(x, y)


class TestStatistics:
    def test_field_mean_matches_profile_total(self, two_tap, uniform01):
        vol = build_volume(1, radius=200)
        real = sample_field(two_tap, uniform01, vol, master_seed=123, stream_index=0)
        # E field = total * E omega = 2 * 0.5
        assert real.field.mean() == pytest.approx(1.0, abs=0.05)

    def test_coupling_at_outside_raises(self, two_tap, uniform01):
        vol = build_volume(1, radius=2)
        real = sample_field(two_tap, uniform01, vol, master_seed=1, stream_index=0)
        with pytest.raises(KeyError):
            real.coupling_at(50)

    def test_coupling_at_rejects_non_integer_points(self, two_tap, uniform01):
        vol = build_volume(1, radius=2)
        real = sample_field(two_tap, uniform01, vol, master_seed=1, stream_index=0)
        for point in (0.5, [1.5], [0, 0]):
            with pytest.raises(al.ValidationError):
                real.coupling_at(point)


MEASURES = {
    "uniform": al.CouplingMeasure.uniform(-0.5, 1.5),
    "gaussian": al.CouplingMeasure.gaussian(0.3, 2.0),
    "bernoulli": al.CouplingMeasure.bernoulli(0.3, (-1.0, 2.0)),
    "cosine": al.CouplingMeasure.cosine(0.0, 1.0),
    # triangle density on [0, 1], peak 2 at the middle knot
    "grid": al.CouplingMeasure.from_grid(np.linspace(0.0, 1.0, 11),
                                         2.0 - 4.0 * np.abs(np.linspace(0.0, 1.0, 11) - 0.5)),
}

SHAPES = {
    "chain-one-tap": (build_single_site(1, [((0,), 1.0)]), build_volume(1, radius=4)),
    "chain-two-tap": (build_single_site(1, [((0,), 1.0), ((1,), 0.7)]), build_volume(1, radius=4)),
    # three taps: the order of the gather's additions shows in the last bits
    "chain-three-tap": (build_single_site(1, [((0,), 1.0), ((1,), 0.7), ((-2,), -0.3)]),
                        build_volume(1, radius=4)),
    "box-one-tap": (build_single_site(2, [((0, 0), 1.0)]), build_volume(2, radius=2)),
    "box-two-tap": (build_single_site(2, [((0, 0), 1.0), ((1, 0), -0.4)]),
                    build_volume(2, radius=2)),
    "explicit": (build_single_site(1, [((0,), 1.0), ((-2,), 0.5)]),
                 build_volume(1, points=[(5,), (0,), (1,)])),
}


def _stacked(u, measure, vol, seed, first, count, attempts=None):
    attempts = [0] * count if attempts is None else attempts
    return np.array([sample_field(u, measure, vol, seed, first + i, a).field
                     for i, a in zip(range(count), attempts)])


class TestDrawFields:
    """A block of fields equals the per-stream draws stacked, bit for bit."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("kind", sorted(MEASURES))
    def test_rows_equal_sample_field(self, kind, shape):
        u, vol = SHAPES[shape]
        fields, attempts = draw_fields(u, MEASURES[kind], vol, 17, 3, 6)
        assert fields.shape == (6, len(vol))
        assert np.array_equal(fields, _stacked(u, MEASURES[kind], vol, 17, 3, 6))
        assert attempts.tolist() == [0] * 6

    @pytest.mark.parametrize("kind", sorted(MEASURES))
    def test_block_straddles_a_seed_block_edge(self, kind, two_tap):
        vol = build_volume(1, radius=3)
        first = _BLOCK - 4
        fields, _ = draw_fields(two_tap, MEASURES[kind], vol, 29, first, 9)
        assert np.array_equal(fields, _stacked(two_tap, MEASURES[kind], vol, 29, first, 9))

    @pytest.mark.parametrize("kind", sorted(MEASURES))
    def test_failed_stream_comes_back_at_attempt_one(self, kind, two_tap, monkeypatch):
        vol = build_volume(1, radius=3)
        stream = field_module.stream_rng

        def flaky(master_seed, stream_index, attempt=0):
            if (stream_index, attempt) == (12, 0):
                raise al.NumericalError("rejected draw")
            return stream(master_seed, stream_index, attempt)

        monkeypatch.setattr(field_module, "stream_rng", flaky)
        fields, attempts = draw_fields(two_tap, MEASURES[kind], vol, 31, 10, 5)
        assert attempts.tolist() == [0, 0, 1, 0, 0]
        expected = _stacked(two_tap, MEASURES[kind], vol, 31, 10, 5, [0, 0, 1, 0, 0])
        assert np.array_equal(fields, expected)

    def test_stream_failing_every_attempt_raises(self, two_tap, uniform01, monkeypatch):
        stream = field_module.stream_rng

        def flaky(master_seed, stream_index, attempt=0):
            if stream_index == 2:
                raise al.NumericalError("rejected draw")
            return stream(master_seed, stream_index, attempt)

        monkeypatch.setattr(field_module, "stream_rng", flaky)
        with pytest.raises(al.NumericalError, match="realization 2 still singular"):
            draw_fields(two_tap, uniform01, build_volume(1, radius=2), 3, 0, 4)
