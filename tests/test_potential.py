import math

import numpy as np
import pytest

import alloysim as al
from alloysim import build_single_site


class TestConstruction:
    def test_points_sorted_lexicographically(self):
        u = build_single_site(2, [((1, 0), 2.0), ((0, 1), 3.0), ((0, 0), 1.0)])
        assert u.points == ((0, 0), (0, 1), (1, 0))
        assert u.values == (1.0, 3.0, 2.0)

    def test_mapping_input(self, two_tap):
        assert u_support(two_tap) == {(0,): 1.0, (1,): 1.0}

    def test_duplicate_point_rejected(self):
        with pytest.raises(al.ValidationError):
            build_single_site(1, [((0,), 1.0), ((0,), 2.0)])

    def test_zero_value_rejected(self):
        with pytest.raises(al.ValidationError):
            build_single_site(1, [((0,), 0.0)])

    def test_empty_rejected(self):
        with pytest.raises(al.ValidationError):
            build_single_site(1, [])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(al.ValidationError):
            build_single_site(2, [((0,), 1.0)])

    def test_value_at(self, two_tap):
        assert two_tap.value_at(np.array([0])) == 1.0
        assert two_tap.value_at(1) == 1.0
        assert two_tap.value_at((5,)) == 0.0

    def test_norms_and_diameter(self, two_tap):
        assert two_tap.l1_norm == pytest.approx(2.0)
        assert two_tap.max_abs == pytest.approx(1.0)
        assert two_tap.total == pytest.approx(2.0)
        assert two_tap.diameter == 1


def u_support(u):
    return u.as_dict()


class TestCertificate:
    def test_flagship_profile(self, two_tap):
        # all values positive with the top index positive: index 0 joins the
        # shifted set, so both couplings pin and the slope is n max/min
        assert two_tap.pinned_top == (0, 1)
        assert two_tap.certificate_center == pytest.approx(2.0)
        assert two_tap.certificate_slope == pytest.approx(2.0)
        assert two_tap.positive_sum == pytest.approx(2.0)

    def test_sign_changing_profile(self):
        u = build_single_site(1, [((0,), 2.0), ((1,), -1.0)])
        # top index carries a negative value: only the shifted positive set
        # pins, and the center picks up the negative coefficient
        assert u.pinned_top == (1,)
        assert u.pinned_bottom == (0,)
        assert u.certificate_center == pytest.approx(-1.0)
        assert u.certificate_slope == pytest.approx(4.0)
        assert u.positive_sum == pytest.approx(2.0)

    def test_three_point_profile(self):
        u = build_single_site(1, [((0,), 1.0), ((1,), 1.0), ((2,), 0.5)])
        assert u.pinned_top == (0, 1, 2)
        assert u.certificate_center == pytest.approx(2.5)
        assert u.certificate_slope == pytest.approx(3 * 1.0 / 0.5)

    def test_non_contiguous_support_has_no_certificate(self):
        u = build_single_site(1, [((-1,), 1.0), ((1,), 1.0)])
        assert u.pinned_top is None
        with pytest.raises(al.ValidationError):
            u.certificate_center

    def test_pinned_sets_partition_support(self):
        for entries in [
            {(0,): 1.0, (1,): 1.0},
            {(0,): 2.0, (1,): -1.0},
            {(0,): -1.0, (1,): 2.0, (2,): -0.5},
        ]:
            u = build_single_site(1, entries)
            top, bottom = set(u.pinned_top), set(u.pinned_bottom)
            assert top | bottom == set(range(u.n_points))
            assert top & bottom == set()

    def test_sign_decomposition(self):
        u = build_single_site(1, [((0,), -1.0), ((1,), 2.0), ((2,), -0.5)])
        assert u.support_pos == (1,)
        assert u.support_neg == (0, 2)
        assert u.positive_sum == pytest.approx(2.0)

    def test_cached_constants_match_fresh_values(self):
        names = (
            "contiguous_from_zero", "support_pos", "support_neg", "positive_sum",
            "pinned_top", "pinned_bottom", "certificate_center", "certificate_slope",
            "max_abs", "min_abs",
        )
        entries = [((0,), -1.0), ((1,), 2.0), ((2,), -0.5)]
        u, twin = build_single_site(1, entries), build_single_site(1, entries)
        first = {name: getattr(u, name) for name in names}
        assert set(names) <= set(vars(u))
        for name in names:
            fresh = vars(al.SingleSitePotential)[name].func(u)
            assert getattr(u, name) == first[name] == fresh
        # the cache lives outside the fields: equal profiles stay equal
        assert u == twin and twin == u
        assert hash(u) == hash(twin)
        assert len({u, twin}) == 1


class TestVanishingOrder:
    def test_delta_profile_order_zero(self, delta_profile):
        assert al.vanishing_order(delta_profile).order == 0

    def test_two_tap_order_zero(self, two_tap):
        assert al.vanishing_order(two_tap).order == 0

    def test_difference_profile_order_one(self):
        u = build_single_site(1, [((0,), 1.0), ((1,), -1.0)])
        assert al.vanishing_order(u).order == 1

    def test_second_difference_order_two(self):
        u = build_single_site(1, [((0,), 1.0), ((1,), -2.0), ((2,), 1.0)])
        assert al.vanishing_order(u).order == 2

    def test_moment_oracle(self):
        # the order equals the first power moment sum_k u_k k^j that does not
        # vanish; check that independently of the falling-factorial evaluation
        weights = [(0, 3.0), (1, -5.0), (2, 1.0), (3, 1.0)]
        u = build_single_site(1, [((k,), w) for k, w in weights])
        n = al.vanishing_order(u).order
        for j in range(n):
            assert abs(sum(w * k**j for k, w in weights)) < 1e-9
        assert abs(sum(w * k**n for k, w in weights)) > 1e-9

    def test_order_zero_iff_nonzero_total(self):
        u = build_single_site(1, [((0,), 1.5), ((2,), 0.5)])
        assert u.total != 0 and al.vanishing_order(u).order == 0

    def test_two_dimensional_difference(self):
        u = build_single_site(2, [((0, 0), 1.0), ((1, 0), -1.0)])
        result = al.vanishing_order(u)
        assert result.order == 1

    def test_all_orders_vanishing_raises(self):
        u = build_single_site(1, [((0,), 1.0), ((1,), -1.0)])
        with pytest.raises(al.NumericalError):
            al.vanishing_order(u, max_order=0)


class TestConvolutionInverse:
    def test_delta_is_self_inverse(self, delta_profile):
        assert al.convolution_inverse_norm(delta_profile).value == pytest.approx(1.0)

    @pytest.mark.parametrize("a", [0.2, 0.5, -0.7])
    def test_geometric_inverse(self, a):
        # (delta_0 + a delta_1) inverts to sum_k (-a)^k delta_k, with l1 norm
        # 1 / (1 - |a|)
        u = build_single_site(1, [((0,), 1.0), ((1,), a)])
        result = al.convolution_inverse_norm(u)
        assert result.value == pytest.approx(1 / (1 - abs(a)), rel=1e-5)
        assert result.symbol_min == pytest.approx(1 - abs(a), abs=1e-3)

    def test_vanishing_symbol_has_no_inverse(self):
        u = build_single_site(1, [((0,), 1.0), ((1,), -1.0)])
        with pytest.raises(al.NumericalError):
            al.convolution_inverse_norm(u)

    def test_two_dimensional_delta(self):
        u = build_single_site(2, [((0, 0), 1.0)])
        assert al.convolution_inverse_norm(u).value == pytest.approx(1.0)

    def test_scaling(self):
        u = build_single_site(1, [((0,), 4.0)])
        assert al.convolution_inverse_norm(u).value == pytest.approx(0.25)

    def test_four_dimensional_profile_has_no_truncation_box(self):
        # the radius-4 box has 9**4 = 6561 > 6000 points; refused before the
        # symbol is evaluated on its 64**4 grid
        u = build_single_site(4, [((0, 0, 0, 0), 1.0)])
        with pytest.raises(al.ValidationError, match="dimension 4"):
            al.convolution_inverse_norm(u)


class TestUniformBoundConstants:
    def test_flagship_values(self, two_tap):
        consts = al.uniform_bound_constants(two_tap, s=0.5, grad_l1=2.0)
        assert consts.rate == pytest.approx(math.log(1.5))
        assert consts.product_constant == pytest.approx(5.0)
        expected = (8.0 / 2.0**0.5) * (0.5**-0.5 / 0.5) * 2.0**0.5 * 5.0**0.5
        assert consts.coefficient == pytest.approx(expected)

    def test_two_dimensional_product_constant(self):
        u = build_single_site(2, [((0, 0), 1.0), ((1, 0), 1.0)])
        consts = al.uniform_bound_constants(u, s=0.5, grad_l1=2.0)
        assert consts.product_constant == pytest.approx(25.0)

    def test_measure_supplies_gradient_norm(self, two_tap, uniform01):
        direct = al.uniform_bound_constants(two_tap, s=0.5, grad_l1=2.0)
        via_measure = al.uniform_bound_constants(two_tap, s=0.5, measure=uniform01)
        assert via_measure.coefficient == pytest.approx(direct.coefficient)

    def test_single_point_support_rejected(self, delta_profile):
        with pytest.raises(al.ConstantUndefinedError):
            al.uniform_bound_constants(delta_profile, s=0.5, grad_l1=2.0)

    def test_bound_decreasing_in_coupling(self, two_tap):
        consts = al.uniform_bound_constants(two_tap, s=0.5, grad_l1=2.0)
        values = [consts.bound(lam) for lam in [5.0, 10.0, 50.0]]
        assert values[0] > values[1] > values[2]
        assert values[1] == pytest.approx(consts.coefficient / 10.0**0.5)

    def test_invalid_s_rejected(self, two_tap):
        for s in [0.0, 1.0, -0.5]:
            with pytest.raises(al.ValidationError):
                al.uniform_bound_constants(two_tap, s=s, grad_l1=2.0)

    def test_nonpositive_total_rejected(self):
        u = build_single_site(1, [((0,), 1.0), ((1,), -2.0)])
        with pytest.raises(al.ValidationError):
            al.uniform_bound_constants(u, s=0.5, grad_l1=2.0)


class TestExponentialProfile:
    def test_entries_decay(self):
        entries = al.exponential_profile_entries(1, amplitude=1.0, rate=1.0, cutoff=math.exp(-3.0))
        u = build_single_site(1, entries, decay_cutoff=math.exp(-3.0))
        assert u.value_at(0) == pytest.approx(1.0)
        assert u.value_at(2) == pytest.approx(math.exp(-2.0))
        assert u.value_at(-3) == pytest.approx(math.exp(-3.0))
        assert u.value_at(4) == 0.0

    def test_two_dimensional_l1_ball(self):
        entries = al.exponential_profile_entries(2, amplitude=1.0, rate=0.5, cutoff=math.exp(-1.0))
        u = build_single_site(2, entries)
        # the support is the l1 ball of radius 2: 1 + 4 + 8 points
        assert u.n_points == 13
        assert u.value_at((1, 1)) == pytest.approx(math.exp(-1.0))

    def test_invalid_arguments(self):
        with pytest.raises(al.ValidationError):
            al.exponential_profile_entries(1, amplitude=1.0, rate=0.0, cutoff=0.5)
        with pytest.raises(al.ValidationError):
            al.exponential_profile_entries(1, amplitude=1.0, rate=1.0, cutoff=2.0)
