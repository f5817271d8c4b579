import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import alloysim as al
from alloysim import CouplingMeasure
from alloysim.experiments import load_config


def quad_norm(f, lo, hi):
    return integrate.quad(f, lo, hi, limit=200)[0]


class TestConstruction:
    def test_uniform_rejects_empty_interval(self):
        with pytest.raises(al.ValidationError):
            CouplingMeasure.uniform(1.0, 1.0)

    def test_gaussian_rejects_nonpositive_variance(self):
        with pytest.raises(al.ValidationError):
            CouplingMeasure.gaussian(0.0, 0.0)

    def test_bernoulli_probability_range(self):
        with pytest.raises(al.ValidationError):
            CouplingMeasure.bernoulli(1.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CouplingMeasure.gaussian(0.0, math.nan),
            lambda: CouplingMeasure.gaussian(math.nan, 1.0),
            lambda: CouplingMeasure.gaussian(math.inf, 1.0),
            lambda: CouplingMeasure.gaussian(0.0, math.inf),
            lambda: CouplingMeasure.bernoulli(0.5, (0.0, math.inf)),
            lambda: CouplingMeasure.bernoulli(0.5, (0.0, math.nan)),
            lambda: CouplingMeasure.bernoulli(math.nan),
            lambda: CouplingMeasure.uniform(-math.inf, 0.0),
            lambda: CouplingMeasure.uniform(0.0, math.nan),
            lambda: CouplingMeasure.cosine(0.0, math.inf),
            lambda: CouplingMeasure.cosine(-math.inf, 0.0),
        ],
        ids=["gaussian-nan-variance", "gaussian-nan-mean", "gaussian-inf-mean",
             "gaussian-inf-variance", "bernoulli-inf-level", "bernoulli-nan-level",
             "bernoulli-nan-p", "uniform-inf-end", "uniform-nan-end", "cosine-inf-end",
             "cosine-minus-inf-end"],
    )
    def test_non_finite_params_rejected(self, build):
        with pytest.raises(al.ValidationError):
            build()

    def test_grid_density_must_normalize(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(al.ValidationError):
            CouplingMeasure.from_grid(x, np.full(11, 2.0))

    @pytest.mark.parametrize(
        "x, density",
        [
            ([0.0, 0.5, 1.0], [0.0, 2.0, math.nan]),
            ([0.0, 0.5, 1.0], [0.0, 2.0, math.inf]),
            ([0.0, 0.5, math.inf], [0.0, 2.0, 0.0]),
            ([math.nan, 0.5, 1.0], [0.0, 2.0, 0.0]),
        ],
        ids=["nan-density", "inf-density", "inf-knot", "nan-knot"],
    )
    def test_grid_rejects_non_finite_values(self, x, density):
        with pytest.raises(al.ValidationError, match="integrates to"):
            CouplingMeasure.from_grid(x, density)

    def test_grid_accepts_normalized_density(self):
        x = np.linspace(0, 2, 401)
        d = np.where((x >= 0) & (x <= 1), 1.0, 0.0)
        d /= np.trapezoid(d, x)
        m = CouplingMeasure.from_grid(x, d)
        assert m.has_density


class TestDensities:
    @pytest.mark.parametrize(
        "measure",
        [
            CouplingMeasure.uniform(0, 1),
            CouplingMeasure.uniform(-2, 3),
            CouplingMeasure.cosine(0, 1),
            CouplingMeasure.cosine(-1, 4),
            CouplingMeasure.gaussian(0.5, 2.0),
        ],
    )
    def test_pdf_integrates_to_one(self, measure):
        lo, hi = measure.support
        if math.isinf(lo):
            lo, hi = -30, 30
        assert quad_norm(lambda x: float(measure.pdf(x)), lo, hi) == pytest.approx(1.0, abs=1e-8)

    def test_cdf_matches_pdf_quadrature(self, cosine01):
        for t in [0.1, 0.3, 0.55, 0.9]:
            direct = quad_norm(lambda x: float(cosine01.pdf(x)), 0.0, t)
            assert float(cosine01.cdf(t)) == pytest.approx(direct, abs=1e-10)

    def test_gaussian_cdf_value(self, gaussian01):
        assert float(gaussian01.cdf(0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_interval_mass_counts_atoms_on_closed_interval(self):
        m = CouplingMeasure.bernoulli(0.3, levels=(0.0, 1.0))
        assert float(m.interval_mass(0.0, 1.0)) == pytest.approx(1.0)
        assert float(m.interval_mass(0.5, 1.0)) == pytest.approx(0.3)
        assert float(m.interval_mass(0.2, 0.8)) == pytest.approx(0.0)
        assert float(m.interval_mass(0.0, 0.0)) == pytest.approx(0.7)

    def test_atom_weights(self):
        m = CouplingMeasure.bernoulli(0.25, levels=(-1.0, 2.0))
        assert m.atom_weights() == {-1.0: 0.75, 2.0: 0.25}
        with pytest.raises(al.NoDensityError):
            CouplingMeasure.uniform(0, 1).atom_weights()

    def test_mean_values(self):
        assert CouplingMeasure.uniform(0, 1).mean() == pytest.approx(0.5)
        assert CouplingMeasure.cosine(0, 2).mean() == pytest.approx(1.0)
        assert CouplingMeasure.gaussian(1.5, 3.0).mean() == pytest.approx(1.5)
        assert CouplingMeasure.bernoulli(0.25, (0, 1)).mean() == pytest.approx(0.25)


class TestSampling:
    def test_sample_moments_match(self, rng):
        for m, var in [
            (CouplingMeasure.uniform(0, 1), 1 / 12),
            (CouplingMeasure.cosine(0, 1), 1 / 12 - 1 / (2 * math.pi**2)),
            (CouplingMeasure.gaussian(0.5, 0.25), 0.25),
        ]:
            x = m.sample(rng, 200_000)
            assert x.mean() == pytest.approx(m.mean(), abs=0.01)
            assert x.var() == pytest.approx(var, rel=0.05)

    def test_samples_respect_support(self, rng):
        x = CouplingMeasure.cosine(2.0, 3.0).sample(rng, 10_000)
        assert x.min() >= 2.0 and x.max() <= 3.0

    @pytest.mark.parametrize("measure, expected", [
        (CouplingMeasure.uniform(-0.5, 1.5), lambda g, n: -0.5 + 2.0 * g.random(n)),
        (CouplingMeasure.gaussian(0.3, 2.0),
         lambda g, n: 0.3 + math.sqrt(2.0) * g.standard_normal(n)),
        (CouplingMeasure.bernoulli(0.3, (-1.0, 4.0)),
         lambda g, n: np.where(g.random(n) < 0.3, 4.0, -1.0)),
    ], ids=["uniform", "gaussian", "bernoulli"])
    def test_direct_kinds_map_the_generator_doubles(self, measure, expected):
        # one generator call per draw, then the affine map or threshold
        for n in (0, 1, 13, 1000):
            got = measure.sample(np.random.default_rng(7), n)
            assert np.array_equal(got, expected(np.random.default_rng(7), n))

    def test_bernoulli_levels(self, rng):
        x = CouplingMeasure.bernoulli(0.3, (-1.0, 4.0)).sample(rng, 20_000)
        assert set(np.unique(x)) == {-1.0, 4.0}
        assert (x == 4.0).mean() == pytest.approx(0.3, abs=0.02)

    def test_grid_sampling_tracks_density(self, rng):
        x = np.linspace(0, 1, 2001)
        d = 2 * x
        d /= np.trapezoid(d, x)
        m = CouplingMeasure.from_grid(x, d)
        s = m.sample(rng, 100_000)
        # mean of the linear ramp density is 2/3
        assert s.mean() == pytest.approx(2 / 3, abs=0.01)


# The kinds that take exactly one ``random()`` double per coupling: every kind
# but the gaussian, whose ziggurat may take more.
ONE_DOUBLE = {
    "uniform": CouplingMeasure.uniform(-0.5, 1.5),
    "bernoulli": CouplingMeasure.bernoulli(0.3, (-1.0, 4.0)),
    "cosine": CouplingMeasure.cosine(-1.0, 3.0),
    # zero density at both ends and a flat middle cell; cell masses .2 .4 .3 .1
    "grid": CouplingMeasure.from_grid([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.4, 0.4, 0.2, 0.0]),
}

# Writes fixed uniforms, edge values included, mapped through both inverse
# CDFs, then one byte: 1 if any of numpy's dispatched SIMD targets is on.
INVERSE_CDF_BYTES = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from alloysim import CouplingMeasure

v = np.concatenate([np.random.default_rng(0).random(100_000), [0.0, 0.5, 2.0**-53]])
grid = CouplingMeasure.from_grid([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.4, 0.4, 0.2, 0.0])
for measure in (CouplingMeasure.cosine(-1.0, 3.0), grid):
    sys.stdout.buffer.write(measure._map_rows(v.copy()).tobytes())
sys.stdout.buffer.write(bytes([any(__cpu_features__[f] for f in __cpu_dispatch__)]))
"""


class TestInverseCdf:
    """One double per coupling, mapped through the inverse CDF."""

    @pytest.mark.parametrize("kind", sorted(ONE_DOUBLE))
    def test_one_double_per_coupling(self, kind):
        for n in (0, 1, 13, 1000):
            rng = np.random.default_rng(11)
            ONE_DOUBLE[kind].sample(rng, n)
            fresh = np.random.default_rng(11)
            fresh.bit_generator.advance(n)
            assert rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("kind", ["cosine", "grid"])
    def test_kolmogorov_smirnov_against_the_cdf(self, kind):
        n = 100_000
        measure = ONE_DOUBLE[kind]
        cdf = measure.cdf(np.sort(measure.sample(np.random.default_rng(2026), n)))
        ranks = np.arange(n + 1) / n
        statistic = max(np.max(ranks[1:] - cdf), np.max(cdf - ranks[:-1]))
        assert statistic < 1.628 / math.sqrt(n)  # the 1 % critical value

    def test_cosine_solves_its_cdf_to_a_few_ulps(self):
        measure = CouplingMeasure.cosine(0.0, 1.0)
        v = np.concatenate([np.random.default_rng(5).random(1_000_000), [0.0, 0.5]])
        t = measure._map_rows(v.copy())
        assert np.max(np.abs(measure.cdf(t) - v)) <= 4.5e-16
        assert t[-2] == 0.0 and abs(t[-1] - 0.5) <= 1e-16

    def test_grid_round_trip(self):
        measure = ONE_DOUBLE["grid"]
        v = np.concatenate([np.random.default_rng(6).random(100_000), [0.0, 0.2, 0.6, 0.9]])
        x = measure._map_rows(v.copy())
        assert x.min() >= 0.0 and x.max() <= 4.0
        np.testing.assert_allclose(measure.cdf(x), v, rtol=0.0, atol=4e-16)
        np.testing.assert_allclose(x[-4:], [0.0, 1.0, 2.0, 3.0], rtol=0.0, atol=1e-15)
        # the CDF integrates the piecewise-linear density, not the knot CDF's chords
        np.testing.assert_allclose(measure.cdf([-1.0, 0.5, 1.5, 3.5, 5.0]),
                                   [0.0, 0.05, 0.4, 0.975, 1.0], rtol=1e-14)

    def test_same_bits_with_numpy_simd_loops_off(self):
        from numpy._core._multiarray_umath import __cpu_dispatch__

        src = str(Path(__file__).resolve().parents[1] / "src")

        def child(**settings):
            env = dict(os.environ, **settings)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            return subprocess.run([sys.executable, "-c", INVERSE_CDF_BYTES], env=env,
                                  capture_output=True, check=True).stdout

        default = child()
        simd_off = child(NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
        assert simd_off[-1] == 0
        assert simd_off[:-1] == default[:-1]


class TestConfigBlock:
    @pytest.mark.parametrize(
        "block, expected",
        [
            ({"kind": "uniform", "params": {"lo": -1, "hi": 2}}, CouplingMeasure.uniform(-1, 2)),
            ({"kind": "uniform", "params": {}}, CouplingMeasure.uniform()),
            ({"kind": "gaussian", "params": {"mean": 0.5, "variance": 2}},
             CouplingMeasure.gaussian(0.5, 2.0)),
            ({"kind": "gaussian", "params": {"variance": 4.0}}, CouplingMeasure.gaussian(0.0, 4.0)),
            ({"kind": "bernoulli", "params": {"p": 0.4, "levels": [-1, 1]}},
             CouplingMeasure.bernoulli(0.4, (-1.0, 1.0))),
            ({"kind": "bernoulli", "params": {"p": 0.4}}, CouplingMeasure.bernoulli(0.4)),
            ({"kind": "cosine", "params": {"lo": 0, "hi": 3}}, CouplingMeasure.cosine(0, 3)),
            ({"kind": "cosine", "params": {"hi": 3.0}}, CouplingMeasure.cosine(0.0, 3.0)),
            ({"kind": "grid", "params": {"x": [0, 0.5, 1], "density": [0, 2, 0]}},
             CouplingMeasure.from_grid([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])),
        ],
        ids=["uniform", "uniform-defaults", "gaussian", "gaussian-default-mean", "bernoulli",
             "bernoulli-default-levels", "cosine", "cosine-default-lo", "grid"],
    )
    def test_config_block_builds_the_constructor_measure(self, tmp_path, block, expected):
        # the same block in a model and in the params of a measure-only kind
        configs = [
            {"kind": "constants", "params": {},
             "model": {"dimension": 1, "lambda": 1.0, "single_site": [[[0], 1.0]],
                       "measure": block}},
            {"kind": "inverse-moment", "params": {"measure": block, "s": 0.5, "b": 0.5}},
        ]
        for i, cfg in enumerate(configs):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps({"schema_version": 1, **cfg}))
            loaded = load_config(path)
            measure = loaded.model.measure if loaded.model else loaded.params["measure"]
            assert measure == expected


class TestDensityNorms:
    def numeric_derivative_l1(self, pdf, lo, hi, order):
        # independent finite-difference oracle on a fine grid
        x = np.linspace(lo, hi, 400_001)
        d = pdf(x)
        for _ in range(order):
            d = np.gradient(d, x)
        return np.trapezoid(np.abs(d), x)

    def test_gaussian_norms_closed_form(self):
        sd = 0.7
        m = CouplingMeasure.gaussian(0.0, sd * sd)
        norms = al.density_norms(m)
        assert norms.grad_l1 == pytest.approx(2 / (sd * math.sqrt(2 * math.pi)), rel=1e-12)
        assert norms.hess_l1 == pytest.approx(
            4 * math.exp(-0.5) / (sd * sd * math.sqrt(2 * math.pi)), rel=1e-12
        )
        oracle = self.numeric_derivative_l1(lambda x: np.asarray(m.pdf(x)), -7 * sd, 7 * sd, 1)
        assert norms.grad_l1 == pytest.approx(oracle, rel=1e-4)

    def test_cosine_norms_closed_form(self):
        w = 2.5
        m = CouplingMeasure.cosine(0.0, w)
        norms = al.density_norms(m)
        assert norms.grad_l1 == pytest.approx(4 / w, rel=1e-12)
        assert norms.hess_l1 == pytest.approx(8 * math.pi / w**2, rel=1e-12)
        oracle = self.numeric_derivative_l1(lambda x: np.asarray(m.pdf(x)), 0, w, 1)
        assert norms.grad_l1 == pytest.approx(oracle, rel=1e-4)

    def test_uniform_norms_bv_reading(self):
        norms = al.density_norms(CouplingMeasure.uniform(0, 2))
        assert norms.grad_l1 == pytest.approx(1.0)
        assert norms.total_variation == pytest.approx(1.0)
        assert math.isinf(norms.hess_l1)

    def test_grid_norms_match_cosine(self):
        x = np.linspace(0.0, 1.0, 20001)
        d = 1.0 - np.cos(2 * math.pi * x)
        m = CouplingMeasure.from_grid(x, d)
        norms = al.density_norms(m)
        assert norms.grad_l1 == pytest.approx(4.0, rel=1e-3)
        assert norms.hess_l1 == pytest.approx(8 * math.pi, rel=1e-3)
        assert norms.error is not None

    def test_atomic_measure_has_no_norms(self):
        with pytest.raises(al.NoDensityError):
            al.density_norms(CouplingMeasure.bernoulli(0.5))


class TestHolder:
    @pytest.mark.parametrize(
        "measure",
        [
            CouplingMeasure.uniform(0, 1),
            CouplingMeasure.gaussian(0, 1),
            CouplingMeasure.cosine(0, 1),
        ],
    )
    def test_declared_parameters_verify(self, measure):
        check = al.holder_parameters(measure)
        assert check.passed, check.witness

    def test_declared_values(self):
        assert al.declared_holder(CouplingMeasure.uniform(0, 2)) == (1.0, 1.0)
        alpha, c1 = al.declared_holder(CouplingMeasure.cosine(0, 2))
        assert (alpha, c1) == (1.0, 2.0)

    def test_too_small_constant_fails_with_witness(self):
        check = al.holder_parameters(CouplingMeasure.uniform(0, 1), c1=0.5)
        assert not check.passed
        t, eps = check.witness
        # the witness really does violate the claimed bound
        mass = float(CouplingMeasure.uniform(0, 1).interval_mass(t - eps, t + eps))
        assert mass > 0.5 * eps

    def test_atoms_fail_for_every_alpha(self):
        m = CouplingMeasure.bernoulli(0.5)
        for alpha in [0.25, 0.5, 1.0, 2.0]:
            check = al.holder_parameters(m, alpha=alpha, c1=100.0)
            assert not check.passed

    def test_atoms_need_explicit_parameters(self):
        with pytest.raises(al.ValidationError):
            al.holder_parameters(CouplingMeasure.bernoulli(0.5))
