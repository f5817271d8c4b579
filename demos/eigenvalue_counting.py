"""Counting eigenvalues in small windows: one level, two levels, none far out.

The expected number of eigenvalues a finite-volume Hamiltonian places in an
energy window grows linearly with the window, and the per-unit-width count is
what the linear-trace bound controls.  The probability of seeing two levels
in the same small window is controlled separately through the mean
determinant of a 2x2 imaginary Green submatrix, which also sets the disorder
scaling.  The finite-volume criterion at the end asks the opposite question,
that distant Green entries are uniformly tiny at a fixed energy.
"""

import numpy as np
from dataclasses import replace

import alloysim as al

SEED = 20260815


def main():
    model = al.AlloyModel(
        al.build_single_site(1, {(0,): 1.0}),
        al.CouplingMeasure.gaussian(0.0, 1.0),
        10.0,
    )

    print("window counts per unit width while the window halves (L = 16)")
    vol = al.build_volume(1, 16)
    print(f"{'width':>7} {'count':>8} {'per unit':>9} {'implied C':>10}")
    widths = (0.1, 0.05, 0.025)
    ests = al.wegner_count(model, vol, [(-w / 2, w / 2) for w in widths], 2000, 4)
    for width, est in zip(widths, ests):
        print(f"{width:7.3f} {est.value:8.4f} {est.value / width:9.3f} "
              f"{est.metadata['implied_constant']:10.4f}")

    print()
    print("two-level determinant at Im z = 0.05 (L = 10)")
    vol10 = al.build_volume(1, 10)
    z = complex(0.0, 0.05)
    # the determinant mean rides on rare near-resonant draws, so the sample
    # count has to grow with lambda; this stays in the converged range
    lams = (5.0, 10.0, 20.0)
    est, *scaled = al.minami_determinant(model, vol10, z, [0], [1], [model.lam, *lams], 30_000,
                                         SEED, lam_samples=[10_000, 30_000, 30_000, 30_000])
    print(f"  mean {est.value:.3e} <= bound {est.metadata['bound']:.3e}, "
          f"min per-draw det {est.metadata['min_det']:.2e}")
    slope = np.polyfit(np.log(lams), np.log([est.value for est in scaled]), 1)[0]
    print(f"  disorder scaling slope {slope:.2f} (two powers of 1/lambda)")

    print()
    print("two eigenvalues in one window, chained to the determinant bound")
    res = al.two_level_probability(model, al.build_volume(1, 8),
                                   (-0.025, 0.025), 10_000, SEED)
    print(f"  P(two levels) {res.p_two.value:.2e} <= half factorial moment "
          f"{res.half_moment.value:.2e} <= bound {res.bound:.2e}")

    print()
    print("finite-volume criterion at strong disorder (lambda = 50, L = 6)")
    strong = replace(model, lam=50.0)
    prob = al.fvc_probability(strong, al.build_volume(1, 6), 0.0, 3.0, 400, SEED)
    print(f"  P(all far pairs below the threshold) = {prob.value:.3f}")


if __name__ == "__main__":
    main()
