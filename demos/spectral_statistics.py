"""Integrated density of states and local eigenvalue statistics.

The integrated density of states (IDS) is estimated by averaging normalized
eigenvalue counting functions over disorder.  Around a reference energy the
spectrum is then rescaled by volume times IDS increments, which makes the
mean spacing one; in the localized regime the rescaled points behave like a
Poisson process.  The script prints the two desk-scale signatures, unit
variance of unit-window counts and exponential unit-mean gaps, and shows a
rigid unit-spaced spectrum failing both.
"""

import numpy as np

import alloysim as al

SEED = 20260815


def main():
    model = al.AlloyModel(
        al.build_single_site(1, {(0,): 1.0}),
        al.CouplingMeasure.uniform(0.0, 1.0),
        15.0,
    )

    print("IDS estimate at lambda = 15 (uniform couplings)")
    table = al.ids_estimate(model, al.build_volume(1, 300), 20, SEED)
    e0 = table.median_energy()
    print(f"  grid resolution {table.resolution:.4f}, median energy {e0:.4f}")
    for energy in (e0 - 4.0, e0, e0 + 4.0):
        print(f"  N({energy:8.4f}) = {table.evaluate(energy):.4f}")

    probe = al.ids_positivity_probe(
        table, e0, kappa=3.0, window_pairs=[(1.0, -1.0), (1.0, 0.5)],
        eps_grid=[0.1, 0.2, 0.4],
    )
    print(f"  growth probe near the median passed: {probe.all_passed}")

    print()
    print("rescaled spectra near the reference energy (300 realizations)")
    # only the eigenvalues the statistics read: every rescaled point in the
    # window and the first one past it
    spectra = al.sample_rescaled_spectra(
        model, al.build_volume(1, 200), table, e0, 300, SEED + 1, window=(-5.0, 5.0)
    )
    report = al.poisson_statistics(spectra, window=(-5.0, 5.0))
    print(f"  unit-window count variance/mean {report.variance_ratio:.3f} "
          f"(Poisson: 1)")
    print(f"  gap KS statistic vs Exp(1): {report.ks_statistic:.4f} "
          f"(1% critical {report.ks_critical_1pct:.4f})")
    print(f"  verdict poissonian: {report.poissonian}")

    print()
    print("negative control: rigid unit-spaced spectrum")
    rigid = [
        al.RescaledSpectrum(e0=0.0, xi=np.arange(-8.0, 9.0) + 0.5,
                            volume_points=401)
        for _ in range(300)
    ]
    rigid_report = al.poisson_statistics(rigid)
    print(f"  variance/mean {rigid_report.variance_ratio:.3f}, "
          f"KS {rigid_report.ks_statistic:.3f}, "
          f"poissonian: {rigid_report.poissonian}")


if __name__ == "__main__":
    main()
