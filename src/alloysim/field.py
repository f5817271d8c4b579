"""Sampling the alloy field on a finite volume.

The field at a site is the convolution of i.i.d. couplings with the
single-site profile: ``field(x) = sum_i couplings[i] * u(x - i)``.  The
coupling index set of a volume is the union of the shifted supports, held in
lexicographic order so that identical ``(master_seed, stream_index)`` pairs
reproduce identical draws and shifted volumes see shifted copies of the same
realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import FiniteVolume, as_point
from .measures import CouplingMeasure
from .potential import SingleSitePotential
from .rng import stream_rng

__all__ = ["FieldRealization", "sample_field"]


@dataclass
class FieldRealization:
    """One draw of the couplings and the induced field on a volume."""

    volume: FiniteVolume
    potential: SingleSitePotential
    coupling_points: np.ndarray
    couplings: np.ndarray
    field: np.ndarray
    master_seed: int
    stream_index: int

    def coupling_at(self, point) -> float:
        """Coupling value at a lattice point (KeyError outside the set)."""
        key = as_point(point, self.volume.dimension)
        if not hasattr(self, "_cindex"):
            self._cindex = {tuple(p): i for i, p in enumerate(self.coupling_points)}
        return float(self.couplings[self._cindex[key]])

    def reconstruction_error(self) -> float:
        """Max relative defect between the stored field and its definition."""
        _, gather = self.volume.coupling_layout(self.potential)
        recon = np.zeros(len(self.volume))
        for value, cols in zip(self.potential.values, gather):
            recon += value * self.couplings[cols]
        scale = np.maximum(1.0, np.abs(self.field))
        return float(np.max(np.abs(recon - self.field) / scale))


def sample_field(
    u: SingleSitePotential,
    measure: CouplingMeasure,
    volume: FiniteVolume,
    master_seed: int,
    stream_index: int,
    attempt: int = 0,
) -> FieldRealization:
    """Draw one field realization on a volume.

    Couplings are drawn in lexicographic order of the coupling index set from
    the stream derived from ``(master_seed, stream_index, attempt)``.
    """
    coupling_points, gather = volume.coupling_layout(u)
    rng = stream_rng(master_seed, stream_index, attempt)
    couplings = measure.sample(rng, len(coupling_points))
    field = np.zeros(len(volume))
    for value, cols in zip(u.values, gather):
        field += value * couplings[cols]
    return FieldRealization(
        volume=volume,
        potential=u,
        coupling_points=coupling_points,
        couplings=couplings,
        field=field,
        master_seed=master_seed,
        stream_index=stream_index,
    )
