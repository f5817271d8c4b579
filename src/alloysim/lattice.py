"""Finite volumes, operator assembly, spectra and Green functions.

Volumes are finite subsets of the integer lattice held in lexicographic
order.  The operator on a volume is the truncation of (minus) the adjacency
operator plus the diagonal disorder: hopping entries are -1 between l1
neighbors inside the volume, the diagonal is ``lam`` times the field value.
Green-function entries follow the convention that points outside the volume
contribute 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError

__all__ = [
    "FiniteVolume",
    "build_volume",
    "FiniteVolumeOperator",
    "assemble",
    "SpectralDecomposition",
    "eigen",
    "spectrum",
    "green",
    "green_column",
    "chain_green",
    "resolvent_identity_residual",
    "operator_to_csv",
    "eigenvalues_to_csv",
]


class FiniteVolume:
    """Ordered finite subset of the lattice with cached adjacency."""

    def __init__(self, dimension: int, points: np.ndarray, kind: str, radius: Optional[int] = None):
        self.dimension = dimension
        self.points = points
        self.kind = kind
        self.radius = radius
        self._index = {tuple(p): i for i, p in enumerate(points)}
        if len(self._index) != len(points):
            raise ValidationError("volume points must be distinct")
        self._pairs: Optional[np.ndarray] = None
        self._layouts: dict = {}
        # True for one-dimensional volumes with contiguous sites; ``points``
        # is never reassigned, so it is decided once here.
        self.is_chain = dimension == 1 and bool(np.all(np.diff(points[:, 0]) == 1))

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, point) -> int:
        """Index of a lattice point, or -1 if outside the volume."""
        key = tuple(int(c) for c in np.atleast_1d(point))
        return self._index.get(key, -1)

    def __contains__(self, point) -> bool:
        return self.index_of(point) >= 0

    def neighbor_pairs(self) -> np.ndarray:
        """Index pairs (i, j), i < j, of l1-adjacent points."""
        if self._pairs is None:
            pairs = []
            for i, p in enumerate(self.points):
                for axis in range(self.dimension):
                    q = p.copy()
                    q[axis] += 1
                    j = self._index.get(tuple(q), -1)
                    if j >= 0:
                        pairs.append((i, j))
            self._pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
        return self._pairs

    def coupling_layout(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Coupling index set for a profile and the gather map onto it.

        Returns ``(coupling_points, gather)`` where ``coupling_points`` is the
        sorted union over support offsets ``theta`` of ``x - theta`` and the
        field is ``sum_j u_j * couplings[gather[j]]``.  Cached per profile.
        """
        layout = self._layouts.get(u)
        if layout is not None:
            return layout
        offsets = np.asarray(u.points, dtype=int)
        coupling_set = set()
        for theta in offsets:
            coupling_set.update(map(tuple, self.points - theta))
        coupling_points = np.asarray(sorted(coupling_set), dtype=int)
        cindex = {tuple(p): i for i, p in enumerate(coupling_points)}
        gather = np.empty((len(offsets), len(self.points)), dtype=int)
        for j, theta in enumerate(offsets):
            shifted = self.points - theta
            gather[j] = [cindex[tuple(p)] for p in shifted]
        layout = self._layouts[u] = (coupling_points, gather)
        return layout


def build_volume(
    dimension: int,
    radius: Optional[int] = None,
    points: Optional[Sequence] = None,
) -> FiniteVolume:
    """Centered box of the given radius, or an explicit point list.

    A box of radius L holds the ``(2L+1)**d`` points with sup-norm at most L,
    in lexicographic order.  Exactly one of ``radius`` and ``points`` must be
    given.
    """
    if dimension < 1:
        raise ValidationError("dimension must be a positive integer")
    if (radius is None) == (points is None):
        raise ValidationError("give exactly one of radius or points")
    if radius is not None:
        if radius < 0:
            raise ValidationError("box radius must be non-negative")
        axes = [np.arange(-radius, radius + 1)] * dimension
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        return FiniteVolume(dimension, pts, kind="box", radius=radius)
    pts = np.asarray([[int(c) for c in np.atleast_1d(p)] for p in points], dtype=int)
    if pts.ndim != 2 or pts.shape[1] != dimension:
        raise ValidationError("explicit points must all have the requested dimension")
    order = np.lexsort(pts.T[::-1])
    return FiniteVolume(dimension, pts[order], kind="explicit")


@dataclass
class FiniteVolumeOperator:
    """Assembled operator: dense symmetric matrix plus its ingredients."""

    volume: FiniteVolume
    matrix: np.ndarray
    lam: float
    diagonal: np.ndarray
    _evals: Optional[np.ndarray] = dc_field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.volume)

    def norm_bound(self) -> float:
        """Cheap upper bound on the operator norm (row-sum bound)."""
        return float(2 * self.volume.dimension + np.abs(self.diagonal).max(initial=0.0))


def assemble(realization, lam: float) -> FiniteVolumeOperator:
    """Operator for one field realization at disorder strength ``lam``."""
    vol = realization.volume
    n = len(vol)
    diag = lam * np.asarray(realization.field, dtype=float)
    mat = np.zeros((n, n))
    pairs = vol.neighbor_pairs()
    if len(pairs):
        mat[pairs[:, 0], pairs[:, 1]] = -1.0
        mat[pairs[:, 1], pairs[:, 0]] = -1.0
    mat[np.arange(n), np.arange(n)] = diag
    return FiniteVolumeOperator(volume=vol, matrix=mat, lam=float(lam), diagonal=diag)


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray
    matrix: np.ndarray

    def residual(self) -> float:
        """Max column residual ``|H v - E v|`` relative to the matrix scale."""
        r = self.matrix @ self.vectors - self.vectors * self.values
        scale = max(1.0, float(np.abs(self.matrix).sum(axis=1).max()))
        return float(np.abs(r).max() / scale)

    def gram_defect(self) -> float:
        g = self.vectors.T @ self.vectors - np.eye(self.vectors.shape[1])
        return float(np.abs(g).max())


def spectrum(op: FiniteVolumeOperator) -> np.ndarray:
    """Eigenvalues only, cached on the operator (tridiagonal fast path)."""
    if op._evals is None:
        if op.volume.is_chain and op.size > 1:
            off = -np.ones(op.size - 1)
            op._evals = scipy.linalg.eigvalsh_tridiagonal(op.diagonal, off)
        else:
            op._evals = np.linalg.eigvalsh(op.matrix)
    return op._evals


def eigen(op: FiniteVolumeOperator) -> SpectralDecomposition:
    """Full symmetric eigendecomposition."""
    values, vectors = scipy.linalg.eigh(op.matrix)
    op._evals = values
    return SpectralDecomposition(values=values, vectors=vectors, matrix=op.matrix)


_REAL_GUARD = 1e-12


def _check_not_in_spectrum(op: FiniteVolumeOperator, z: complex) -> None:
    if abs(z.imag) > 0:
        return
    dist = float(np.min(np.abs(spectrum(op) - z.real)))
    if dist <= _REAL_GUARD * max(1.0, op.norm_bound()):
        raise NumericalError(
            f"energy {z.real!r} is within {dist:.3e} of the finite-volume spectrum"
        )


def green_column(op: FiniteVolumeOperator, z: complex, y) -> np.ndarray:
    """Column ``G(z; ., y)`` of the resolvent as a vector over the volume.

    By symmetry of the matrix this is also row ``y``.  Raises if ``y`` lies
    outside the volume or a real ``z`` is too close to the spectrum.
    """
    iy = op.volume.index_of(y)
    if iy < 0:
        raise ValidationError(f"point {y!r} is outside the volume")
    z = complex(z)
    _check_not_in_spectrum(op, z)
    rhs = np.zeros(op.size, dtype=complex)
    rhs[iy] = 1.0
    shifted = op.matrix.astype(complex)
    shifted[np.arange(op.size), np.arange(op.size)] -= z
    return np.linalg.solve(shifted, rhs)


def chain_green(diagonals: np.ndarray, z: complex, sites: Sequence[int]) -> np.ndarray:
    """Resolvent rows ``G(z; k, .)``, ``k`` in ``sites``, of a block of chains.

    Row ``i`` of ``diagonals`` (shape ``(b, n)``) is the diagonal
    ``lam * field`` of one operator on an ``n``-site chain, whose hopping is
    -1 between consecutive sites.  Returns shape ``(b, len(sites), n)``.

    Eliminating from either end gives the pivots ``d_k = a_k - 1 / d_{k-1}``
    with ``a_k = diagonal_k - z``; ``Im d_k`` and ``-Im z`` share their sign
    and ``|Im d_k| >= |Im z|``, so for ``Im z != 0`` no pivot vanishes and
    none needs row exchanges.  ``G(k, k) = 1 / (a_k - 1/dl_{k-1} - 1/dr_{k+1})``
    and each row decays from its diagonal by the reciprocal pivots.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValidationError("the chain kernel needs Im z != 0")
    a = np.asarray(diagonals, dtype=float).T - z  # (n, b): one site per row
    n = len(a)
    # inv_left[k + 1] = 1 / dl_k from the left, inv_right[k] = 1 / dr_k from the
    # right; the zero rows at either end stand for the missing neighbour
    inv_left = np.zeros((n + 1, a.shape[1]), dtype=complex)
    inv_right = np.zeros_like(inv_left)
    for k in range(n):
        inv_left[k + 1] = 1.0 / (a[k] - inv_left[k])
    for k in range(n - 1, -1, -1):
        inv_right[k] = 1.0 / (a[k] - inv_right[k + 1])
    rows = np.empty((len(sites), n, a.shape[1]), dtype=complex)
    for i, j in enumerate(sites):
        g = 1.0 / (a[j] - inv_left[j] - inv_right[j + 1])
        rows[i, j] = g
        rows[i, :j] = g * np.cumprod(inv_left[j:0:-1], axis=0)[::-1]
        rows[i, j + 1:] = g * np.cumprod(inv_right[j + 1:n], axis=0)
    return rows.transpose(2, 0, 1)


def green(op: FiniteVolumeOperator, z: complex, x, y) -> complex:
    """Green-function entry ``G(z; x, y)``; 0 when either point is outside."""
    ix, iy = op.volume.index_of(x), op.volume.index_of(y)
    if ix < 0 or iy < 0:
        return 0.0 + 0.0j
    return complex(green_column(op, z, y)[ix])


def resolvent_identity_residual(op: FiniteVolumeOperator, energy: float, x, y) -> float:
    """Normalized defect of the off-diagonal resolvent identity.

    For ``x != y`` inside the volume the exact identity is
    ``sum_e G(E; x, y+e) = (lam * field(y) - E) G(E; x, y)`` with the sum
    over the 2d unit shifts and the outside-the-volume convention G = 0.
    Returns ``|lhs - rhs| / (1 + |G(E; x, y)|)``.
    """
    vol = op.volume
    ix, iy = vol.index_of(x), vol.index_of(y)
    if ix < 0 or iy < 0:
        raise ValidationError("both points must lie inside the volume")
    if ix == iy:
        raise ValidationError("the identity is off-diagonal; need x != y")
    row = green_column(op, complex(energy), x)  # row x by symmetry
    ypt = np.asarray(vol.points[iy])
    acc = 0.0 + 0.0j
    for axis in range(vol.dimension):
        for step in (-1, 1):
            q = ypt.copy()
            q[axis] += step
            j = vol.index_of(q)
            if j >= 0:
                acc += row[j]
    lhs = acc
    rhs = (op.diagonal[iy] - energy) * row[iy]
    return float(abs(lhs - rhs) / (1.0 + abs(row[iy])))


def operator_to_csv(op: FiniteVolumeOperator, path) -> None:
    """Write the nonzero entries as ``row,col,value`` triplets."""
    rows, cols = np.nonzero(op.matrix)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        for i, j in zip(rows, cols):
            writer.writerow([int(i), int(j), repr(float(op.matrix[i, j]))])


def eigenvalues_to_csv(values: Sequence[float], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue"])
        for i, v in enumerate(values):
            writer.writerow([i, repr(float(v))])
