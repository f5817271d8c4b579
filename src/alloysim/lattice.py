"""Finite volumes, operator assembly, spectra and Green functions.

Volumes are finite subsets of the integer lattice held in lexicographic
order.  The operator on a volume is the truncation of (minus) the adjacency
operator plus the diagonal disorder: hopping entries are -1 between l1
neighbors inside the volume, the diagonal is ``lam`` times the field value.
Green-function entries follow the convention that points outside the volume
contribute 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "as_point",
    "FiniteVolume",
    "build_volume",
    "FiniteVolumeOperator",
    "assemble",
    "spectrum",
    "green",
    "green_column",
    "chain_green",
    "chain_count",
    "resolvent_identity_residual",
]


def as_point(point, dimension: int) -> tuple[int, ...]:
    """``point`` as a tuple of ``dimension`` ints (a scalar is a 1-d point);
    anything else is a ``ValidationError``, never a truncation."""
    try:
        coords = (point,) if np.ndim(point) == 0 else tuple(point)
        pt = tuple(int(c) for c in coords)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"lattice point {point!r} has non-integer coordinates") from None
    if len(pt) != dimension:
        raise ValidationError(f"point {point!r} does not have dimension {dimension}")
    if pt != coords:
        raise ValidationError(f"lattice point {point!r} has non-integer coordinates")
    return pt


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
        self._slab: Optional[np.ndarray] = None
        self._layouts: dict = {}
        # True for one-dimensional volumes with contiguous sites; ``points``
        # is never reassigned, so it is decided once here.
        self.is_chain = dimension == 1 and bool(np.all(np.diff(points[:, 0]) == 1))

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, point) -> int:
        """Index of a lattice point, or -1 if outside the volume."""
        return self._index.get(as_point(point, self.dimension), -1)

    def __contains__(self, point) -> bool:
        return self.index_of(point) >= 0

    def neighbors(self, i: int) -> list[int]:
        """Indices of the l1 neighbours of point ``i`` inside the volume, axis
        by axis, the ``-1`` step before the ``+1`` step."""
        out = []
        for axis in range(self.dimension):
            for step in (-1, 1):
                q = self.points[i].copy()
                q[axis] += step
                j = self._index.get(tuple(q), -1)
                if j >= 0:
                    out.append(j)
        return out

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

    def _slab_hopping(self) -> np.ndarray:
        """Hopping of a box inside one slab, the points that share a first
        coordinate: an ``m x m`` matrix, ``m = len(self) // (2 * radius + 1)``,
        the same on every slab.  Slab 0 holds the first ``m`` points, so its
        in-slab pairs are the ``neighbor_pairs`` rows with both ends below
        ``m``."""
        if self._slab is None:
            m = len(self) // (2 * self.radius + 1)
            pairs = self.neighbor_pairs()
            inner = pairs[pairs[:, 1] < m]
            hop = np.zeros((m, m))
            hop[inner[:, 0], inner[:, 1]] = -1.0
            hop[inner[:, 1], inner[:, 0]] = -1.0
            self._slab = hop
        return self._slab

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
    pts = np.asarray([as_point(p, dimension) for p in points], dtype=int)
    if not len(pts):
        raise ValidationError("give at least one explicit point")
    order = np.lexsort(pts.T[::-1])
    return FiniteVolume(dimension, pts[order], kind="explicit")


@dataclass
class FiniteVolumeOperator:
    """Assembled operator: the diagonal ``lam * field`` on a volume, whose
    hopping is -1 between l1 neighbours.  The dense symmetric ``matrix`` is
    built on first read, so chain paths that need only the diagonal never
    allocate it."""

    volume: FiniteVolume
    lam: float
    diagonal: np.ndarray

    @property
    def size(self) -> int:
        return len(self.volume)

    @cached_property
    def matrix(self) -> np.ndarray:
        n = self.size
        mat = np.zeros((n, n))
        pairs = self.volume.neighbor_pairs()
        if len(pairs):
            mat[pairs[:, 0], pairs[:, 1]] = -1.0
            mat[pairs[:, 1], pairs[:, 0]] = -1.0
        mat[np.arange(n), np.arange(n)] = self.diagonal
        return mat

    def norm_bound(self) -> float:
        """Cheap upper bound on the operator norm (row-sum bound)."""
        return float(2 * self.volume.dimension + np.abs(self.diagonal).max(initial=0.0))


def assemble(realization, lam: float) -> FiniteVolumeOperator:
    """Operator for one field realization at disorder strength ``lam``."""
    diag = lam * np.asarray(realization.field, dtype=float)
    return FiniteVolumeOperator(volume=realization.volume, lam=float(lam), diagonal=diag)


def spectrum(op: FiniteVolumeOperator) -> np.ndarray:
    """Eigenvalues only (tridiagonal fast path on chains)."""
    if op.volume.is_chain and op.size > 1:
        # imported here, not at module top: scipy.linalg would otherwise load on
        # every run, and half the experiment kinds never diagonalize a chain
        import scipy.linalg

        return scipy.linalg.eigvalsh_tridiagonal(op.diagonal, -np.ones(op.size - 1))
    return np.linalg.eigvalsh(op.matrix)


_REAL_GUARD = 1e-12


def _sturm_count(diagonal: list[float], x: float) -> int:
    """``chain_count`` of one chain at one energy, in Python floats.

    The same pivots, zero-pivot rule and last-site rule, so the same count;
    on the short chains of a real-energy solve a scalar loop beats numpy's
    per-call cost many times over.  ``1 / 0.0`` raises in Python, so a zero
    pivot's reciprocal is written out as ``copysign(inf, q)``.
    """
    count, inv = 0, 0.0
    for a in diagonal[:-1]:
        q = (a - x) - inv
        if math.copysign(1.0, q) < 0:
            count += 1
        inv = 1.0 / q if q else math.copysign(math.inf, q)
    return count + ((diagonal[-1] - x) - inv < 0)


def _check_not_in_spectrum(op: FiniteVolumeOperator, z: complex) -> None:
    """Raise ``NumericalError`` when a real ``z`` lies within
    ``delta = _REAL_GUARD * max(1, norm_bound)`` of an eigenvalue.

    On a chain the eigenvalues in ``[E - delta, E + delta]`` are counted as
    ``nu(E + delta + 0) - nu(E - delta)``, where ``nu(x)`` is the Sturm count
    of the eigenvalues strictly below ``x`` (Barth, Martin and Wilkinson,
    Numer. Math. 9, 386 (1967)) and ``E + delta + 0`` the next float above
    ``E + delta``, so no spectrum is computed.  Other volumes count the
    eigenvalues of ``spectrum`` within ``delta`` of ``E``.
    """
    if abs(z.imag) > 0:
        return
    energy = z.real
    delta = _REAL_GUARD * max(1.0, op.norm_bound())
    if op.volume.is_chain:
        diagonal = op.diagonal.tolist()
        above = _sturm_count(diagonal, math.nextafter(energy + delta, math.inf))
        inside = above - _sturm_count(diagonal, energy - delta)
    else:
        inside = int(np.count_nonzero(np.abs(spectrum(op) - energy) <= delta))
    if inside > 0:
        raise NumericalError(
            f"energy {energy!r} is within {delta:.3e} of the finite-volume spectrum"
            f" ({inside} eigenvalue{'s' if inside > 1 else ''} that close)"
        )


def green_column(op: FiniteVolumeOperator, z: complex, y) -> np.ndarray:
    """Column ``G(z; ., y)`` of the resolvent as a vector over the volume.

    By symmetry of the matrix this is also row ``y``.  Raises if ``y`` lies
    outside the volume or a real ``z`` is too close to the spectrum.  A box
    with ``d >= 2`` at a complex ``z`` is eliminated slab by slab
    (``_slab_column``); every other volume and every real ``z`` takes a dense
    solve behind the spectrum guard, since at a real energy a slab pivot can
    be singular where ``H - z`` is not.  On a chain the guard counts the
    eigenvalues near ``z`` by two Sturm counts instead of computing the
    spectrum (``_check_not_in_spectrum``).
    """
    iy = op.volume.index_of(y)
    if iy < 0:
        raise ValidationError(f"point {y!r} is outside the volume")
    z = complex(z)
    if z.imag != 0 and op.volume.kind == "box" and op.volume.dimension >= 2:
        return _slab_column(op, z, iy)
    _check_not_in_spectrum(op, z)
    rhs = np.zeros(op.size, dtype=complex)
    rhs[iy] = 1.0
    shifted = op.matrix.astype(complex)
    shifted[np.arange(op.size), np.arange(op.size)] -= z
    return np.linalg.solve(shifted, rhs)


def _slab_column(op: FiniteVolumeOperator, z: complex, iy: int) -> np.ndarray:
    """``green_column`` on a box by elimination over slabs (the recursive
    Green's-function method of MacKinnon and Kramer, PRL 47, 1546 (1981)).

    In lexicographic order slab ``k`` is the index range ``[k m, (k+1) m)``
    and ``H - z`` is block tridiagonal: ``D_k`` (the in-slab hopping plus
    ``diag(lam * field) - z``) on the diagonal, ``-I`` beside it.  With
    ``L_k = D_k - L_{k-1}^{-1}`` from the left end, ``R_k = D_k - R_{k+1}^{-1}``
    from the right and ``iy`` at position ``p`` of slab ``s``, the column is
    ``(D_s - L_{s-1}^{-1} - R_{s+1}^{-1}) g_s = e_p``, then
    ``g_k = L_k^{-1} g_{k+1}`` for ``k < s`` and ``g_k = R_k^{-1} g_{k-1}`` for
    ``k > s``.  For ``Im z != 0`` every pivot has an imaginary part of one
    definite sign, so none is singular.
    """
    hop = op.volume._slab_hopping()
    m = len(hop)
    n_slabs = op.size // m
    s, p = divmod(iy, m)
    diag = op.diagonal.reshape(n_slabs, m) - z
    eye = np.eye(m)

    def block(k):
        return hop + np.diag(diag[k])

    # inv[k + 1] = L_k^{-1} for the slabs k left of s and R_k^{-1} for those
    # right of it, the only pivots the column needs; the zero blocks at either
    # end stand for the missing neighbour slab
    inv = np.zeros((n_slabs + 2, m, m), dtype=complex)
    for k in range(s):
        inv[k + 1] = np.linalg.solve(block(k) - inv[k], eye)
    for k in range(n_slabs - 1, s, -1):
        inv[k + 1] = np.linalg.solve(block(k) - inv[k + 2], eye)
    rhs = np.zeros(m, dtype=complex)
    rhs[p] = 1.0
    g = np.empty((n_slabs, m), dtype=complex)
    g[s] = np.linalg.solve(block(s) - inv[s] - inv[s + 2], rhs)
    for k in range(s - 1, -1, -1):
        g[k] = inv[k + 1] @ g[k + 1]
    for k in range(s + 1, n_slabs):
        g[k] = inv[k + 1] @ g[k - 1]
    return g.ravel()


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


# An int8 tally holds the negative pivots of this many sites.
_TALLY_SITES = 127


def chain_count(diagonals: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Eigenvalues strictly below each energy, for a block of chains.

    Row ``i`` of ``diagonals`` (shape ``(b, n)``) is the diagonal
    ``lam * field`` of one operator ``H`` on an ``n``-site chain, whose
    hopping is -1 between consecutive sites; row ``i`` of ``energies`` (shape
    ``(b, m)``) holds the energies ``x`` at which that chain is counted.
    Returns the ``(b, m)`` counts.

    The count is the number of negative pivots ``q_k = (a_k - x) - 1/q_{k-1}``
    of ``H - x`` (Sylvester's law of inertia, the Sturm count).  A zero pivot
    is moved off zero by an infinitesimal of its own sign, as LAPACK's
    ``dlaneg`` does through IEEE arithmetic: its reciprocal is +-inf, the next
    pivot is -+inf, and the sign bit counts ``-0`` as negative, so exactly one
    of the pair is counted either way.  A zero last pivot means ``x`` is an
    eigenvalue, which is not below ``x``, so the last site counts ``q < 0``.
    Fortran-ordered ``diagonals`` are read one contiguous site at a time.
    """
    a = np.asarray(diagonals, dtype=float).T  # (n, b): one site per row
    x = np.ascontiguousarray(np.asarray(energies, dtype=float).T)  # (m, b)
    n = len(a)
    q = np.empty_like(x)
    shifted = np.empty_like(x)
    negative = np.empty(x.shape, dtype=bool)
    tally = np.empty(x.shape, dtype=np.int8)
    count = np.zeros(x.shape, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, n, _TALLY_SITES):
            tally.fill(0)
            for k in range(start, min(start + _TALLY_SITES, n)):
                if k:
                    np.subtract(a[k], x, out=shifted)
                    np.divide(1.0, q, out=q)
                    np.subtract(shifted, q, out=q)
                else:
                    np.subtract(a[0], x, out=q)
                if k == n - 1:
                    np.less(q, 0.0, out=negative)
                else:
                    np.signbit(q, out=negative)
                np.add(tally, negative.view(np.int8), out=tally)
            count += tally
    return count.T


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
    lhs = row[vol.neighbors(iy)].sum()
    rhs = (op.diagonal[iy] - energy) * row[iy]
    return float(abs(lhs - rhs) / (1.0 + abs(row[iy])))
