"""The diagonally distorted integer lattice family and its closed-form radii.

L_delta is spanned by the columns of B = I + ((delta - 1)/n) * J, i.e. the
i-th basis vector is e_i shifted along the all-ones direction.  The map B
scales the diagonal direction by delta and fixes its orthogonal complement,
so det B = delta and the Voronoi cell has volume delta for every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import _squared_distances

# CLI sweeps and the optimizer stay inside this range; far outside it the
# inverse basis becomes ill-conditioned and closed forms lose digits.
DELTA_MIN = 0.05
DELTA_MAX = 20.0


@lru_cache(maxsize=None)
def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in dimension n >= 1.

    Even n: pi^(n/2) / (n/2)!.  Odd n: 2^((n+1)/2) * pi^((n-1)/2) / n!!.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n % 2 == 0:
        return math.pi ** (n // 2) / math.factorial(n // 2)
    k = (n + 1) // 2
    double_fact = 1
    for i in range(1, n + 1, 2):
        double_fact *= i
    return 2.0 ** k * math.pi ** (k - 1) / double_fact


@dataclass(frozen=True)
class DistortedLattice:
    """Lattice L_delta in dimension n with distortion delta > 0.

    The basis matrix has column i equal to e_i + ((delta - 1)/n) * ones.
    All columns share the same pairwise inner product, so the family keeps
    full permutation symmetry of the coordinates.

    n is any integer >= 2 (a numpy integer is stored as a Python int;
    bools and floats are rejected) and delta a finite real > 0 (not a
    bool).  Density and the Monte Carlo oracle work in every dimension;
    union and the volume overlap have closed forms for n = 2 and 3 only.
    """

    n: int
    delta: float

    def __post_init__(self):
        n = self.n
        if type(n) is not int:
            # _objective builds thousands of lattices: keep int n cheap
            if isinstance(n, bool) or not isinstance(n, np.integer):
                raise ValueError(f"dimension must be an integer >= 2, "
                                 f"got {n!r}")
            object.__setattr__(self, "n", int(n))
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if isinstance(self.delta, bool):
            raise ValueError(
                f"distortion must be a number, got {self.delta!r}")
        if not (self.delta > 0.0) or not math.isfinite(self.delta):
            raise ValueError(f"distortion must be positive, got {self.delta}")

    @cached_property
    def basis(self) -> np.ndarray:
        """The read-only basis matrix, built on first use."""
        a = (self.delta - 1.0) / self.n
        basis = np.eye(self.n) + a * np.ones((self.n, self.n))
        basis.flags.writeable = False
        return basis

    @property
    def inverse_basis(self) -> np.ndarray:
        # (I + a J)^-1 = I - (a / (1 + n a)) J and 1 + n a = delta.
        a = (self.delta - 1.0) / self.n
        return np.eye(self.n) - (a / self.delta) * np.ones((self.n, self.n))

    @property
    def determinant(self) -> float:
        """Voronoi cell volume; equals delta exactly."""
        return self.delta

    def lattice_point(self, coeffs) -> np.ndarray:
        """Map integer coefficients to the lattice point B @ coeffs."""
        c = np.asarray(coeffs, dtype=float)
        return self.basis @ c


def packing_radius(lat: DistortedLattice) -> float:
    """Largest radius whose balls have disjoint interiors.

    Three branches in delta, meeting continuously at 1/sqrt(n+1) and
    sqrt(n+1): half the norm of the all-ones vector, half the basis column
    norm, and half the norm of a coordinate difference e_i - e_j.
    """
    n, d = lat.n, lat.delta
    lo = 1.0 / math.sqrt(n + 1)
    if d <= lo:
        return 0.5 * d * math.sqrt(n)
    if d >= math.sqrt(n + 1):
        return 0.5 * math.sqrt(2.0)
    return 0.5 * math.sqrt(1.0 + (d * d - 1.0) / n)


def covering_radius(lat: DistortedLattice) -> float:
    """Smallest radius whose balls cover space (deep hole distance)."""
    n, d = lat.n, lat.delta
    d2 = d * d
    if d <= 1.0:
        n2 = n * n
        return math.sqrt((n2 - 1.0) + (n2 + 2.0) * d2 + (n2 - 1.0) * d2 * d2) \
            / math.sqrt(12.0 * n)
    if n % 2 == 1:
        return math.sqrt(n * n - 1.0 + d2) / (2.0 * math.sqrt(n))
    return math.sqrt(n * n - 2.0 + d2 + 1.0 / d2) / (2.0 * math.sqrt(n))


def shortest_vector_norm(lat: DistortedLattice) -> float:
    """Norm of the shortest nonzero lattice vector; twice the packing radius."""
    return 2.0 * packing_radius(lat)


# -- named lattices ---------------------------------------------------------

_NAMED = {
    "integer": (None, 1.0),
    "hexagonal": (2, 1.0 / math.sqrt(3.0)),
    "hexagonal-dual": (2, math.sqrt(3.0)),
    "fcc": (3, 2.0),
    "bcc": (3, 0.5),
}


def named_lattice(name: str, n: int | None = None) -> DistortedLattice:
    """One of the named lattices of _NAMED as a DistortedLattice.

    n is needed for the integer lattice and must match the dimension of
    every other name.
    """
    if name not in _NAMED:
        raise ValueError(f"unknown lattice name {name!r}; "
                         f"choose from {sorted(_NAMED)}")
    fixed_n, delta = _NAMED[name]
    if fixed_n is None:
        if n is None:
            raise ValueError("the integer lattice needs an explicit dimension")
        return DistortedLattice(n, delta)
    if n is not None and n != fixed_n:
        raise ValueError(f"{name} lives in dimension {fixed_n}, got n={n}")
    return DistortedLattice(fixed_n, delta)


# -- nearest point ------------------------------------------------------------

# tie tolerances of nearest_lattice_point: in the coefficients of
# B^-1 p, and relative in the squared distance
_TIE_COEFF = 1e-12
_TIE_DIST2 = 1e-9


def nearest_distances(lat: DistortedLattice, points) -> np.ndarray:
    """Distance to the lattice of each row of a finite (k, n) array.

    Each row is shifted by the lattice vector B floor(B^-1 p), its
    coefficients are reduced to [0, 1)^n, and the residue-class decoder
    finds the distance: O(n^2) work per row and no table of lattice
    vectors.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != lat.n:
        raise ValueError(f"points must have shape (k, {lat.n}), "
                         f"got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    # the shift is subtracted in space, which keeps the digits that
    # coefficients of far points lose
    base = np.floor(points @ lat.inverse_basis.T)
    x = (points - base @ lat.basis.T) @ lat.inverse_basis.T
    x -= np.floor(x)
    x[x >= 1.0] = 0.0  # the kernel takes rows in [0, 1)^n
    d2 = _squared_distances(x, *coverage_offsets(lat))
    return np.sqrt(np.maximum(d2, 0.0))


def nearest_lattice_point(lat: DistortedLattice, p) -> tuple[np.ndarray, float]:
    """Nearest lattice point to p and its distance.

    With u = B^-1 p and x = u - floor(u), the candidate of class
    m = 0..n-1 is floor(u) plus ones on the m largest coordinates of x,
    shifted by j * ones to the coefficient sum congruent to m nearest to
    sum u; the nearest lattice point is one of these n candidates.

    Ties go to the lexicographically smallest integer coefficient vector,
    within stated tolerances: candidates whose squared distances agree to
    1e-9 relative tie, and within a class, coordinates of x that agree to
    1e-12 (or lie within 1e-12 below 1, which counts as 0) are equal, so
    the ones go to the highest indices among them, and a sum within 1e-12
    of halfway between two shifts takes the lower one.  Exact ties, up to
    rounding, therefore resolve to the lexicographic minimum.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (lat.n,):
        raise ValueError(f"point must have shape ({lat.n},), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point must be finite")
    n = lat.n
    u = lat.inverse_basis @ p
    base = np.floor(u)
    x = u - base
    whole = x > 1.0 - _TIE_COEFF
    base[whole] += 1.0
    x[whole] = 0.0
    # coordinates by descending x, a run of near-equal ones by
    # descending index
    order, run = [], []
    for i in sorted(range(n), key=lambda i: -x[i]):
        if run and x[run[-1]] - x[i] > _TIE_COEFF:
            order += sorted(run, reverse=True)
            run = []
        run.append(i)
    order += sorted(run, reverse=True)
    cand = np.tile(base, (n, 1))  # row m: class m
    for k, i in enumerate(order[:-1], start=1):
        cand[k:, i] += 1.0
    # the shift j nearest to (sum x - m) / n, the lower one at halfway
    cand += np.ceil((x.sum() - np.arange(n) - _TIE_COEFF) / n - 0.5)[:, None]
    diffs = p[None, :] - cand @ lat.basis.T
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    tied = np.nonzero(d2 <= d2.min() * (1.0 + _TIE_DIST2))[0]
    pick = tied[np.lexsort(cand[tied].T[::-1])[0]]
    point = cand[pick] @ lat.basis.T
    return point, math.sqrt(d2[pick])


# -- residue-class decoder ---------------------------------------------------


class CosetTable(NamedTuple):
    """Per-class data of the residue-class decoder in overlatt._kernels.

    offsets has one row per residue class m = sum c mod n of the integer
    coefficients: m (n - m) / n, the constant of the class's distance in
    the hyperplane orthogonal to the all-ones vector.  weight is
    delta^2 / n, the factor of the squared offset along that vector.
    """

    offsets: np.ndarray
    weight: float


def coverage_offsets(lat: DistortedLattice) -> CosetTable:
    """The decoder's per-class data for lat, one row per residue class.
    Used by the Monte Carlo estimators."""
    m = np.arange(lat.n, dtype=float)
    return CosetTable(m * (lat.n - m) / lat.n, lat.delta * lat.delta / lat.n)
