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

# CLI sweeps and the optimizer stay inside this range; far outside it the
# inverse basis becomes ill-conditioned and closed forms lose digits.
DELTA_MIN = 0.05
DELTA_MAX = 20.0

_SELF_TEST_POINTS = 64
_SELF_TEST_SEED = 0x5EED
# (point, offset) pairs per block of the window search
_SEARCH_BLOCK = 1 << 20


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
    """

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if not (self.delta > 0.0) or not math.isfinite(self.delta):
            raise ValueError(f"distortion must be positive, got {self.delta}")

    @cached_property
    def basis(self) -> np.ndarray:
        """The read-only basis matrix, built on first use."""
        a = (self.delta - 1.0) / self.n
        basis = np.eye(self.n) + a * np.ones((self.n, self.n))
        basis.flags.writeable = False
        return basis

    def __hash__(self):
        return hash((self.n, self.delta))

    def __eq__(self, other):
        if not isinstance(other, DistortedLattice):
            return NotImplemented
        return self.n == other.n and self.delta == other.delta

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


@dataclass(frozen=True)
class NamedLattice:
    """A named member of the family, resolved to (n, delta)."""

    name: str
    n: int
    delta: float

    @classmethod
    def resolve(cls, name: str, n: int | None = None) -> "NamedLattice":
        if name not in _NAMED:
            raise ValueError(f"unknown lattice name {name!r}; "
                             f"choose from {sorted(_NAMED)}")
        fixed_n, delta = _NAMED[name]
        if fixed_n is None:
            if n is None:
                raise ValueError("the integer lattice needs an explicit dimension")
            return cls(name, n, delta)
        if n is not None and n != fixed_n:
            raise ValueError(f"{name} lives in dimension {fixed_n}, got n={n}")
        return cls(name, fixed_n, delta)

    def to_lattice(self) -> DistortedLattice:
        return DistortedLattice(self.n, self.delta)


def named_lattice(name: str, n: int | None = None) -> DistortedLattice:
    """Construct one of the named lattices as a DistortedLattice."""
    return NamedLattice.resolve(name, n).to_lattice()


# -- nearest point search ---------------------------------------------------
#
# Round the coefficient vector and search a fixed window of integer offsets.
# The window of +-2 per coordinate is sufficient for every delta > 0:
# writing the residual of the true nearest point as a diagonal part plus an
# orthogonal part, the diagonal coefficient error is at most 1/2 (the cell
# is confined between the bisectors of +-delta*ones) and the orthogonal
# per-coordinate error is at most (n-1)/n (confined by the bisectors of
# e_i - e_j), so with rounding error 1/2 the total stays below 2.  A seeded
# construction-time check asserts this and widens to +-3 if it ever failed.
# The Monte Carlo estimators use the residue-class decoder below; this
# search is its test oracle.


@lru_cache(maxsize=None)
def _offset_table(n: int, window: int) -> np.ndarray:
    rng = range(-window, window + 1)
    grids = np.meshgrid(*([list(rng)] * n), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    return offsets


@lru_cache(maxsize=None)
def _search_window(n: int, delta: float) -> int:
    lat = DistortedLattice(n, delta)
    cov = covering_radius(lat)
    npoints = _SELF_TEST_POINTS if n <= 7 else 8
    rng = np.random.default_rng(_SELF_TEST_SEED)
    u = rng.random((npoints, n)) - 0.5
    points = u @ lat.basis.T
    for window in (2, 3):
        dists = _batch_nearest_distance(lat, points, window)
        if np.all(dists <= cov * (1.0 + 1e-9) + 1e-12):
            return window
    return 3


def _batch_nearest_distance(lat: DistortedLattice, points: np.ndarray,
                            window: int) -> np.ndarray:
    """Distance from each row of points to the lattice (no tie handling)."""
    points = np.asarray(points, dtype=float)
    coeffs = points @ lat.inverse_basis.T
    base = np.rint(coeffs)
    resid = points - base @ lat.basis.T
    offsets = _offset_table(lat.n, window)
    vecs = offsets @ lat.basis.T
    # ||resid - v||^2 = ||resid||^2 - 2 resid.v + ||v||^2, in chunks of at
    # most _SEARCH_BLOCK (point, offset) pairs (8 MB per float array)
    vnorm2 = np.einsum("ij,ij->i", vecs, vecs)
    out = np.empty(len(points))
    chunk = max(1, _SEARCH_BLOCK // len(vecs))
    for s in range(0, len(points), chunk):
        r = resid[s:s + chunk]
        d2 = (np.einsum("ij,ij->i", r, r)[:, None]
              - 2.0 * (r @ vecs.T) + vnorm2[None, :])
        out[s:s + chunk] = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    return out


def nearest_distances(lat: DistortedLattice, points: np.ndarray) -> np.ndarray:
    """Vectorized distance-to-lattice for an array of points."""
    return _batch_nearest_distance(lat, points, _search_window(lat.n, lat.delta))


def nearest_lattice_point(lat: DistortedLattice, p) -> tuple[np.ndarray, float]:
    """Nearest lattice point to p and its distance.

    Exact ties are broken by the lexicographically smallest integer
    coefficient vector.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (lat.n,):
        raise ValueError(f"point must have shape ({lat.n},), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point must be finite")
    window = _search_window(lat.n, lat.delta)
    base = np.rint(p @ lat.inverse_basis.T)
    offsets = _offset_table(lat.n, window)
    cand = base[None, :] + offsets
    diffs = p[None, :] - cand @ lat.basis.T
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    best = d2.min()
    tied = np.nonzero(d2 == best)[0]
    if len(tied) > 1:
        order = np.lexsort(cand[tied].T[::-1])
        pick = tied[order[0]]
    else:
        pick = tied[0]
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
