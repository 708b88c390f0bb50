"""Arrangement measures for one lattice and one ball radius.

Five scalar measures describe how balls of radius r placed on the lattice
fill space: density (expected cover count of a point), union (covered
fraction of the cell), a distance-based and a volume-based overlap, and
free_space (relative slack below the covering radius).  Union and the
volume overlap have closed forms in dimensions 2 and 3; higher dimensions
fall back to the Monte Carlo oracle and must opt in by passing a sample
budget.
"""

import enum
import math
from typing import NamedTuple

from .geometry2d import voronoi_ball_area
from .geometry3d import voronoi_ball_volume_3d
from .lattice import (
    DistortedLattice,
    covering_radius,
    packing_radius,
    shortest_vector_norm,
    unit_ball_volume,
)
from .oracle import mc_union

__all__ = [
    "MeasureReport",
    "NoClosedFormError",
    "OverlapMeasure",
    "UndefinedRatioError",
    "density",
    "dist_overlap",
    "free_space",
    "measure_report",
    "overlap_value",
    "union_fraction",
    "vol_overlap",
]


class OverlapMeasure(enum.Enum):
    """The two ways of charging a configuration for overlapping balls."""

    DISTANCE_BASED = "dist"
    VOLUME_BASED = "vol"


class UndefinedRatioError(ValueError):
    """A measure normalized by r was requested at r = 0."""


class NoClosedFormError(ValueError):
    """An exact value was requested in a dimension that only has the
    Monte Carlo path, and no sample budget was supplied."""


class MeasureReport(NamedTuple):
    """All five measures at one (lattice, radius) point.

    Field order is the serialization order for CSV rows and JSON objects.
    vol_overlap always equals density - union bit-for-bit because both
    come from the same union evaluation.
    """

    delta: float
    n: int
    r: float
    density: float
    union: float
    dist_overlap: float
    vol_overlap: float
    free_space: float

    def as_dict(self) -> dict:
        return self._asdict()


def _validate_radius(r: float, positive: bool = False):
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"radius must be finite and >= 0, got {r}")
    if positive and r == 0.0:
        raise UndefinedRatioError("measure is a ratio with r in the "
                                  "denominator; r = 0 is undefined")


def density(lat: DistortedLattice, r: float) -> float:
    """Expected number of balls covering a uniformly random point.

    Exact in every dimension n >= 2.
    """
    _validate_radius(r)
    return _density(lat, r)


def _density(lat: DistortedLattice, r: float) -> float:
    return unit_ball_volume(lat.n) * r ** lat.n / lat.delta


def union_fraction(lat: DistortedLattice, r: float, *,
                   samples: int | None = None, seed: int = 0,
                   par: int | None = None) -> float:
    """Fraction of space covered by at least one ball.

    Closed form for n in {2, 3}.  Any dimension is exact below the
    packing radius (union = density) and at or beyond the covering
    radius (union = 1).  Elsewhere, n > 3 requires an explicit Monte
    Carlo budget; the returned value is then an estimate whose standard
    error is that of mc_union at the same arguments.
    """
    _validate_radius(r)
    if lat.n == 2:
        return voronoi_ball_area(lat.delta, r) / lat.delta
    if lat.n == 3:
        return voronoi_ball_volume_3d(lat.delta, r) / lat.delta
    if r >= covering_radius(lat):
        return 1.0
    if r <= packing_radius(lat):
        return _density(lat, r)
    if samples is None:
        raise NoClosedFormError(
            f"no closed form for union in dimension {lat.n}; pass samples= "
            "to use the Monte Carlo oracle")
    return mc_union(lat, r, samples=samples, seed=seed, par=par).mean


def dist_overlap(lat: DistortedLattice, r: float) -> float:
    """Relative depth of the deepest pairwise ball intersection.

    Equals (2r - shortest_vector_norm) / (2r) clamped at zero: the
    diameter fraction by which the two closest balls interpenetrate.
    """
    _validate_radius(r, positive=True)
    return max((2.0 * r - shortest_vector_norm(lat)) / (2.0 * r), 0.0)


def vol_overlap(lat: DistortedLattice, r: float, *,
                samples: int | None = None, seed: int = 0,
                par: int | None = None) -> float:
    """Expected over-coverage of a point: density minus union.

    Supports the same dimensions as union_fraction: closed form for
    n = 2 and 3, the Monte Carlo oracle (samples=) for any n.
    """
    # union_fraction validates r
    return (_density(lat, r)
            - union_fraction(lat, r, samples=samples, seed=seed, par=par))


def free_space(lat: DistortedLattice, r: float) -> float:
    """Relative radius of the largest empty ball, measured in units of r.

    Equals (covering_radius - r) / r clamped at zero; zero at or beyond
    the covering radius.
    """
    _validate_radius(r, positive=True)
    return max((covering_radius(lat) - r) / r, 0.0)


def overlap_value(lat: DistortedLattice, r: float,
                  measure: OverlapMeasure) -> float:
    """Dispatch to the overlap named by `measure`.

    Together with free_space this gives the two constraint functions of
    the quality procedures one shared signature (lat, r) -> float.
    """
    if measure is OverlapMeasure.DISTANCE_BASED:
        return dist_overlap(lat, r)
    if measure is OverlapMeasure.VOLUME_BASED:
        return vol_overlap(lat, r)
    raise ValueError(f"unknown overlap measure {measure!r}")


def measure_report(lat: DistortedLattice, r: float, *,
                   samples: int | None = None, seed: int = 0,
                   par: int | None = None) -> MeasureReport:
    """Evaluate all five measures at (lat, r).

    Union is evaluated once and reused for vol_overlap, so the identity
    vol_overlap = density - union is exact even on the oracle path.
    Dimensions as for union_fraction: closed form for n = 2 and 3, the
    Monte Carlo oracle (samples=) for any n.
    """
    _validate_radius(r, positive=True)
    dens = density(lat, r)
    uni = union_fraction(lat, r, samples=samples, seed=seed, par=par)
    return MeasureReport(
        delta=lat.delta,
        n=lat.n,
        r=r,
        density=dens,
        union=uni,
        dist_overlap=dist_overlap(lat, r),
        vol_overlap=dens - uni,
        free_space=free_space(lat, r),
    )
