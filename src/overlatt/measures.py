"""Arrangement measures for one lattice and one ball radius.

Five scalar measures describe how balls of radius r placed on the lattice
fill space: density (expected cover count of a point), union (covered
fraction of the cell), a distance-based and a volume-based overlap, and
free_space (relative slack below the covering radius).  Every value here
is a closed form.  Union and the volume overlap have one in dimensions 2
and 3; in higher dimensions only below the packing radius and from the
covering radius on, and between the two they raise NoClosedFormError.
There the Monte Carlo oracle estimates them (oracle.mc_union,
oracle.mc_vol_overlap, `overlatt measure --oracle`).
"""

import enum
import math
from typing import NamedTuple

from .geometry2d import _area_and_slope, voronoi_ball_area
from .geometry3d import voronoi_ball_volume_3d
from .lattice import (
    DistortedLattice,
    _check_radius,
    _unit_ball_volume,
    covering_radius,
    packing_radius,
    shortest_vector_norm,
)

# never called; perfbench/tests/test_bench.py traces this binding
from .oracle import mc_union  # noqa: F401

__all__ = [
    "MeasureReport",
    "NoClosedFormError",
    "OverlapMeasure",
    "UndefinedRatioError",
    "density",
    "dist_overlap",
    "free_space",
    "measure_report",
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
    """An exact value was requested where the package has no closed form:
    the union or the volume overlap for n > 3 strictly between the
    packing and covering radii.  oracle.mc_union and
    oracle.mc_vol_overlap estimate them there."""


class MeasureReport(NamedTuple):
    """All five measures at one (lattice, radius) point.

    Field order is the serialization order for CSV rows and JSON objects.
    measure_report sets vol_overlap to max(density - union, 0) of its one
    union evaluation, bit-for-bit the value of vol_overlap() and of the
    overlap column of quality.qual_packing with the volume measure.
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
    _check_radius(r)
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
    return _unit_ball_volume(lat.n) * r ** lat.n / lat.delta


def union_fraction(lat: DistortedLattice, r: float) -> float:
    """Fraction of space covered by at least one ball.

    Closed form for n in {2, 3}.  Any dimension is exact below the
    packing radius (union = density) and at or beyond the covering
    radius (union = 1); in between, n > 3 raises NoClosedFormError.
    """
    # the closed forms of n = 2 and 3 check r themselves
    if lat.n == 2:
        return voronoi_ball_area(lat.delta, r) / lat.delta
    if lat.n == 3:
        return voronoi_ball_volume_3d(lat.delta, r) / lat.delta
    _validate_radius(r)
    if r >= covering_radius(lat):
        return 1.0
    if r <= packing_radius(lat):
        return _density(lat, r)
    raise NoClosedFormError(
        f"no closed form for the union in dimension {lat.n} between the "
        "packing and covering radii; estimate it with oracle.mc_union or "
        "mc_vol_overlap, or with `overlatt measure --oracle`")


def dist_overlap(lat: DistortedLattice, r: float) -> float:
    """Relative depth of the deepest pairwise ball intersection.

    Equals (2r - shortest_vector_norm) / (2r) clamped at zero: the
    diameter fraction by which the two closest balls interpenetrate.
    """
    _validate_radius(r, positive=True)
    return max((2.0 * r - shortest_vector_norm(lat)) / (2.0 * r), 0.0)


def vol_overlap(lat: DistortedLattice, r: float) -> float:
    """Expected over-coverage of a point: density minus union, clamped
    at 0 against rounding just above the packing radius.

    Supports the same dimensions and radii as union_fraction.
    """
    # union_fraction validates r
    return max(_density(lat, r) - union_fraction(lat, r), 0.0)


def _vol_overlap_and_slope(lat: DistortedLattice,
                           r: float) -> tuple[float, float]:
    """vol_overlap of a 2D lattice, bit for bit, and its r-slope
    (2 pi r - dA/dr) / delta, from one evaluation of the area branches."""
    _check_radius(r)
    area, slope = _area_and_slope(lat.delta, r)
    overlap = max(_density(lat, r) - area / lat.delta, 0.0)
    return overlap, (2.0 * math.pi * r - slope) / lat.delta


def free_space(lat: DistortedLattice, r: float) -> float:
    """Relative radius of the largest empty ball, measured in units of r.

    Equals (covering_radius - r) / r clamped at zero; zero at or beyond
    the covering radius.
    """
    _validate_radius(r, positive=True)
    return max((covering_radius(lat) - r) / r, 0.0)


def measure_report(lat: DistortedLattice, r: float) -> MeasureReport:
    """Evaluate all five measures at (lat, r).

    Union is evaluated once and reused for vol_overlap.  Dimensions and
    radii as for union_fraction.
    """
    _validate_radius(r, positive=True)
    dens = density(lat, r)
    uni = union_fraction(lat, r)
    return MeasureReport(
        delta=lat.delta,
        n=lat.n,
        r=r,
        density=dens,
        union=uni,
        dist_overlap=dist_overlap(lat, r),
        vol_overlap=max(dens - uni, 0.0),
        free_space=free_space(lat, r),
    )
