"""Closed-form area of (Voronoi cell ∩ ball) in 2D and its distortion derivative.

For 0 < delta <= 1 the Voronoi cell is a hexagon bounded by six bisector
edges: four at distance r1 from the +-basis columns and two at distance r2
from +-(column sum); its six vertices sit at r3, which equals the covering
radius.  Growing the ball past an edge distance removes a circular segment
per edge; segments never merge below r3, so the area is a three-branch
piecewise expression.  delta > 1 reduces to 1/delta by rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .lattice import DistortedLattice, _check_delta, _check_radius

_SQRT2 = math.sqrt(2.0)
_THIRD = 1.0 / math.sqrt(3.0)


class OutOfBranchError(ValueError):
    """The (delta, omega) query lies outside the derivative branch domains."""


@dataclass(frozen=True)
class CriticalRadii2D:
    """Edge and vertex distances of the 2D Voronoi cell, delta in (0, 1]."""

    r1: float  # 4 edges, bisectors of the +-basis columns
    r2: float  # 2 edges, bisectors of +-(column sum)
    r3: float  # vertices; equals the covering radius
    delta: float


def critical_radii_2d(delta: float) -> CriticalRadii2D:
    """The three critical radii for delta in (0, 1]."""
    _check_delta(delta)
    if delta > 1.0:
        raise ValueError(f"catalog covers delta in (0, 1]; reduce delta={delta} "
                         "via the 1/delta rescaling first")
    return _critical_radii_2d(float(delta))


@lru_cache(maxsize=1024)
def _critical_radii_2d(delta: float) -> CriticalRadii2D:
    # memoized: an overlap inversion evaluates the area at one delta many
    # times
    d2 = delta * delta
    r1 = math.sqrt(d2 + 1.0) / (2.0 * _SQRT2)
    r2 = delta / _SQRT2
    r3 = (d2 + 1.0) / (2.0 * _SQRT2)
    return CriticalRadii2D(r1, r2, r3, delta)


def segment_angles(delta: float, r: float) -> tuple[float, float]:
    """Central angles of the two segment families cut off at radius r.

    Theta_i = 2 arccos(r_i / r) once r exceeds the edge distance r_i, else 0.
    """
    _check_radius(r)
    return _segment_angles(critical_radii_2d(delta), r)


def _segment_angles(rad: CriticalRadii2D, r: float) -> tuple[float, float]:
    def angle(ri: float) -> float:
        if r <= ri:
            return 0.0
        return 2.0 * math.acos(ri / r)

    return angle(rad.r1), angle(rad.r2)


def voronoi_ball_area(delta: float, r: float) -> float:
    """Area of (Voronoi cell ∩ ball of radius r), any delta > 0.

    pi r^2 below the first edge distance; pi r^2 minus the active circular
    segments up to the vertex radius r3; the full cell area delta beyond.
    """
    _check_delta(delta)
    _check_radius(r)
    if delta > 1.0:
        # mirror lattice: cell of delta is the cell of 1/delta scaled by delta
        scale = delta * delta
        if scale == math.inf:
            raise OverflowError(f"delta^2 overflows at delta={delta!r}")
        return scale * voronoi_ball_area(1.0 / delta, r / delta)
    rad = _critical_radii_2d(float(delta))
    if r <= min(rad.r1, rad.r2):
        return math.pi * r * r
    if r <= rad.r3:
        t1, t2 = _segment_angles(rad, r)
        area = r * r * (math.pi - 2.0 * t1 - t2
                        + 2.0 * math.sin(t1) + math.sin(t2))
        # far below delta = 1 the segments cancel pi r^2 to rounding noise
        if area > delta * (1.0 + 1e-9):
            raise ValueError(f"the area {area!r} exceeds the cell area at "
                             f"delta={delta!r}: delta is too far from 1 "
                             "for floating point")
        return area
    return delta


def vol_overlap_2d(delta: float, r: float) -> float:
    """Volume-based overlap in 2D: density minus covered cell fraction."""
    _check_delta(delta)
    _check_radius(r)
    if delta > 1.0:
        # density and union are both invariant under the mirror rescaling
        return vol_overlap_2d(1.0 / delta, r / delta)
    area = voronoi_ball_area(delta, r)
    return max(0.0, (math.pi * r * r - area) / delta)


def covering_overlap_2d(delta: float) -> float:
    """Overlap budget at which the balls first cover the plane.

    vol_overlap at r3: pi (delta^2 + 1)^2 / (8 delta) - 1.
    """
    _check_delta(delta)
    if delta > 1.0:
        return covering_overlap_2d(1.0 / delta)
    d2 = delta * delta
    return math.pi * (d2 + 1.0) ** 2 / (8.0 * delta) - 1.0


def density_derivative_2d(delta: float, omega: float) -> float:
    """d/d delta of density(delta, r(delta, omega)) for 0 < delta < 1.

    r(delta, omega) is the radius at which the volume overlap reaches the
    budget omega, from the shared inversion
    quality.max_radius_for_overlap.  Three closed-form branches, joined
    continuously: only the r2 segments active, only the r1 segments
    active, or both.  Vanishes at delta = 1/sqrt(3) (for omega > 0) and
    at the covering budget; positive below 1/sqrt(3) on the first branch,
    negative above it on the second.
    """
    # quality imports measures, which imports this module
    from .measures import OverlapMeasure
    from .quality import max_radius_for_overlap

    _check_delta(delta)
    _check_radius(omega, "omega")
    if delta >= 1.0:
        raise OutOfBranchError(f"derivative branches cover 0 < delta < 1, "
                               f"got {delta}")
    omega_cov = covering_overlap_2d(delta)
    if omega > omega_cov:
        raise OutOfBranchError(
            f"budget {omega} exceeds the covering budget {omega_cov:.6g} "
            f"at delta={delta}; r(delta, omega) leaves the branch domain")
    if omega == 0.0:
        # r = packing radius; the active-segment count jumps at 1/sqrt(3)
        if abs(delta - _THIRD) < 1e-12:
            raise OutOfBranchError(
                "kink: one-sided derivatives differ at delta = 1/sqrt(3) "
                "with zero budget")
        if delta < _THIRD:
            return math.pi / 2.0
        return math.pi * (delta * delta - 1.0) / (8.0 * delta * delta)

    rad = critical_radii_2d(delta)
    r_switch = max(rad.r1, rad.r2)
    omega_switch = vol_overlap_2d(delta, r_switch)
    r = max_radius_for_overlap(DistortedLattice(2, delta),
                               OverlapMeasure.VOLUME_BASED, omega)
    d2 = delta * delta
    u = math.sqrt(d2 + 1.0)
    s = math.sqrt(max(2.0 * r * r - d2, 0.0))
    t = math.sqrt(max(8.0 * r * r - d2 - 1.0, 0.0))
    half_t2 = math.acos(min(delta / (_SQRT2 * r), 1.0))
    half_t1 = math.acos(min(u / (2.0 * _SQRT2 * r), 1.0))

    if omega <= omega_switch:
        if delta < _THIRD:
            # r2 < r <= r1: only the two segments at r2 are active
            return math.pi * s / (2.0 * delta * half_t2)
        # r1 < r <= r2: only the four segments at r1 are active
        return math.pi * (d2 - 1.0) * t / (8.0 * d2 * u * half_t1)
    # both families active up to the vertex radius
    num = (d2 - 1.0) * t + 2.0 * delta * u * s
    den = 4.0 * d2 * u * (2.0 * half_t1 + half_t2)
    return math.pi * num / den
