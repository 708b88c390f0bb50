"""Closed-form area of (Voronoi cell ∩ ball) in 2D and its r-slope.

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

from .lattice import _check_delta, _check_radius

_SQRT2 = math.sqrt(2.0)


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


def _segment_angles(rad: CriticalRadii2D, r: float) -> tuple[float, float]:
    """Central angles of the two segment families cut off at radius r.

    Theta_i = 2 arccos(r_i / r) once r exceeds the edge distance r_i, else 0.
    """

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
    return _area_and_slope(delta, r)[0]


def _area_and_slope(delta: float, r: float) -> tuple[float, float]:
    """voronoi_ball_area and its r-slope dA/dr, for a checked delta and r.

    A segment of central angle Theta cut at radius r has r-slope
    r Theta, so dA/dr = r (2 pi - 4 Theta_1 - 2 Theta_2), which falls
    to 0 at r3; delta > 1 is the mirror delta A'(1/delta, r/delta).
    """
    if delta > 1.0:
        # mirror lattice: cell of delta is the cell of 1/delta scaled by delta
        scale = delta * delta
        if scale == math.inf:
            raise OverflowError(f"delta^2 overflows at delta={delta!r}")
        area, slope = _area_and_slope(1.0 / delta, r / delta)
        return scale * area, delta * slope
    rad = _critical_radii_2d(float(delta))
    if r <= min(rad.r1, rad.r2):
        return math.pi * r * r, 2.0 * math.pi * r
    if r <= rad.r3:
        t1, t2 = _segment_angles(rad, r)
        area = r * r * (math.pi - 2.0 * t1 - t2
                        + 2.0 * math.sin(t1) + math.sin(t2))
        # far below delta = 1 the segments cancel pi r^2 to rounding noise
        if area > delta * (1.0 + 1e-9):
            raise ValueError(f"the area {area!r} exceeds the cell area at "
                             f"delta={delta!r}: delta is too far from 1 "
                             "for floating point")
        return area, r * (2.0 * math.pi - 4.0 * t1 - 2.0 * t2)
    return delta, 0.0


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
