"""The closed-form cell-ball volumes, and the r-slope of the 2D area,
against the 40-digit reference.

Grid: deltas log-uniform in [0.05, 20] (the optimizer's domain) with its
ends, plus each branch boundary and its neighbours at +-1e-9 and +-1e-8
(3D: the regime boundaries 1/2, sqrt(2/5), sqrt(19/4 - 3 sqrt(33)/4), 1
and 2; 2D: 1/sqrt(3), 1 and sqrt(3)).  Radii: every face, edge and
vertex distance of the cell times 1 -+ 1e-9 ("near" a branch switch
of the closed form), and a packing-to-covering ladder, 0.9 of the
packing radius and 1 - 1e-9 of the covering radius ("generic"), all up
to that last one.
"""

import math

import numpy as np
import pytest

from overlatt.geometry2d import _area_and_slope, voronoi_ball_area
from overlatt.geometry3d import voronoi_ball_volume_3d
from overlatt.lattice import DistortedLattice, covering_radius, packing_radius

import reference
from reference import mp, mpf

# bounds on the relative error of the closed forms over the grids
# below, just above the largest seen; the 3D inclusion-exclusion loses
# digits where a cap pair or triple has just come into play
AREA_REL_TOL = 1.5e-15
# bounds on the error of the 2D r-slope relative to 2 pi r, the slope of
# the ball: just past an edge distance the segment angle acos(r_i / r)
# turns the rounding of r_i / r into an error of about 1e-11
SLOPE_TOL = 5e-15
SLOPE_NEAR_TOL = 1.5e-11
VOLUME_REL_TOL = 2.5e-13
VOLUME_NEAR_REL_TOL = 3e-10

OFFSETS = (0.0, -1e-8, -1e-9, 1e-9, 1e-8)


def _deltas(boundaries, draws, seed):
    rng = np.random.default_rng(seed)
    logs = rng.uniform(math.log(0.05), math.log(20.0), draws)
    return sorted({0.05, 20.0, *(float(x) for x in np.exp(logs)),
                   *(b + s for b in boundaries for s in OFFSETS)})


DELTAS_2D = _deltas((1.0 / math.sqrt(3.0), 1.0, math.sqrt(3.0)), 30, 2)
DELTAS_3D = _deltas((0.5, math.sqrt(0.4),
                     math.sqrt(19.0 / 4.0 - 3.0 * math.sqrt(33.0) / 4.0),
                     1.0, 2.0), 16, 3)


def _radii(critical, pack):
    """(generic, near) radii of one cell; critical ends at its covering
    radius."""
    top = critical[-1] * (1.0 - 1e-9)
    ladder = (pack + t / 10.0 * (critical[-1] - pack) for t in range(1, 10))
    generic = {0.9 * pack, top, *ladder}
    near = {c * (1.0 + s) for c in critical for s in (-1e-9, 1e-9)}
    return sorted(generic), sorted(r for r in near - generic if r < top)


def _critical_2d(delta):
    if delta > 1.0:
        return [delta * r for r in _critical_2d(1.0 / delta)]
    return [float(r) for r in reference._radii_2d(delta)]


def _critical_3d(delta):
    return sorted({float(x) for a, h, k, _ in reference.cell_3d(delta)
                   for x in (a, mp.sqrt(a * a + h * h),
                             mp.sqrt(a * a + h * h + k * k))})


def _worst(n, deltas, critical, ours, ref):
    """Largest relative error of ours against ref over the generic and
    over the near radii, each as (error, delta, r)."""
    def error(delta, r):
        exact = ref(delta, r)
        return abs(mpf(ours(delta, r)) - exact) / exact

    worst = []
    for delta in deltas:
        radii = _radii(critical(delta),
                       packing_radius(DistortedLattice(n, delta)))
        worst.append([max((error(delta, r), delta, r) for r in tier)
                      for tier in radii])
    return [max(tier) for tier in zip(*worst)]


def test_reference_cells_close():
    # the 3D pieces tile the cell: delta at the covering radius, the
    # ball below the packing radius, and the farthest vertex is the
    # covering radius
    for delta in DELTAS_3D[::4]:
        lat = DistortedLattice(3, delta)
        critical = _critical_3d(delta)
        assert critical[-1] == pytest.approx(covering_radius(lat),
                                             rel=1e-15)
        assert abs(reference.volume_3d(delta, critical[-1]) / delta
                   - 1) < 1e-35
        r = 0.9 * packing_radius(lat)
        assert abs(reference.volume_3d(delta, r)
                   / (4 * mp.pi / 3 * mpf(r) ** 3) - 1) < 1e-35
    # the 2D formula reaches the cell area at the vertex radius
    for delta in DELTAS_2D[::4]:
        cover = _critical_2d(delta)[-1]
        assert cover == pytest.approx(
            covering_radius(DistortedLattice(2, delta)), rel=1e-15)
        if delta <= 1.0:
            r = reference._radii_2d(delta)[-1] * (1 - mpf("1e-15"))
            assert abs(reference.area_2d(delta, r) / delta - 1) < 1e-25


def test_voronoi_ball_area_matches_reference():
    for err, delta, r in _worst(2, DELTAS_2D, _critical_2d,
                                voronoi_ball_area, reference.area_2d):
        assert err <= AREA_REL_TOL, f"{err} at delta={delta!r}, r={r!r}"


def test_area_slope_matches_reference_derivative():
    worst = []
    for delta in DELTAS_2D:
        tiers = _radii(_critical_2d(delta),
                       packing_radius(DistortedLattice(2, delta)))
        worst.append([max(
            (abs(mpf(_area_and_slope(delta, r)[1]) - mp.diff(
                lambda x: reference.area_2d(delta, x), mpf(r)))
             / (2 * mp.pi * r), delta, r) for r in tier) for tier in tiers])
    generic, near = (max(tier) for tier in zip(*worst))
    for (err, delta, r), bound in ((generic, SLOPE_TOL),
                                   (near, SLOPE_NEAR_TOL)):
        assert err <= bound, f"{err} at delta={delta!r}, r={r!r}"


def test_voronoi_ball_volume_3d_matches_reference():
    generic, near = _worst(3, DELTAS_3D, _critical_3d,
                           voronoi_ball_volume_3d, reference.volume_3d)
    for (err, delta, r), bound in ((generic, VOLUME_REL_TOL),
                                   (near, VOLUME_NEAR_REL_TOL)):
        assert err <= bound, f"{err} at delta={delta!r}, r={r!r}"
