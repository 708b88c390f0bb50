"""2D cell-ball area: critical radii, piecewise area, overlap, derivative."""

import math

import numpy as np
import pytest

from overlatt.geometry2d import (
    CriticalRadii2D,
    _area_and_slope,
    _segment_angles,
    covering_overlap_2d,
    critical_radii_2d,
    vol_overlap_2d,
    voronoi_ball_area,
    _critical_radii_2d,
)
from overlatt.lattice import DistortedLattice, covering_radius, packing_radius
from overlatt.oracle import mc_union
from overlatt.quality import OutOfBranchError, density_derivative_2d

THIRD = 1.0 / math.sqrt(3.0)


def _qual(delta, omega):
    # independent oracle: invert vol_overlap by bisection, then density
    lo = packing_radius(DistortedLattice(2, delta))
    hi = 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if vol_overlap_2d(delta, mid) < omega:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    r = 0.5 * (lo + hi)
    return math.pi * r * r / delta


class TestCriticalRadii:
    def test_delta_one(self):
        rad = critical_radii_2d(1.0)
        assert rad.r1 == pytest.approx(0.5, abs=1e-9)
        assert rad.r2 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
        assert rad.r3 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_branch_boundary_coincidence(self):
        rad = critical_radii_2d(THIRD)
        assert rad.r1 == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-9)
        assert rad.r2 == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-9)

    def test_delta_half(self):
        rad = critical_radii_2d(0.5)
        assert rad.r1 == pytest.approx(math.sqrt(1.25) / (2 * math.sqrt(2)),
                                       abs=1e-9)
        assert rad.r2 == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-9)
        assert rad.r3 == pytest.approx(1.25 / (2 * math.sqrt(2.0)), abs=1e-9)
        assert (rad.r1, rad.r2, rad.r3) == pytest.approx(
            (0.39528, 0.35355, 0.44194), abs=5e-6)

    def test_ordering_flip_at_third(self):
        assert critical_radii_2d(0.5).r1 > critical_radii_2d(0.5).r2
        assert critical_radii_2d(0.7).r1 < critical_radii_2d(0.7).r2

    def test_r3_dominates_with_equality_only_at_one(self):
        for d in [0.1, 0.5, 0.9]:
            rad = critical_radii_2d(d)
            assert rad.r3 > max(rad.r1, rad.r2)
        rad = critical_radii_2d(1.0)
        assert rad.r3 == pytest.approx(max(rad.r1, rad.r2), abs=1e-15)

    def test_r3_equals_covering_radius(self):
        for d in [0.2, THIRD, 0.85, 1.0]:
            assert critical_radii_2d(d).r3 == pytest.approx(
                covering_radius(DistortedLattice(2, d)), abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            critical_radii_2d(0.0)
        with pytest.raises(ValueError):
            critical_radii_2d(-1.0)
        with pytest.raises(ValueError):
            critical_radii_2d(1.5)

    def test_rejects_out_of_range_after_memoizing(self):
        critical_radii_2d(0.5)
        for bad in (1.5, 2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                critical_radii_2d(bad)

    def test_area_computes_radii_once_per_delta(self):
        # an overlap inversion evaluates one delta at many radii; the
        # mirror delta = 2.5 shares the radii of 0.4
        radii = [float(r) for r in np.linspace(0.0, 1.2, 50)]
        cold = []
        for r in radii:
            _critical_radii_2d.cache_clear()
            cold.append((voronoi_ball_area(0.4, r),
                         voronoi_ball_area(2.5, 2.5 * r)))
        _critical_radii_2d.cache_clear()
        warm = [(voronoi_ball_area(0.4, r), voronoi_ball_area(2.5, 2.5 * r))
                for r in radii]
        assert warm == cold
        assert _critical_radii_2d.cache_info().misses == 1


def angles(delta, r):
    return _segment_angles(critical_radii_2d(delta), r)


class TestSegmentAngles:
    def test_below_both_radii(self):
        assert angles(1.0, 0.5) == (0.0, 0.0)

    def test_first_family_only(self):
        t1, t2 = angles(1.0, 1.0 / math.sqrt(2.0))
        assert t1 == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert t2 == 0.0

    def test_chord_distance_identity(self):
        # r cos(theta_i / 2) must recover the edge distance r_i
        rad = critical_radii_2d(0.5)
        r = 0.42
        t1, t2 = angles(0.5, r)
        assert r * math.cos(t1 / 2.0) == pytest.approx(rad.r1, abs=1e-12)
        assert r * math.cos(t2 / 2.0) == pytest.approx(rad.r2, abs=1e-12)
        assert (t1, t2) == pytest.approx((0.69279, 1.14417), abs=5e-3)


class TestVoronoiBallArea:
    def test_ball_inside_cell(self):
        assert voronoi_ball_area(1.0, 0.4) == pytest.approx(
            math.pi * 0.16, abs=1e-12)

    def test_full_cell(self):
        assert voronoi_ball_area(1.0, 1.0) == 1.0
        assert voronoi_ball_area(0.3, 5.0) == 0.3

    def test_segment_band_uses_segment_angles(self):
        # bit for bit the area formula over the segment angles
        for delta in np.linspace(0.05, 1.0, 20):
            delta = float(delta)
            rad = critical_radii_2d(delta)
            lo = min(rad.r1, rad.r2)
            for r in np.linspace(lo, rad.r3, 23)[1:-1]:
                r = float(r)
                t1, t2 = angles(delta, r)
                assert voronoi_ball_area(delta, r) == r * r * (
                    math.pi - 2.0 * t1 - t2
                    + 2.0 * math.sin(t1) + math.sin(t2))

    def test_against_oracle(self):
        lat = DistortedLattice(2, 0.7)
        est = mc_union(lat, 0.5, samples=400_000, seed=71)
        cf = voronoi_ball_area(0.7, 0.5) / 0.7
        assert abs(cf - est.mean) <= 3.0 * est.std_error

    @pytest.mark.parametrize("delta",
                             [0.1, 0.3, THIRD, 0.52, 0.8, 0.99, 1.0])
    def test_continuity_at_breakpoints(self, delta):
        rad = critical_radii_2d(delta)
        for b in {min(rad.r1, rad.r2), max(rad.r1, rad.r2), rad.r3}:
            lo = voronoi_ball_area(delta, b * (1 - 1e-13))
            hi = voronoi_ball_area(delta, b * (1 + 1e-13))
            assert abs(lo - hi) < 1e-12

    @pytest.mark.parametrize("delta", [0.25, 0.6, 1.0, 1.8])
    def test_nondecreasing_and_bounded(self, delta):
        rs = np.linspace(0.0, 2.5 * delta + 1.0, 400)
        vals = [voronoi_ball_area(delta, float(r)) for r in rs]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= delta + 1e-12 for v in vals)

    def test_mirror_reduction(self):
        # cell of delta > 1 is the cell of 1/delta scaled by delta
        for r in [0.3, 0.6, 0.9, 1.3]:
            direct = voronoi_ball_area(2.0, r)
            reduced = 4.0 * voronoi_ball_area(0.5, r / 2.0)
            assert direct == pytest.approx(reduced, abs=1e-15)

    def test_mirror_against_oracle(self):
        lat = DistortedLattice(2, 1.6)
        est = mc_union(lat, 0.75, samples=400_000, seed=72)
        cf = voronoi_ball_area(1.6, 0.75) / 1.6
        assert abs(cf - est.mean) <= 3.0 * est.std_error

    @pytest.mark.parametrize("delta", [1.4e154, 1e300])
    def test_mirror_overflow_raises(self, delta):
        # delta^2 is inf; the product was inf at 1.4e154 and nan at 1e300
        with pytest.raises(OverflowError):
            voronoi_ball_area(delta, 0.7)

    def test_more_than_the_cell_raises(self):
        # pi r^2 minus the segments leaves rounding noise of 1e-17, more
        # than the cell area 1e-320
        with pytest.raises(ValueError, match="cell area"):
            voronoi_ball_area(1e-320, 0.3)


class TestAreaSlope:
    """The r-slope of _area_and_slope against central differences of
    voronoi_ball_area, away from the edge and vertex radii where the
    slope bends (tests/test_reference.py holds it to 40 digits)."""

    @pytest.mark.parametrize("delta",
                             [0.1, 0.4, THIRD, 0.8, 1.0, 1.7, 5.0])
    def test_central_differences(self, delta):
        rad = critical_radii_2d(min(delta, 1.0 / delta))
        scale = max(delta, 1.0)
        kinks = [scale * c for c in (rad.r1, rad.r2, rad.r3)]
        h = 1e-6
        checked = 0
        for r in np.linspace(0.5 * min(kinks), 1.2 * max(kinks), 80):
            r = float(r)
            if min(abs(r - k) for k in kinks) < 1e-3:
                continue
            area, slope = _area_and_slope(delta, r)
            assert area == voronoi_ball_area(delta, r)
            diff = (voronoi_ball_area(delta, r + h)
                    - voronoi_ball_area(delta, r - h)) / (2.0 * h)
            assert slope == pytest.approx(diff, rel=1e-7, abs=1e-8)
            checked += 1
        assert checked > 60

    def test_slope_is_two_pi_r_inside_and_zero_past_the_cell(self):
        assert _area_and_slope(1.0, 0.4) == (math.pi * 0.16,
                                             2.0 * math.pi * 0.4)
        assert _area_and_slope(0.3, 5.0) == (0.3, 0.0)
        assert _area_and_slope(2.0, 5.0)[1] == 0.0


class TestVolOverlap2D:
    def test_zero_at_hexagonal_packing(self):
        assert vol_overlap_2d(THIRD, 1.0 / math.sqrt(6.0)) == 0.0

    @pytest.mark.parametrize("delta", [0.2, 0.5, THIRD, 0.9, 1.0])
    def test_covering_budget_value(self, delta):
        r3 = critical_radii_2d(delta).r3
        expect = math.pi * (delta ** 2 + 1.0) ** 2 / (8.0 * delta) - 1.0
        assert vol_overlap_2d(delta, r3) == pytest.approx(expect, abs=1e-12)
        assert covering_overlap_2d(delta) == pytest.approx(expect, abs=1e-12)

    def test_density_minus_union_identity(self):
        delta, r = 0.8, 0.55
        density = math.pi * r * r / delta
        union = voronoi_ball_area(delta, r) / delta
        assert vol_overlap_2d(delta, r) == pytest.approx(density - union,
                                                         abs=1e-12)

    def test_mirror_invariance(self):
        for delta, r in [(2.0, 0.8), (3.5, 1.1), (1.2, 0.5)]:
            assert vol_overlap_2d(delta, r) == pytest.approx(
                vol_overlap_2d(1.0 / delta, r / delta), abs=1e-15)

    def test_nonnegative_and_nondecreasing(self):
        for delta in [0.3, 0.75, 1.0]:
            rs = np.linspace(0.0, 1.5, 200)
            vals = [vol_overlap_2d(delta, float(r)) for r in rs]
            assert all(v >= 0.0 for v in vals)
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))


class TestDensityDerivative:
    def test_zero_at_third_for_positive_budget(self):
        # (d^2-1)T + 2 d u S cancels exactly in reals; floats leave ~1 ulp
        for omega in [0.01, 0.1, 0.2]:
            assert abs(density_derivative_2d(THIRD, omega)) < 1e-12

    def test_zero_at_covering_budget(self):
        for delta in [0.3, 0.6, 0.8]:
            d = density_derivative_2d(delta, covering_overlap_2d(delta))
            assert abs(d) < 1e-9

    def test_omega_zero_closed_forms(self):
        assert density_derivative_2d(0.3, 0.0) == pytest.approx(
            math.pi / 2.0, abs=1e-12)
        d = 0.8
        assert density_derivative_2d(d, 0.0) == pytest.approx(
            math.pi * (d * d - 1.0) / (8.0 * d * d), abs=1e-12)

    def test_kink_at_third_with_zero_budget(self):
        with pytest.raises(OutOfBranchError):
            density_derivative_2d(THIRD, 0.0)

    @pytest.mark.parametrize("delta,omega", [(0.4, 0.05), (0.9, 0.2)])
    def test_finite_difference_agreement(self, delta, omega):
        d_cf = density_derivative_2d(delta, omega)
        h = 1e-5
        d_fd = (_qual(delta + h, omega) - _qual(delta - h, omega)) / (2.0 * h)
        assert d_cf * d_fd > 0
        assert d_cf == pytest.approx(d_fd, rel=1e-4)

    def test_sign_conventions(self):
        # positive on the low-distortion branch, negative on the high one
        assert density_derivative_2d(0.2, 0.01) > 0
        assert density_derivative_2d(0.5, 0.02) > 0
        assert density_derivative_2d(0.7, 0.02) < 0
        assert density_derivative_2d(0.95, 0.05) < 0

    def test_out_of_branch_signals(self):
        with pytest.raises(OutOfBranchError):
            density_derivative_2d(0.5, covering_overlap_2d(0.5) + 0.01)
        with pytest.raises(OutOfBranchError):
            density_derivative_2d(1.0, 0.1)
        with pytest.raises(OutOfBranchError):
            density_derivative_2d(1.5, 0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            density_derivative_2d(-0.5, 0.1)
        with pytest.raises(ValueError):
            density_derivative_2d(0.5, -0.1)

    def test_branch_continuity_in_omega(self):
        # the two-family branch approaches the one-family value at the
        # junction with a sqrt(omega - omega_switch) tail, so probe a
        # shrinking sequence instead of a fixed-step jump
        for delta in [0.4, 0.55, 0.8]:
            rad = critical_radii_2d(delta)
            omega_switch = vol_overlap_2d(delta, max(rad.r1, rad.r2))
            base = density_derivative_2d(delta, omega_switch)
            errs = [abs(density_derivative_2d(
                delta, omega_switch * (1 + eps)) - base)
                for eps in (1e-3, 1e-5, 1e-7)]
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 2e-3 * max(abs(base), 1.0)
