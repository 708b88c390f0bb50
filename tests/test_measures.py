"""Tests for the five arrangement measures."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from overlatt.lattice import (
    DELTA_MAX,
    DELTA_MIN,
    DistortedLattice,
    covering_radius,
    packing_radius,
)
from overlatt.measures import (
    MeasureReport,
    NoClosedFormError,
    UndefinedRatioError,
    _vol_overlap_and_slope,
    density,
    dist_overlap,
    free_space,
    measure_report,
    union_fraction,
    vol_overlap,
)
from overlatt.oracle import mc_union

SQRT2 = math.sqrt(2.0)


class TestDensity:
    def test_zero_radius(self):
        assert density(DistortedLattice(3, 1.0), 0.0) == 0.0

    def test_fcc_packing_density(self):
        lat = DistortedLattice(3, 2.0)
        assert density(lat, SQRT2 / 2.0) == pytest.approx(
            math.pi / math.sqrt(18.0), abs=1e-15)

    def test_hexagonal_packing_density(self):
        lat = DistortedLattice(2, 1.0 / math.sqrt(3.0))
        assert density(lat, 1.0 / math.sqrt(6.0)) == pytest.approx(
            math.pi / math.sqrt(12.0), abs=1e-15)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            density(DistortedLattice(2, 1.0), -0.1)


class TestUnionFraction:
    def test_equals_density_at_packing_radius(self):
        for n, delta in ((2, 0.7), (3, 1.3), (4, 0.9), (5, 2.0)):
            lat = DistortedLattice(n, delta)
            r = packing_radius(lat)
            assert union_fraction(lat, r) == pytest.approx(
                density(lat, r), abs=1e-12)

    def test_one_at_covering_radius(self):
        for n, delta in ((2, 0.7), (3, 1.3), (4, 0.9)):
            lat = DistortedLattice(n, delta)
            cov = covering_radius(lat)
            assert union_fraction(lat, cov) == pytest.approx(1.0, abs=1e-12)
            assert union_fraction(lat, cov * 2.0) == 1.0

    def test_matches_oracle_in_3d(self):
        lat = DistortedLattice(3, 1.0)
        est = mc_union(lat, 0.6, samples=400_000, seed=11)
        assert abs(union_fraction(lat, 0.6) - est.mean) <= 3.0 * est.std_error

    # the optimizer searches delta in [0.05, 20]; the oracle suite's grids
    # stop at 0.2 and at 4 (2D) or 3 (3D)
    @pytest.mark.parametrize("t", (0.3, 0.7))
    @pytest.mark.parametrize("delta", (0.05, 0.13, 5.0, 20.0))
    @pytest.mark.parametrize("n", (2, 3))
    def test_matches_oracle_outside_the_suite_grids(self, n, delta, t):
        lat = DistortedLattice(n, delta)
        pack, cov = packing_radius(lat), covering_radius(lat)
        r = pack + t * (cov - pack)
        seed = 900 + 100 * n + int(10 * delta) + int(10 * t)  # distinct
        est = mc_union(lat, r, samples=1_000_000, seed=seed)
        assert abs(union_fraction(lat, r) - est.mean) <= 3.0 * est.std_error

    @pytest.mark.parametrize("fn", (union_fraction, vol_overlap,
                                    measure_report))
    def test_high_dim_has_no_closed_form(self, fn):
        lat = DistortedLattice(4, 1.0)
        r = 0.5 * (packing_radius(lat) + covering_radius(lat))
        with pytest.raises(NoClosedFormError, match="mc_union"):
            fn(lat, r)


class TestDistOverlap:
    def test_zero_at_packing_radius(self):
        assert dist_overlap(DistortedLattice(3, 2.0), SQRT2 / 2.0) == 0.0

    def test_half_at_twice_packing_radius(self):
        assert dist_overlap(DistortedLattice(3, 2.0), SQRT2) == pytest.approx(
            0.5, abs=1e-15)
        assert dist_overlap(DistortedLattice(2, 1.0), 1.0) == pytest.approx(
            0.5, abs=1e-15)

    def test_zero_iff_below_packing(self):
        lat = DistortedLattice(3, 0.8)
        pack = packing_radius(lat)
        assert dist_overlap(lat, pack * 0.99) == 0.0
        assert dist_overlap(lat, pack) == 0.0
        assert dist_overlap(lat, pack * 1.01) > 0.0

    def test_zero_radius_rejected(self):
        with pytest.raises(UndefinedRatioError):
            dist_overlap(DistortedLattice(2, 1.0), 0.0)


class TestVolOverlap:
    def test_zero_up_to_packing_radius(self):
        for n, delta in ((2, 0.6), (3, 1.4)):
            lat = DistortedLattice(n, delta)
            pack = packing_radius(lat)
            assert vol_overlap(lat, pack) == pytest.approx(0.0, abs=1e-12)
            assert vol_overlap(lat, pack * 0.5) == pytest.approx(
                0.0, abs=1e-12)

    def test_never_negative_just_above_packing_radius(self):
        # density - union rounded to -3.3e-16 at 170 of these points
        for delta in np.geomspace(0.05, 20.0, 300):
            lat = DistortedLattice(2, float(delta))
            pack = packing_radius(lat)
            for e in np.logspace(-15, -4, 7):
                r = pack * (1.0 + float(e))
                value = vol_overlap(lat, r)
                assert value >= 0.0
                assert measure_report(lat, r).vol_overlap == value

    def test_2d_covering_value(self):
        for delta in (0.4, 0.8, 1.0):
            lat = DistortedLattice(2, delta)
            expect = math.pi * (delta ** 2 + 1.0) ** 2 / (8.0 * delta) - 1.0
            assert vol_overlap(lat, covering_radius(lat)) == pytest.approx(
                expect, abs=1e-12)

    def test_bcc_covering_value(self):
        lat = DistortedLattice(3, 0.5)
        expect = 5.0 * math.sqrt(5.0) * math.pi / 24.0 - 1.0
        assert vol_overlap(lat, covering_radius(lat)) == pytest.approx(
            expect, abs=1e-12)

    def test_rejects_bad_radius(self):
        for n in (2, 3, 4):
            lat = DistortedLattice(n, 0.8)
            for r in (-0.1, math.nan, math.inf):
                with pytest.raises(ValueError):
                    vol_overlap(lat, r)
        for r in (True, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="radius"):
                _vol_overlap_and_slope(DistortedLattice(2, 0.8), r)

    @pytest.mark.parametrize("delta", (0.2, 0.7, 1.0, 2.5))
    def test_2d_slope_helper(self, delta):
        # the value is vol_overlap's bit for bit; the slope is its
        # central difference, and it never decreases (convex overlap)
        lat = DistortedLattice(2, delta)
        pack, cover = packing_radius(lat), covering_radius(lat)
        h = 1e-6
        slopes = []
        for r in np.linspace(0.5 * pack, 1.5 * cover, 41):
            r = float(r)
            value, slope = _vol_overlap_and_slope(lat, r)
            assert value == vol_overlap(lat, r)
            diff = (vol_overlap(lat, r + h)
                    - vol_overlap(lat, max(r - h, 0.0))) / (2.0 * h)
            assert slope == pytest.approx(diff, rel=1e-5, abs=1e-5)
            slopes.append(slope)
        assert all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))


class TestFreeSpace:
    def test_zero_at_covering_radius(self):
        lat = DistortedLattice(3, 0.5)
        assert free_space(lat, math.sqrt(5.0) / 4.0) == 0.0

    def test_one_at_half_covering(self):
        lat = DistortedLattice(3, 0.5)
        assert free_space(lat, math.sqrt(5.0) / 8.0) == pytest.approx(
            1.0, abs=1e-14)

    def test_zero_beyond_covering(self):
        assert free_space(DistortedLattice(2, 1.0), 1.0) == 0.0

    def test_zero_radius_rejected(self):
        with pytest.raises(UndefinedRatioError):
            free_space(DistortedLattice(2, 1.0), 0.0)


class TestIdentityAndMonotonicity:
    def test_identity_on_grid(self):
        for n, deltas in ((2, (0.3, 1.0 / math.sqrt(3.0), 1.0, 2.5)),
                          (3, (0.4, 0.66, 1.0, 2.0))):
            for delta in deltas:
                lat = DistortedLattice(n, delta)
                cov = covering_radius(lat)
                for r in np.linspace(0.05, cov * 1.1, 9):
                    got = vol_overlap(lat, float(r))
                    expect = density(lat, float(r)) - union_fraction(
                        lat, float(r))
                    assert abs(got - expect) < 1e-9

    def test_monotone_in_radius(self):
        for n, delta in ((2, 0.8), (3, 0.66), (3, 1.5)):
            lat = DistortedLattice(n, delta)
            cov = covering_radius(lat)
            rs = np.linspace(0.05, cov * 1.2, 30)
            dens = [density(lat, float(r)) for r in rs]
            uni = [union_fraction(lat, float(r)) for r in rs]
            dov = [dist_overlap(lat, float(r)) for r in rs]
            vov = [vol_overlap(lat, float(r)) for r in rs]
            assert all(b > a for a, b in zip(dens, dens[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(uni, uni[1:]))
            assert all(u <= 1.0 + 1e-12 for u in uni)
            assert all(b >= a - 1e-12 for a, b in zip(dov, dov[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(vov, vov[1:]))


# the whole domain the optimizer searches, log-uniform
deltas = st.floats(math.log(DELTA_MIN), math.log(DELTA_MAX)).map(math.exp)
fractions = st.floats(0.0, 1.0)


class TestUnionMetamorphic:
    @given(n=st.sampled_from((2, 3)), delta=deltas, a=fractions, b=fractions)
    def test_nondecreasing_in_radius(self, n, delta, a, b):
        lat = DistortedLattice(n, delta)
        reach = 1.2 * covering_radius(lat)
        r_lo, r_hi = sorted((a * reach, b * reach))
        assert union_fraction(lat, r_lo) <= union_fraction(lat, r_hi)

    @given(n=st.sampled_from((2, 3)), delta=deltas, frac=fractions)
    def test_equals_density_below_packing_radius(self, n, delta, frac):
        lat = DistortedLattice(n, delta)
        r = frac * packing_radius(lat)
        assert union_fraction(lat, r) == pytest.approx(density(lat, r),
                                                       rel=1e-14, abs=0.0)

    @given(n=st.sampled_from((2, 3)), delta=deltas,
           frac=st.floats(0.0, 2.0))
    def test_one_at_and_beyond_covering_radius(self, n, delta, frac):
        lat = DistortedLattice(n, delta)
        r = covering_radius(lat) * (1.0 + frac)
        assert union_fraction(lat, r) == pytest.approx(1.0, abs=1e-14)

    @given(delta=deltas, frac=st.floats(0.0, 1.2))
    def test_2d_mirror(self, delta, frac):
        # L_{1/delta} is L_delta scaled by 1/delta, up to a rotation
        lat = DistortedLattice(2, delta)
        r = frac * covering_radius(lat)
        mirror = DistortedLattice(2, 1.0 / delta)
        assert union_fraction(mirror, r / delta) == pytest.approx(
            union_fraction(lat, r), abs=1e-15)

    @given(frac=st.floats(0.0, 1.2), side=st.sampled_from((-1.0, 1.0)))
    def test_3d_continuous_across_cube(self, frac, side):
        cube = DistortedLattice(3, 1.0)
        r = frac * covering_radius(cube)
        near = DistortedLattice(3, 1.0 + side * 1e-9)
        assert union_fraction(near, r) == pytest.approx(
            union_fraction(cube, r), abs=1e-8)

    @given(boundary=st.sampled_from(
               (0.5, math.sqrt(0.4),
                math.sqrt(19.0 / 4.0 - 3.0 * math.sqrt(33.0) / 4.0), 2.0)),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_3d_continuous_across_regime_boundaries(self, boundary, frac):
        # ordering_regime switches at the first three, the packing
        # radius branch at 1/2 and 2
        r = frac * covering_radius(DistortedLattice(3, boundary))
        lo = DistortedLattice(3, boundary * (1.0 - 1e-9))
        hi = DistortedLattice(3, boundary * (1.0 + 1e-9))
        assert union_fraction(lo, r) == pytest.approx(union_fraction(hi, r),
                                                      abs=1e-8)


class TestMeasureReport:
    def test_field_order(self):
        assert MeasureReport._fields == (
            "delta", "n", "r", "density", "union", "dist_overlap",
            "vol_overlap", "free_space")

    def test_report_identity_is_exact(self):
        lat = DistortedLattice(3, 0.7)
        rep = measure_report(lat, 0.6)
        assert rep.vol_overlap == rep.density - rep.union
        assert rep.delta == 0.7 and rep.n == 3 and rep.r == 0.6
        assert 0.0 <= rep.union <= 1.0

    def test_as_dict_order(self):
        rep = measure_report(DistortedLattice(2, 1.0), 0.5)
        assert tuple(rep.as_dict()) == MeasureReport._fields

    def test_zero_radius_rejected(self):
        with pytest.raises(UndefinedRatioError):
            measure_report(DistortedLattice(2, 1.0), 0.0)
