"""Tests for relaxed packing/covering quality and delta optimization."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from overlatt import quality
from overlatt.lattice import (
    DELTA_MAX,
    DELTA_MIN,
    DistortedLattice,
    covering_radius,
    packing_radius,
    unit_ball_volume,
)
from overlatt.measures import OverlapMeasure, vol_overlap
from overlatt.quality import (
    RADIUS_TOL,
    NoCrossoverError,
    OptimizeResult,
    QualityMode,
    QualityQuery,
    QualityResult,
    crossover_omega,
    max_radius_for_overlap,
    optimize_delta,
    qual_covering,
    qual_packing,
)

DIST = OverlapMeasure.DISTANCE_BASED
VOL = OverlapMeasure.VOLUME_BASED
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
BCC_COVER_DENSITY = 5.0 * math.sqrt(5.0) * math.pi / 24.0


def branchwise_distance_density(n: int, delta: float, omega: float) -> float:
    """Closed-form density of the distance-measure packing quality."""
    vn = unit_ball_volume(n)
    scale = (1.0 - omega) ** n
    if delta <= 1.0 / math.sqrt(n + 1.0):
        return vn * n ** (n / 2.0) * delta ** (n - 1) / (2.0 ** n * scale)
    if delta <= math.sqrt(n + 1.0):
        middle = (1.0 + (delta ** 2 - 1.0) / n) ** (n / 2.0)
        return vn * middle / (2.0 ** n * scale * delta)
    return vn / (2.0 ** (n / 2.0) * scale * delta)


def doubled_bracket(lat: DistortedLattice, omega: float):
    """The volume-inversion bracket [lo, hi] and the overlap evaluations
    that doubling from the packing radius takes to find it."""
    lo = packing_radius(lat)
    hi = 2.0 * lo
    evals = 1
    while vol_overlap(lat, hi) <= omega:
        lo, hi = hi, 2.0 * hi
        evals += 1
    return lo, hi, evals


def bisection_radius(lat: DistortedLattice, omega: float) -> float:
    """Reference volume inversion: plain bisection of the bracket."""
    lo, hi, _ = doubled_bracket(lat, omega)
    while hi - lo > RADIUS_TOL:
        mid = 0.5 * (lo + hi)
        if vol_overlap(lat, mid) <= omega:
            lo = mid
        else:
            hi = mid
    return lo


class TestMaxRadiusForOverlap:
    def test_distance_closed_form(self):
        lat = DistortedLattice(3, 2.0)
        assert max_radius_for_overlap(lat, DIST, 0.0) == pytest.approx(
            SQRT2 / 2.0, abs=1e-15)
        assert max_radius_for_overlap(lat, DIST, 0.5) == pytest.approx(
            SQRT2, abs=1e-15)

    def test_volume_zero_budget_is_packing_radius(self):
        for n, delta in ((2, 0.7), (3, 1.4)):
            lat = DistortedLattice(n, delta)
            assert max_radius_for_overlap(lat, VOL, 0.0) == packing_radius(lat)

    def test_volume_recovers_bcc_covering_radius(self):
        lat = DistortedLattice(3, 0.5)
        omega = BCC_COVER_DENSITY - 1.0
        r = max_radius_for_overlap(lat, VOL, omega)
        assert r == pytest.approx(math.sqrt(5.0) / 4.0, abs=1e-9)
        assert vol_overlap(lat, r) <= omega

    def test_volume_budget_is_met_with_equality(self):
        for delta, omega in ((0.4, 0.05), (0.8, 0.3), (1.0, 0.7)):
            lat = DistortedLattice(2, delta)
            r = max_radius_for_overlap(lat, VOL, omega)
            got = vol_overlap(lat, r)
            assert got <= omega
            assert got == pytest.approx(omega, abs=1e-9)

    def test_rejects_bad_omega(self):
        lat = DistortedLattice(2, 1.0)
        with pytest.raises(ValueError):
            max_radius_for_overlap(lat, DIST, 1.0)
        with pytest.raises(ValueError):
            max_radius_for_overlap(lat, DIST, -0.1)
        with pytest.raises(ValueError):
            max_radius_for_overlap(lat, VOL, math.nan)

    def test_root_beyond_the_float_spacing_of_the_tolerance(self):
        # above 2^13 adjacent floats lie farther apart than RADIUS_TOL;
        # the 2D overlap past the covering radius is pi r^2 / delta - 1
        lat = DistortedLattice(2, 1.0)
        omega = 1e9
        r = max_radius_for_overlap(lat, VOL, omega)
        assert r == pytest.approx(math.sqrt((1.0 + omega) / math.pi),
                                  rel=1e-15)
        assert vol_overlap(lat, r) <= omega


class TestVolumeInversionContract:
    @given(n=st.sampled_from((2, 3)),
           log_delta=st.floats(math.log(DELTA_MIN), math.log(DELTA_MAX)),
           above_cover=st.booleans(),
           frac=st.floats(0.01, 0.99))
    def test_bracket_reference_and_evaluation_count(self, n, log_delta,
                                                    above_cover, frac):
        lat = DistortedLattice(n, math.exp(log_delta))
        # the overlap at the covering radius, where the union reaches 1
        budget = vol_overlap(lat, covering_radius(lat))
        omega = budget * (1.0 + 2.0 * frac) if above_cover else budget * frac
        with mock.patch.object(quality, "vol_overlap",
                               wraps=vol_overlap) as counted:
            r = max_radius_for_overlap(lat, VOL, omega)
        assert vol_overlap(lat, r) <= omega < vol_overlap(lat, r + RADIUS_TOL)
        assert abs(r - bisection_radius(lat, omega)) <= 2.0 * RADIUS_TOL
        lo, hi, doubling = doubled_bracket(lat, omega)
        bisection = math.ceil(math.log2((hi - lo) / RADIUS_TOL))
        assert counted.call_count <= doubling + bisection + 1

    def test_step_overlap_keeps_the_bisection_bound(self):
        # on a step, regula falsi crawls from the low end; the projection
        # into the bisection-minmax interval keeps the worst case
        lat = DistortedLattice(2, 1.0)
        pack = packing_radius(lat)
        edge = 1.3 * pack

        def step_overlap(lat, r):
            return 0.0 if r <= edge else 1e6

        with mock.patch.object(quality, "vol_overlap",
                               side_effect=step_overlap) as counted:
            r = max_radius_for_overlap(lat, VOL, 0.1)
        assert edge - RADIUS_TOL <= r <= edge
        bisection = math.ceil(math.log2(pack / RADIUS_TOL))
        assert counted.call_count <= 1 + bisection + 1

    def test_smooth_overlap_takes_far_fewer_steps_than_bisection(self):
        # bisection of these brackets takes 39-40 steps each
        steps = []
        for n, delta, omega in ((2, 0.8, 0.3), (2, 3.0, 0.1),
                                (3, 0.5, 0.2), (3, 2.0, 0.05)):
            lat = DistortedLattice(n, delta)
            _, _, doubling = doubled_bracket(lat, omega)
            with mock.patch.object(quality, "vol_overlap",
                                   wraps=vol_overlap) as counted:
                max_radius_for_overlap(lat, VOL, omega)
            steps.append(counted.call_count - doubling)
        assert max(steps) <= 20


class TestQualPacking:
    def test_fcc_density(self):
        res = qual_packing(DistortedLattice(3, 2.0), DIST, 0.0)
        assert res.density == pytest.approx(math.pi / math.sqrt(18.0),
                                            abs=1e-12)

    def test_hexagonal_density_both_measures(self):
        lat = DistortedLattice(2, 1.0 / SQRT3)
        for measure in (DIST, VOL):
            res = qual_packing(lat, measure, 0.0)
            assert res.density == pytest.approx(math.pi / math.sqrt(12.0),
                                                abs=1e-12)

    def test_fcc_bcc_meet_near_crossover(self):
        a = qual_packing(DistortedLattice(3, 0.5), VOL, 0.1).density
        b = qual_packing(DistortedLattice(3, 2.0), VOL, 0.1).density
        assert a == pytest.approx(1.03, abs=0.01)
        assert b == pytest.approx(1.03, abs=0.01)

    def test_distance_measure_matches_branchwise_form(self):
        for n in (2, 3, 4):
            for delta in np.geomspace(0.1, 10.0, 13):
                for omega in (0.0, 0.3, 0.8):
                    res = qual_packing(DistortedLattice(n, float(delta)),
                                       DIST, omega)
                    expect = branchwise_distance_density(n, float(delta),
                                                         omega)
                    assert abs(res.density - expect) < 1e-9

    def test_third_branch_value(self):
        res = qual_packing(DistortedLattice(3, 2.0), DIST, 0.5)
        expect = unit_ball_volume(3) / (2.0 ** 1.5 * 0.125 * 2.0)
        assert res.density == pytest.approx(expect, abs=1e-12)
        assert res.density == pytest.approx(5.9238, abs=1e-4)

    def test_nondecreasing_in_omega(self):
        for measure in (DIST, VOL):
            lat = DistortedLattice(2, 0.8)
            vals = [qual_packing(lat, measure, w).density
                    for w in np.linspace(0.0, 0.9, 10)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_constraint_attained(self):
        for measure in (DIST, VOL):
            for omega in (0.0, 0.2, 0.6):
                res = qual_packing(DistortedLattice(2, 1.3), measure, omega)
                assert res.overlap <= omega + 1e-9

    def test_beats_integer_lattice(self):
        for omega in (0.0, 0.1, 0.3):
            cube = qual_packing(DistortedLattice(3, 1.0), VOL, omega).density
            for delta in (0.5, 2.0):
                better = qual_packing(DistortedLattice(3, delta), VOL,
                                      omega).density
                assert better > cube

    def test_result_fields(self):
        res = qual_packing(DistortedLattice(3, 2.0), DIST, 0.25)
        assert QualityResult._fields == (
            "delta", "omega", "r", "density", "union", "overlap", "mode",
            "measure")
        assert res.mode == "packing" and res.measure == "dist"
        assert res.delta == 2.0 and res.omega == 0.25
        assert tuple(res.as_dict()) == QualityResult._fields

    def test_high_dim_union_is_nan(self):
        res = qual_packing(DistortedLattice(5, 1.0), DIST, 0.25)
        assert math.isnan(res.union)
        assert res.density > 0.0


class TestQualCovering:
    def test_bcc_density(self):
        res = qual_covering(DistortedLattice(3, 0.5), 0.0)
        assert res.density == pytest.approx(BCC_COVER_DENSITY, abs=1e-12)
        assert res.union == pytest.approx(1.0, abs=1e-12)

    def test_hexagonal_density(self):
        res = qual_covering(DistortedLattice(2, 1.0 / SQRT3), 0.0)
        assert res.density == pytest.approx(2.0 * math.pi / math.sqrt(27.0),
                                            abs=1e-12)

    def test_unit_budget_halves_radius(self):
        res = qual_covering(DistortedLattice(3, 1.0), 1.0)
        assert res.r == pytest.approx(SQRT3 / 4.0, abs=1e-15)
        assert res.density == pytest.approx(
            unit_ball_volume(3) * (SQRT3 / 4.0) ** 3, abs=1e-12)

    def test_budget_attained_exactly(self):
        for omega in (0.0, 0.4, 2.0):
            res = qual_covering(DistortedLattice(2, 0.9), omega)
            assert res.overlap == pytest.approx(omega, abs=1e-12)
            assert res.overlap <= omega + 1e-9
        assert qual_covering(DistortedLattice(2, 0.9), 0.4).measure == "free"


class TestOptimizeDelta:
    def test_packing_distance_3d(self):
        query = QualityQuery(n=3, mode=QualityMode.PACKING, measure=DIST,
                             omega=0.5)
        res = optimize_delta(query)
        assert res.delta_star == pytest.approx(2.0, abs=1e-6)
        assert not res.plateau
        assert len(res.ties) == 1

    def test_covering_3d(self):
        query = QualityQuery(n=3, mode=QualityMode.COVERING, omega=0.5)
        res = optimize_delta(query)
        assert res.delta_star == pytest.approx(0.5, abs=1e-6)

    def test_packing_distance_2d_tie(self):
        query = QualityQuery(n=2, mode=QualityMode.PACKING, measure=DIST,
                             omega=0.25)
        res = optimize_delta(query)
        assert len(res.ties) == 2
        assert res.ties[0] == pytest.approx(1.0 / SQRT3, abs=1e-6)
        assert res.ties[1] == pytest.approx(SQRT3, abs=1e-6)

    def test_covering_2d_tie(self):
        query = QualityQuery(n=2, mode=QualityMode.COVERING, omega=0.0)
        res = optimize_delta(query)
        assert any(abs(t - 1.0 / SQRT3) < 1e-6 for t in res.ties)
        assert any(abs(t - SQRT3) < 1e-6 for t in res.ties)

    def test_packing_volume_2d_sharp(self):
        query = QualityQuery(n=2, mode=QualityMode.PACKING, measure=VOL,
                             omega=0.1, delta_range=(0.05, 1.0))
        res = optimize_delta(query)
        assert res.delta_star == pytest.approx(1.0 / SQRT3, abs=1e-5)
        assert not res.plateau

    def test_packing_volume_2d_plateau(self):
        # with a big enough budget the covering configuration is feasible
        # on a whole delta interval and the density caps at 1 + omega
        query = QualityQuery(n=2, mode=QualityMode.PACKING, measure=VOL,
                             omega=0.5, delta_range=(0.05, 1.0))
        res = optimize_delta(query)
        assert res.plateau
        assert len(res.plateau_ranges) == 1
        left, right = res.plateau_ranges[0]
        assert left < 1.0 / SQRT3 < right
        assert res.result.density == pytest.approx(1.5, abs=1e-8)
        # the edges sit where the covering overlap equals the budget
        for edge in (left, right):
            omega_cov = (math.pi * (edge ** 2 + 1.0) ** 2 / (8.0 * edge)
                         - 1.0)
            assert omega_cov == pytest.approx(0.5, abs=1e-3)

    def test_argmax_independent_of_omega(self):
        stars = []
        for omega in (0.0, 0.3, 0.6, 0.9):
            query = QualityQuery(n=3, mode=QualityMode.PACKING, measure=DIST,
                                 omega=omega)
            stars.append(optimize_delta(query).delta_star)
        assert all(abs(s - stars[0]) < 1e-6 for s in stars)

    def test_branch_shape_of_distance_density(self):
        # increasing up to 1/sqrt(n+1), interior minimum at delta = 1,
        # decreasing beyond sqrt(n+1)
        n, omega = 3, 0.2
        f = lambda d: branchwise_distance_density(n, d, omega)
        lows = np.linspace(0.06, 1.0 / 2.0 - 0.01, 12)
        assert all(f(b) > f(a) for a, b in zip(lows, lows[1:]))
        highs = np.linspace(2.01, 12.0, 12)
        assert all(f(b) < f(a) for a, b in zip(highs, highs[1:]))
        assert f(1.0) < f(0.9) and f(1.0) < f(1.1)

    def test_result_matches_delta_star(self):
        query = QualityQuery(n=3, mode=QualityMode.COVERING, omega=0.25)
        res = optimize_delta(query)
        assert isinstance(res, OptimizeResult)
        assert res.result.delta == res.delta_star
        assert res.result.mode == "covering"

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_delta(QualityQuery(n=3, mode=QualityMode.PACKING,
                                        measure=None, omega=0.1))
        with pytest.raises(ValueError):
            optimize_delta(QualityQuery(n=3, mode=QualityMode.COVERING,
                                        delta_range=(1.0, 0.5)))
        with pytest.raises(ValueError):
            optimize_delta(QualityQuery(n=3, mode=QualityMode.COVERING,
                                        delta_range=(-1.0, 0.5)))
        with pytest.raises(ValueError):
            optimize_delta(QualityQuery(n=3, mode=QualityMode.PACKING,
                                        measure=DIST, omega=0.5,
                                        scan_points=1))

    def test_rejects_non_finite_delta_range(self):
        for delta_range in ((1.0, math.inf), (-math.inf, 1.0),
                            (0.1, math.nan)):
            with pytest.raises(ValueError, match="delta_range"):
                optimize_delta(QualityQuery(n=3, mode=QualityMode.COVERING,
                                            delta_range=delta_range))

    def test_rejects_non_integer_scan_points(self):
        for points in (2.5, 40.0):
            with pytest.raises(ValueError, match="scan_points"):
                optimize_delta(QualityQuery(n=3, mode=QualityMode.COVERING,
                                            scan_points=points))


def _pack(n, measure, omega, delta_range=(DELTA_MIN, DELTA_MAX)):
    return QualityQuery(n=n, mode=QualityMode.PACKING, measure=measure,
                        omega=omega, delta_range=delta_range)


def _cover(n, omega, delta_range=(DELTA_MIN, DELTA_MAX)):
    return QualityQuery(n=n, mode=QualityMode.COVERING, omega=omega,
                        delta_range=delta_range)


class TestOptimizeDeltaBreakpoints:
    """Optima at the branch breakpoints 1/sqrt(n+1), 1 and sqrt(n+1)
    are reported exactly, not refined down to noise."""

    def test_distance_packing_and_covering_exact(self):
        for n in (3, 4, 5):
            for omega in (0.0, 0.5):
                assert optimize_delta(_pack(n, DIST, omega)).delta_star \
                    == math.sqrt(n + 1.0)
                assert optimize_delta(_cover(n, omega)).delta_star \
                    == 1.0 / math.sqrt(n + 1.0)

    def test_2d_distance_pair_exact(self):
        res = optimize_delta(_pack(2, DIST, 0.25))
        assert res.ties == (1.0 / SQRT3, SQRT3)

    def test_2d_volume_exact(self):
        for omega in (0.05, 0.1):
            res = optimize_delta(_pack(2, VOL, omega, (0.05, 1.0)))
            assert res.delta_star == 1.0 / SQRT3
            assert res.ties == (1.0 / SQRT3,)

    def test_2d_volume_blunt_kink_is_one_tie(self):
        # just below the covering budget at 1/sqrt 3 both one-sided
        # slopes nearly vanish, and the refined peak settles about 1e-6
        # off the kink while tying it to 1e-13
        res = optimize_delta(_pack(2, VOL, 0.2, (0.05, 1.0)))
        assert res.ties == (1.0 / SQRT3,)
        assert not res.plateau

    def test_3d_volume_optimum_is_fcc(self):
        res = optimize_delta(_pack(3, VOL, 0.1))
        assert res.delta_star == 2.0
        assert res.ties == (2.0,)

    def test_breakpoint_outside_range_is_never_reported(self):
        # each optimum sits at a range end just short of a breakpoint,
        # well within DEDUPE_TOL of it
        cases = ((_pack(3, DIST, 0.25, (0.05, 2.0 - 1e-8)), 2.0),
                 (_cover(3, 0.25, (0.5 + 1e-8, 20.0)), 0.5),
                 (_pack(2, DIST, 0.25, (0.05, SQRT3 * (1.0 - 1e-9))),
                  SQRT3))
        for query, kink in cases:
            lo, hi = query.delta_range
            res = optimize_delta(query)
            assert lo <= res.delta_star <= hi
            assert all(lo <= t <= hi for t in res.ties), res
            assert any(abs(t - kink) < 1e-6 for t in res.ties), res

    def test_forty_points_match_four_hundred(self):
        queries = [q for n in (2, 3, 4, 5)
                   for omega in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)
                   for q in (_pack(n, DIST, omega), _cover(n, omega))]
        queries += [_pack(2, VOL, omega, delta_range)
                    for omega in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5,
                                  2.0)
                    for delta_range in ((0.05, 1.0), (DELTA_MIN, DELTA_MAX))]
        queries.append(_pack(3, VOL, 0.3))
        for query in queries:
            coarse = optimize_delta(query)
            fine = optimize_delta(query._replace(scan_points=400))
            assert abs(coarse.result.density - fine.result.density) \
                <= quality.TIE_TOL, query
            assert len(coarse.ties) == len(fine.ties), query
            assert coarse.plateau == fine.plateau, query


class TestCrossoverOmega:
    def test_crossover_location_and_level(self):
        omega_star = crossover_omega()
        assert 0.08 <= omega_star <= 0.12
        for delta in (0.5, 2.0):
            dens = qual_packing(DistortedLattice(3, delta), VOL,
                                omega_star).density
            assert 1.01 <= dens <= 1.05

    def test_order_flips_across_crossover(self):
        omega_star = crossover_omega()
        lo, hi = omega_star - 0.03, omega_star + 0.03
        bcc = DistortedLattice(3, 0.5)
        fcc = DistortedLattice(3, 2.0)
        assert (qual_packing(fcc, VOL, lo).density
                > qual_packing(bcc, VOL, lo).density)
        assert (qual_packing(fcc, VOL, hi).density
                < qual_packing(bcc, VOL, hi).density)

    def test_no_crossover_raises(self):
        with pytest.raises(NoCrossoverError):
            crossover_omega(omega_hi=0.05, grid=11)

    @pytest.mark.parametrize("tol", (0.0, -1.0, math.nan, math.inf))
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            crossover_omega(tol=tol)

    @pytest.mark.parametrize("grid", (1, 0, 11.0, True))
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(ValueError, match="grid"):
            crossover_omega(grid=grid)

    @pytest.mark.parametrize("omega_hi", (-0.5, 0.0, math.nan, math.inf))
    def test_rejects_bad_omega_hi(self, omega_hi):
        with pytest.raises(ValueError, match="omega_hi"):
            crossover_omega(omega_hi=omega_hi)
