"""Tests for relaxed packing/covering quality and delta optimization."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from overlatt import geometry3d, measures, quality
from overlatt.geometry2d import covering_overlap_2d
from overlatt.geometry3d import voronoi_ball_volume_3d
from overlatt.lattice import (
    DELTA_MAX,
    DELTA_MIN,
    DistortedLattice,
    covering_radius,
    packing_radius,
    unit_ball_volume,
)
from overlatt.measures import (
    NoClosedFormError,
    OverlapMeasure,
    density,
    union_fraction,
    vol_overlap,
)
from overlatt.quality import (
    RADIUS_TOL,
    NoCrossoverError,
    OptimizeResult,
    QualityMode,
    QualityQuery,
    QualityResult,
    crossover_omega,
    density_derivative_2d,
    max_radius_for_overlap,
    optimize_delta,
    qual_covering,
    qual_packing,
)
from overlatt.verify import run_suite

import reference
from reference import mp, mpf

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

    def test_volume_measure_needs_two_or_three_dimensions(self):
        lat = DistortedLattice(4, 0.7)
        # a root past the covering radius, where the union is 1, too
        wide = DistortedLattice(4, 1.0)
        for call in (lambda: max_radius_for_overlap(lat, VOL, 0.1),
                     lambda: qual_packing(lat, VOL, 0.1),
                     lambda: optimize_delta(_pack(4, VOL, 0.1)),
                     lambda: qual_packing(wide, VOL, 10.0)):
            with pytest.raises(NoClosedFormError, match="n = 2 or 3") as exc:
                call()
            assert "samples=" not in str(exc.value)
        # a zero budget is the packing radius in any dimension
        assert max_radius_for_overlap(lat, VOL, 0.0) == packing_radius(lat)
        assert qual_packing(lat, VOL, 0.0).overlap == 0.0


def counted_overlap(n: int):
    """A mock that counts the inversion's overlap evaluations: the 2D
    overlap-and-slope helper for n = 2, vol_overlap for n = 3."""
    name = "_vol_overlap_and_slope" if n == 2 else "vol_overlap"
    return mock.patch.object(quality, name, wraps=getattr(quality, name))


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
        with counted_overlap(n) as counted:
            r = max_radius_for_overlap(lat, VOL, omega)
        assert vol_overlap(lat, r) <= omega < vol_overlap(lat, r + RADIUS_TOL)
        assert abs(r - bisection_radius(lat, omega)) <= 2.0 * RADIUS_TOL
        lo, hi, doubling = doubled_bracket(lat, omega)
        bisection = math.ceil(math.log2((hi - lo) / RADIUS_TOL))
        assert counted.call_count <= doubling + bisection + 1

    def test_step_overlap_keeps_the_bisection_bound(self):
        # a step has slope 0 on either side, so Newton never gets a
        # step and bisection keeps the worst case
        lat = DistortedLattice(2, 1.0)
        pack = packing_radius(lat)
        edge = 1.3 * pack

        def step_overlap(lat, r):
            return (0.0 if r <= edge else 1e6), 0.0

        with mock.patch.object(quality, "_vol_overlap_and_slope",
                               side_effect=step_overlap) as counted:
            r = max_radius_for_overlap(lat, VOL, 0.1)
        assert edge - RADIUS_TOL <= r <= edge
        bisection = math.ceil(math.log2(pack / RADIUS_TOL))
        assert counted.call_count <= 1 + bisection + 1

    def test_step_overlap_keeps_the_bisection_bound_3d(self):
        # on a step, regula falsi crawls from the low end; the projection
        # into the bisection-minmax interval keeps the worst case
        lat = DistortedLattice(3, 1.0)
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
        # bisection of these brackets takes 39-40 steps each; Newton on
        # the exact 2D slope takes at most 10, ITP at most 20 in 3D
        for n, delta, omega, bound in (
                (2, 0.8, 0.3, 10), (2, 3.0, 0.1, 10), (2, 0.4, 0.05, 10),
                (2, 1.0, 0.5, 10), (3, 0.5, 0.2, 20), (3, 2.0, 0.05, 20)):
            lat = DistortedLattice(n, delta)
            _, _, doubling = doubled_bracket(lat, omega)
            with counted_overlap(n) as counted:
                max_radius_for_overlap(lat, VOL, omega)
            assert counted.call_count - doubling <= bound, (n, delta, omega)

    def test_overlap_evaluation_budget(self):
        # a deterministic cost guard: the theorems pass evaluates the 2D
        # overlap 3,459 times under ITP and 1,862 times with Newton
        # steps; the 37 3D evaluations go through vol_overlap (272 while
        # crossover_omega bisected over nested inversions; its root now
        # reads union_fraction, which test_vol_overlap_call_budget counts)
        with counted_overlap(2) as flat, counted_overlap(3) as solid:
            assert run_suite("theorems").passed
        assert flat.call_count <= 2400
        assert solid.call_count == 37
        assert all(args[0].n == 3 for args, _ in solid.call_args_list)

    def test_union_evaluates_one_cap_per_face_distance(self):
        # a deterministic cost guard: each 3D union of the theorems pass
        # evaluates spherical_cap_volume once per distinct face distance
        # (1 to 5: faces of one orbit can lie an ulp apart), not per face
        inner = geometry3d._inclusion_exclusion
        counted_caps = mock.patch.object(
            geometry3d, "spherical_cap_volume",
            wraps=geometry3d.spherical_cap_volume)
        excess = []

        def counted(arr, r):
            before = caps.call_count
            vol = inner(arr, r)
            excess.append(caps.call_count - before - len(arr.face_distances))
            return vol

        with counted_caps as caps, mock.patch.object(
                geometry3d, "_inclusion_exclusion", side_effect=counted):
            assert run_suite("theorems").passed
        assert excess and max(excess) <= 0

    def test_past_the_covering_overlap_the_root_is_closed_form(self):
        # the bracket is the two floats around (delta (1 + omega) /
        # V_n)^(1/n), found in a few evaluations and no doubling
        for n, delta in ((2, 0.3), (2, 1.0), (2, 7.0), (3, 0.5), (3, 2.0)):
            lat = DistortedLattice(n, delta)
            omega = 1.5 * vol_overlap(lat, covering_radius(lat))
            with counted_overlap(n) as counted:
                r = max_radius_for_overlap(lat, VOL, omega)
            assert counted.call_count <= 4
            assert vol_overlap(lat, r) <= omega
            assert vol_overlap(lat, math.nextafter(r, math.inf)) > omega
            root = (delta * (1.0 + omega) / unit_ball_volume(n)) ** (1.0 / n)
            assert r == pytest.approx(root, rel=1e-15)


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

    def test_volume_measure_evaluates_the_union_once(self):
        lat = DistortedLattice(3, 2.0)
        r = max_radius_for_overlap(lat, VOL, 0.1)
        expect = QualityResult(
            delta=2.0, omega=0.1, r=r, density=density(lat, r),
            union=union_fraction(lat, r), overlap=vol_overlap(lat, r),
            mode="packing", measure="vol")
        with mock.patch.object(quality, "max_radius_for_overlap",
                               return_value=r), \
                mock.patch.object(measures, "voronoi_ball_volume_3d",
                                  wraps=voronoi_ball_volume_3d) as union:
            res = qual_packing(lat, VOL, 0.1)
        union.assert_called_once_with(2.0, r)
        assert res == expect

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
            assert omega_cov == pytest.approx(0.5, rel=1e-12)

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
        with pytest.raises(ValueError, match="measure"):
            optimize_delta(QualityQuery(n=3, mode=QualityMode.COVERING,
                                        measure=VOL, omega=0.1))

    def test_rejects_non_finite_delta_range(self):
        for delta_range in ((1.0, math.inf), (-math.inf, 1.0),
                            (0.1, math.nan)):
            with pytest.raises(ValueError, match="delta_range"):
                optimize_delta(QualityQuery(n=3, mode=QualityMode.COVERING,
                                            delta_range=delta_range))


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
        # the candidates alone against a 400-point scan that refines
        # every local maximum
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
            fine = refine_every_maximum(query, 400)
            assert abs(coarse.result.density - fine.result.density) \
                <= quality.TIE_TOL, query
            assert len(coarse.ties) == len(fine.ties), query
            assert coarse.plateau == fine.plateau, query

    def test_objective_is_monotone_between_breakpoints(self):
        # optimize_delta evaluates only the range ends and the
        # breakpoints because each objective rises, falls, rises and
        # falls on the four branches; 3D volume budgets above the least
        # covering overlap are checked off their plateau, and the 2D
        # volume measure by the sign of its exact slope (below)
        queries = [q for n in (2, 3, 4, 5) for omega in (0.0, 0.5)
                   for q in (_pack(n, DIST, omega), _cover(n, omega))]
        queries += [_pack(3, VOL, FLAT[3] * s) for s in (0.3, 0.9, 1.1, 2.0)]
        for query in queries:
            plateau = quality._plateau_optimum(query)
            ranges = plateau.plateau_ranges if plateau else ()
            edges = (DELTA_MIN, *quality._breakpoints(query.n), DELTA_MAX)
            for j, (a, b) in enumerate(zip(edges, edges[1:])):
                deltas = [d for d in np.geomspace(a, b, 302)[1:-1]
                          if not any(lo <= d <= hi for lo, hi in ranges)]
                values = [quality._objective(query, d) for d in deltas]
                sign = 1.0 if j % 2 == 0 else -1.0
                for i in range(len(values) - 1):
                    assert sign * (values[i + 1] - values[i]) \
                        >= -1e-10 * abs(values[i]), (query, deltas[i])

    def test_2d_volume_slope_has_the_claimed_sign(self):
        # the 2D volume objective's exact delta-slope is > 0 below
        # 1/sqrt 3 and < 0 above it on (0, 1), at 600 deltas x 11
        # budgets below each covering overlap.  The objective takes the
        # same value at delta and 1/delta, so its slope at 1/delta is
        # -delta^2 times the slope at delta: it rises on (1, sqrt 3) and
        # falls beyond, as the breakpoints claim
        for delta in np.geomspace(DELTA_MIN, 1.0, 601)[:-1]:
            delta = float(delta)
            claimed = 1.0 if delta < 1.0 / SQRT3 else -1.0
            cover = covering_overlap_2d(delta)
            for frac in np.linspace(0.0, 1.0, 13)[1:-1]:
                omega = float(frac) * cover
                slope = density_derivative_2d(delta, omega)
                assert claimed * slope > 0.0, (delta, omega, slope)
        for delta in np.geomspace(DELTA_MIN, 1.0, 31)[:-1]:
            for frac in np.linspace(0.0, 1.0, 13)[1:-1]:
                query = _pack(2, VOL, float(frac) * covering_overlap_2d(delta))
                assert quality._objective(query, 1.0 / delta) \
                    == pytest.approx(quality._objective(query, delta),
                                     rel=1e-9, abs=0.0)

    @settings(max_examples=60)
    @given(n=st.sampled_from((2, 3)),
           kind=st.sampled_from(("dist", "vol", "covering")),
           omega=st.floats(0.0, 0.95),
           ends=st.lists(st.floats(math.log(DELTA_MIN), math.log(DELTA_MAX)),
                         min_size=2, max_size=2, unique=True),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=32, max_size=32))
    def test_optimum_is_a_candidate_and_beats_drawn_deltas(
            self, n, kind, omega, ends, fracs):
        lo, hi = sorted(math.exp(e) for e in ends)
        assume(lo < hi)
        query = (_cover(n, omega, (lo, hi)) if kind == "covering" else
                 _pack(n, DIST if kind == "dist" else VOL, omega, (lo, hi)))
        res = optimize_delta(query)
        assert res.delta_star in (lo, hi, *quality._breakpoints(n)) or any(
            a <= res.delta_star <= b for a, b in res.plateau_ranges), res
        best = quality._objective(query, res.delta_star)
        for frac in fracs:
            delta = min(max(lo * (hi / lo) ** frac, lo), hi)
            assert best >= quality._objective(query, delta) \
                - quality.TIE_TOL, (query, delta)


def golden_max(f, a, b, tol=1e-11):
    """Golden-section maximum of f on [a, b] to |d delta| < tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def refine_every_maximum(query, m):
    """Reference optimize_delta: the same closed-form plateau path, then
    a log-spaced scan of m deltas with the breakpoints in delta_range
    added as exact candidates, every local maximum of the scan
    golden-section refined over its two neighbours, and a refinement
    that does not beat a breakpoint in that bracket by more than TIE_TOL
    reported as the breakpoint."""
    res = quality._plateau_optimum(query)
    if res is not None:
        return res
    TIE_TOL, DEDUPE_TOL = quality.TIE_TOL, quality.DEDUPE_TOL
    lo, hi = query.delta_range
    f = lambda d: quality._objective(query, d)
    kinks = [b for b in quality._breakpoints(query.n) if lo <= b <= hi]
    xs = sorted({lo, hi, *kinks,
                 *(lo * (hi / lo) ** (i / (m - 1)) for i in range(1, m - 1))})
    fs = [f(x) for x in xs]
    kink_at = {b: xs.index(b) for b in kinks}

    candidates = [(k, fs[i]) for k, i in kink_at.items()]
    for i in range(len(xs)):
        if (i == 0 or fs[i] >= fs[i - 1]) \
                and (i == len(xs) - 1 or fs[i] >= fs[i + 1]):
            a, b = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
            d, v = golden_max(f, a, b)
            snap = [(k, fs[j]) for k, j in kink_at.items()
                    if a <= k <= b and v <= fs[j] + TIE_TOL]
            candidates.append(snap[0] if snap else (d, v))

    best = max(v for _, v in candidates)
    ties = []
    for d in sorted(d for d, v in candidates if v >= best - TIE_TOL):
        if not ties or d - ties[-1] > DEDUPE_TOL:
            ties.append(d)
    delta_star = max((dv for dv in candidates if dv[1] >= best - TIE_TOL),
                     key=lambda dv: (dv[1], -dv[0]))[0]
    return OptimizeResult(delta_star, quality._evaluate(query, delta_star),
                          tuple(ties), False, ())


def _equivalence_queries():
    ranges = ((DELTA_MIN, DELTA_MAX), (0.05, 1.0), (0.3, 3.0), (1.0, 20.0))
    queries = []
    for n in (2, 3, 4):
        for omega in (0.0, 0.1, 0.2, 0.5):
            queries += [_pack(n, DIST, omega, rg) for rg in ranges]
            queries += [_cover(n, omega, rg) for rg in ranges]
    queries += [_pack(2, VOL, omega, rg) for omega in (0.05, 0.1, 0.2, 0.21,
                                                       0.5, 1.0)
                for rg in ranges]
    queries += [_pack(3, VOL, omega, rg) for omega in (0.1, 0.3)
                for rg in ranges]
    queries.append(_pack(4, VOL, 0.0))
    return queries


class TestOptimizeDeltaSkipsBreakpointRefinement:
    """Evaluating only the range ends and the breakpoints reports what a
    scan that golden-section refines every local maximum reports."""

    def test_matches_refining_every_maximum(self):
        # 13 scan points put two breakpoints in one bracket
        for query in _equivalence_queries():
            for m in (40, 13):
                assert repr(optimize_delta(query)) \
                    == repr(refine_every_maximum(query, m)), (query, m)

    def test_objective_call_budget(self, monkeypatch):
        # a deterministic cost guard: refining every scan maximum takes
        # 5,252 objective evaluations per theorems pass, a 40-point scan
        # 1,676, and the candidates alone 172
        calls = []
        objective = quality._objective

        def counted(query, delta):
            calls.append(delta)
            return objective(query, delta)

        monkeypatch.setattr(quality, "_objective", counted)
        assert run_suite("theorems").passed
        assert len(calls) <= 200

    def test_v_shaped_top_at_the_breakpoint_is_not_refined(self,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(quality, "_objective", lambda query, d: (
            calls.append(d) or -abs(d - SQRT3)))
        res = optimize_delta(_pack(2, DIST, 0.0))
        assert res.delta_star == SQRT3
        assert res.ties == (SQRT3,)
        assert calls == [DELTA_MIN, *quality._breakpoints(2), DELTA_MAX]


# the least covering overlap, at the hexagonal lattice and at BCC: the
# volume-measure optimum is flat for every budget above it
FLAT = {2: covering_overlap_2d(1.0 / SQRT3), 3: BCC_COVER_DENSITY - 1.0}


def covering_density_40(n, delta):
    """Covering density of L_delta to 40 digits: the covering radius is
    the 2D vertex radius (delta > 1 by the mirror delta R(1/delta)) and
    the largest vertex norm of the 3D cell."""
    if n == 2:
        radius = (reference._radii_2d(delta)[2] if delta <= 1
                  else delta * reference._radii_2d(1 / delta)[2])
        return mp.pi * radius ** 2 / delta
    radius = max(mp.sqrt(a * a + h * h + k * k)
                 for a, h, k, _ in reference.cell_3d(delta))
    return 4 * mp.pi * radius ** 3 / (3 * delta)


class TestPlateaus:
    """Volume-measure packing is flat at its optimum on {delta :
    covering density <= 1 + omega}, read off the closed form."""

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("excess", (1e-6, 1e-4, 1e-3, 0.02, 0.3))
    def test_reported_above_the_least_covering_overlap(self, monkeypatch,
                                                       n, excess):
        calls = []
        objective = quality._objective
        monkeypatch.setattr(quality, "_objective", lambda query, d: (
            calls.append(d) or objective(query, d)))
        omega = FLAT[n] + excess
        res = optimize_delta(_pack(n, VOL, omega))
        assert res.plateau
        assert any(lo < 1.0 / math.sqrt(n + 1.0) < hi
                   for lo, hi in res.plateau_ranges), res
        assert res.result.delta == res.delta_star
        assert res.result.density == pytest.approx(1.0 + omega, abs=1e-9)
        assert calls == []

    @pytest.mark.parametrize("n", (2, 3))
    def test_none_below_the_least_covering_overlap(self, n):
        res = optimize_delta(_pack(n, VOL, FLAT[n] - 1e-9))
        assert not res.plateau
        assert res.plateau_ranges == ()

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("omega", (0.5, 1.0))
    def test_edges_match_the_40_digit_root(self, n, omega):
        res = optimize_delta(_pack(n, VOL, omega))
        edges = [edge for rg in res.plateau_ranges for edge in rg]
        assert edges and not {DELTA_MIN, DELTA_MAX} & set(edges)
        for edge in edges:
            root = mp.findroot(
                lambda d: covering_density_40(n, d) - 1 - mpf(omega),
                mpf(edge))
            assert abs(edge - root) <= 1e-12 * root, (edge, root)


def full_crossover(n=3, delta_a=0.5, delta_b=2.0, omega_hi=0.5, tol=1e-6,
                   grid=51):
    """Reference crossover: the same scan and bisection as crossover_omega,
    each sign read from the full qual_packing density difference."""
    lat_a = DistortedLattice(n, delta_a)
    lat_b = DistortedLattice(n, delta_b)

    def diff(omega):
        return (qual_packing(lat_b, VOL, omega).density
                - qual_packing(lat_a, VOL, omega).density)

    omegas = [omega_hi * i / (grid - 1) for i in range(grid)]
    values = [diff(w) for w in omegas]
    flips = [i for i in range(len(values) - 1)
             if values[i] > 0.0 >= values[i + 1]
             or values[i] < 0.0 <= values[i + 1]]
    if len(flips) != 1:
        raise NoCrossoverError(f"found {len(flips)}")
    lo, hi = omegas[flips[0]], omegas[flips[0] + 1]
    flo = values[flips[0]]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = diff(mid)
        if (flo > 0.0) == (fmid > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crossover_40():
    """The BCC-FCC crossover budget to 40 digits: mpmath's root of the
    union difference of tests/reference.py's volume_3d at equal density,
    bracketed where the float root lies, then BCC's overlap there."""
    k = mp.cbrt(4)

    def g(r):
        return (reference.volume_3d(2.0, k * r) / 2
                - reference.volume_3d(0.5, r) * 2)

    r = mp.findroot(g, (mpf("0.48"), mpf("0.5")), solver="anderson")
    return (4 * mp.pi / 3 * r ** 3 - reference.volume_3d(0.5, r)) * 2


class TestCrossoverMatchesFullDifference:
    """The equal-density root lies within the old bisection tolerance of
    the scan-and-bisection reference, and raises where it raises."""

    @pytest.mark.parametrize("kwargs", (
        {}, {"grid": 11}, {"grid": 101, "omega_hi": 1.0}, {"delta_a": 0.7},
        {"omega_hi": 0.3, "grid": 7},
        # a 2D crossover, scanned below the tie where both cover space
        {"n": 2, "delta_a": 0.4, "delta_b": 1.2, "omega_hi": 0.3},
        # the lattices swapped, so g rises through the root
        {"delta_a": 2.0, "delta_b": 0.5}))
    def test_within_tol_of_full_crossover(self, kwargs):
        # full_crossover bisects to tol = 1e-6 around the same root
        assert abs(crossover_omega(**kwargs) - full_crossover(**kwargs)) \
            <= 1e-6

    @pytest.mark.parametrize("kwargs", (
        {"omega_hi": 0.05, "grid": 11},
        {"delta_a": 2.0},
        # past both covering radii both unions are 1, so g is exactly 0:
        # a tie, not a crossover (the reference reads rounding noise in
        # the density difference there)
        {"n": 2, "delta_a": 1.0 / SQRT3, "delta_b": 1.0, "omega_hi": 1.0},
        # a overtakes b at 0.165, then both cover space and tie: the
        # leader changes twice
        {"n": 2, "delta_a": 0.4, "delta_b": 1.2, "omega_hi": 1.0}))
    def test_both_raise_no_crossover(self, kwargs):
        with pytest.raises(NoCrossoverError):
            crossover_omega(**kwargs)
        with pytest.raises(NoCrossoverError):
            full_crossover(**kwargs)

    def test_vol_overlap_call_budget(self, monkeypatch):
        # a deterministic cost guard on union evaluations: the scan takes
        # 102, the ITP steps 16, the one inversion 2 and the answer 1;
        # the old bisection over nested inversions took 238 overlap calls
        calls = []
        union = measures.union_fraction

        def counted(lat, r):
            calls.append((lat.delta, r))
            return union(lat, r)

        def no_union(lat, r):
            raise AssertionError("crossover_omega evaluated a union column")

        monkeypatch.setattr(quality, "union_fraction", counted)
        monkeypatch.setattr(measures, "union_fraction", counted)
        monkeypatch.setattr(quality, "_union_or_nan", no_union)
        crossover_omega()
        assert len(calls) <= 140


class TestOverlapBrackets:
    @pytest.mark.parametrize("n, delta, omega", (
        (2, 0.4, 0.05), (2, 1.0, 0.7), (2, 3.0, 0.1), (3, 0.5, 0.2),
        (3, 2.0, 0.05), (3, 1.805, 0.00687), (3, 0.7, 1.5)))
    def test_brackets_nest_and_end_at_the_inverted_radius(self, n, delta,
                                                          omega):
        lat = DistortedLattice(n, delta)
        pack = packing_radius(lat)
        brackets = list(quality._volume_brackets(lat, omega))
        assert brackets
        prev_lo, prev_hi = pack, math.inf
        for lo, hi in brackets:
            assert prev_lo <= lo < hi <= prev_hi
            assert lo == pack or vol_overlap(lat, lo) <= omega
            assert omega < vol_overlap(lat, hi)
            prev_lo, prev_hi = lo, hi
        assert brackets[-1][0] == max_radius_for_overlap(lat, VOL, omega)

    # the radii of a fresh inversion, so that no bit changes unseen: the
    # 3D ones as the memo-less ITP inversion gave them, the 2D ones as
    # the Newton steps give them (0.4: 5.0e-13 below the 40-digit root,
    # 3.0e-13 above the ITP radius); omega 1e9 lies past the covering
    # overlap, where the closed-form start gives the largest float
    # within budget, the ITP radius too
    PINNED = {
        (2, 0.4, 0.05): "0x1.4f70e327606fep-2",
        (2, 1.0, 1e9): "0x1.16c4f6f562d16p+14",
        (3, 0.5, 0.2): "0x1.0ac380ec7d45bp-1",
        (3, 1.805, 0.00687): "0x1.62cf26648ac56p-1",
    }

    @pytest.mark.parametrize("n, delta, omega", PINNED)
    def test_empty_memo_changes_no_bit(self, n, delta, omega):
        r = max_radius_for_overlap(DistortedLattice(n, delta), VOL, omega)
        assert r == float.fromhex(self.PINNED[n, delta, omega])


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

    def test_matches_the_40_digit_root(self):
        root = crossover_40()
        assert abs(crossover_omega() - root) <= 1e-13 * root

    def test_order_flips_at_the_root(self):
        # the root is exact to far under the qualities' own gap at
        # 1e-9 relative from it
        omega_star = crossover_omega()
        bcc = DistortedLattice(3, 0.5)
        fcc = DistortedLattice(3, 2.0)
        for scale, sign in ((1.0 - 1e-9, 1.0), (1.0 + 1e-9, -1.0)):
            omega = omega_star * scale
            gap = (qual_packing(fcc, VOL, omega).density
                   - qual_packing(bcc, VOL, omega).density)
            assert sign * gap > 0.0, (scale, gap)

    def test_no_crossover_raises(self):
        with pytest.raises(NoCrossoverError):
            crossover_omega(omega_hi=0.05, grid=11)

    @pytest.mark.parametrize("grid", (1, 0, 11.0, True))
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(ValueError, match="grid"):
            crossover_omega(grid=grid)

    @pytest.mark.parametrize("omega_hi", (-0.5, 0.0, math.nan, math.inf))
    def test_rejects_bad_omega_hi(self, omega_hi):
        with pytest.raises(ValueError, match="omega_hi"):
            crossover_omega(omega_hi=omega_hi)
