"""Lattice family: basis, named lattices, radii branches, nearest distance."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from overlatt.lattice import (
    DistortedLattice,
    named_lattice,
    unit_ball_volume,
    packing_radius,
    covering_radius,
    shortest_vector_norm,
    nearest_distances,
)
from overlatt.geometry2d import (
    covering_overlap_2d,
    critical_radii_2d,
    vol_overlap_2d,
    voronoi_ball_area,
)
from overlatt.geometry3d import (
    build_cap_arrangement,
    cap_pair_intersection_volume,
    cap_triple_intersection_volume,
    critical_radii_3d,
    dual_radii_3d,
    spherical_cap_volume,
    vol_overlap_3d,
    voronoi_ball_volume_3d,
)
from overlatt.measures import (
    OverlapMeasure,
    density,
    dist_overlap,
    free_space,
    union_fraction,
    vol_overlap,
)
from overlatt.oracle import mc_union
from overlatt.quality import (
    QualityMode,
    QualityQuery,
    crossover_omega,
    density_derivative_2d,
    max_radius_for_overlap,
    optimize_delta,
    qual_covering,
    qual_packing,
)
from overlatt.verify import run_suite

TOL = 1e-9


class TestUnitBallVolume:
    def test_known_low_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=TOL)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=TOL)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=TOL)
        assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0, abs=TOL)

    def test_recurrence(self):
        # independent oracle: V_n = V_{n-2} * 2 pi / n
        v = {1: 2.0, 2: math.pi}
        for n in range(3, 12):
            v[n] = v[n - 2] * 2.0 * math.pi / n
        for n in range(1, 12):
            assert unit_ball_volume(n) == pytest.approx(v[n], rel=1e-14)
        assert unit_ball_volume(5) == pytest.approx(8.0 * math.pi ** 2 / 15.0,
                                                    abs=TOL)

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestDistortedLattice:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("delta", [0.05, 0.3, 1.0, 2.7, 20.0])
    def test_determinant_is_delta(self, n, delta):
        lat = DistortedLattice(n, delta)
        assert np.linalg.det(lat.basis) == pytest.approx(delta, rel=1e-12)

    def test_basis_columns(self):
        lat = DistortedLattice(3, 0.4)
        a = (0.4 - 1.0) / 3.0
        for i in range(3):
            col = lat.basis[:, i]
            expect = np.full(3, a)
            expect[i] += 1.0
            assert np.allclose(col, expect, atol=0)

    def test_basis_is_one_read_only_array(self):
        lat = DistortedLattice(3, 0.4)
        assert lat.basis is lat.basis
        with pytest.raises(ValueError):
            lat.basis[0, 0] = 2.0
        assert "basis" not in repr(lat)

    def test_equal_pairwise_inner_products(self):
        lat = DistortedLattice(4, 2.5)
        g = lat.basis.T @ lat.basis
        off = g[~np.eye(4, dtype=bool)]
        assert np.ptp(off) < 1e-15

    def test_inverse_basis(self):
        for n, delta in [(2, 0.1), (3, 1.0), (5, 7.0)]:
            lat = DistortedLattice(n, delta)
            assert np.allclose(lat.inverse_basis @ lat.basis, np.eye(n),
                               atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DistortedLattice(1, 1.0)
        with pytest.raises(ValueError):
            DistortedLattice(2, 0.0)
        with pytest.raises(ValueError):
            DistortedLattice(2, -0.5)
        with pytest.raises(ValueError):
            DistortedLattice(2, float("nan"))
        with pytest.raises(ValueError):
            DistortedLattice(2, float("inf"))

    @pytest.mark.parametrize("n", (2.5, 3.0, "3", True, np.float64(3)))
    def test_rejects_non_integer_dimension(self, n):
        with pytest.raises(ValueError, match="dimension"):
            DistortedLattice(n, 1.3)

    @pytest.mark.parametrize("delta", (True, False))
    def test_rejects_bool_distortion(self, delta):
        # True would otherwise build the cube
        with pytest.raises(ValueError, match="distortion"):
            DistortedLattice(3, delta)

    def test_numpy_integer_dimension_is_a_python_int(self):
        lat = DistortedLattice(np.int64(3), 1.3)
        assert type(lat.n) is int
        assert lat == DistortedLattice(3, 1.3)
        assert hash(lat) == hash(DistortedLattice(3, 1.3))


class TestNamedLattice:
    def test_resolutions(self):
        assert named_lattice("hexagonal").delta == pytest.approx(
            1.0 / math.sqrt(3.0))
        assert named_lattice("hexagonal").n == 2
        assert named_lattice("hexagonal-dual").delta == pytest.approx(
            math.sqrt(3.0))
        assert named_lattice("fcc") == DistortedLattice(3, 2.0)
        assert named_lattice("bcc") == DistortedLattice(3, 0.5)
        assert named_lattice("integer", n=4) == DistortedLattice(4, 1.0)

    def test_integer_needs_dimension(self):
        with pytest.raises(ValueError, match="explicit dimension"):
            named_lattice("integer")

    def test_dimension_conflicts(self):
        with pytest.raises(ValueError, match="dimension 3"):
            named_lattice("fcc", n=2)
        with pytest.raises(ValueError, match="unknown lattice name"):
            named_lattice("no-such-lattice")

    def test_to_lattice(self):
        lat = named_lattice("bcc")
        assert isinstance(lat, DistortedLattice)
        assert (lat.n, lat.delta) == (3, 0.5)


class TestPackingRadius:
    def test_examples(self):
        assert packing_radius(DistortedLattice(3, 1.0)) == pytest.approx(
            0.5, abs=TOL)
        assert packing_radius(DistortedLattice(3, 2.0)) == pytest.approx(
            math.sqrt(2.0) / 2.0, abs=TOL)
        assert packing_radius(DistortedLattice(2, 1.0 / math.sqrt(3.0))) \
            == pytest.approx(1.0 / math.sqrt(6.0), abs=TOL)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_branch_continuity(self, n):
        for b in (1.0 / math.sqrt(n + 1), math.sqrt(n + 1)):
            lo = packing_radius(DistortedLattice(n, b * (1 - 1e-13)))
            hi = packing_radius(DistortedLattice(n, b * (1 + 1e-13)))
            assert abs(lo - hi) < 1e-12

    def test_shortest_vector_is_twice_packing(self):
        for n, delta in [(3, 1.0), (3, 2.0), (2, math.sqrt(3.0)), (4, 0.3)]:
            lat = DistortedLattice(n, delta)
            assert shortest_vector_norm(lat) == 2.0 * packing_radius(lat)

    def test_shortest_vector_against_enumeration(self):
        # oracle: minimum norm over all coefficient vectors in {-2..2}^2
        for delta in [0.2, 1.0 / math.sqrt(3.0), 1.0, math.sqrt(3.0), 5.0]:
            lat = DistortedLattice(2, delta)
            best = math.inf
            for i in range(-2, 3):
                for j in range(-2, 3):
                    if i == 0 and j == 0:
                        continue
                    v = lat.basis @ np.array([i, j], float)
                    best = min(best, float(np.linalg.norm(v)))
            assert shortest_vector_norm(lat) == pytest.approx(best, abs=TOL)
        assert shortest_vector_norm(DistortedLattice(2, math.sqrt(3.0))) \
            == pytest.approx(math.sqrt(2.0), abs=TOL)

    def test_2d_scaling_duality(self):
        # middle branch: pack(2, d) / pack(2, 1/d) = d
        for d in np.linspace(1.0 / math.sqrt(3.0) + 0.01,
                             math.sqrt(3.0) - 0.01, 17):
            a = packing_radius(DistortedLattice(2, float(d)))
            b = packing_radius(DistortedLattice(2, 1.0 / float(d)))
            assert a / b == pytest.approx(d, abs=1e-12)


class TestCoveringRadius:
    def test_examples(self):
        assert covering_radius(DistortedLattice(3, 1.0)) == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=TOL)
        # oracle: direct evaluation of sqrt(8 + 11/4 + 8/16)/6
        assert covering_radius(DistortedLattice(3, 0.5)) == pytest.approx(
            math.sqrt(8.0 + 11.0 / 4.0 + 0.5) / 6.0, abs=TOL)
        assert covering_radius(DistortedLattice(3, 0.5)) == pytest.approx(
            math.sqrt(5.0) / 4.0, abs=TOL)
        assert covering_radius(DistortedLattice(2, 1.0 / math.sqrt(3.0))) \
            == pytest.approx(math.sqrt(2.0) / 3.0, abs=TOL)

    def test_2d_branch_equals_vertex_formula(self):
        # the 2D branch must agree with (delta^2 + 1) / (2 sqrt 2)
        for d in [0.1, 0.4, 1.0 / math.sqrt(3.0), 0.9, 1.0]:
            lat = DistortedLattice(2, d)
            assert covering_radius(lat) == pytest.approx(
                (d * d + 1.0) / (2.0 * math.sqrt(2.0)), abs=TOL)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_continuity_at_delta_one(self, n):
        lo = covering_radius(DistortedLattice(n, 1.0 - 1e-13))
        hi = covering_radius(DistortedLattice(n, 1.0 + 1e-13))
        assert abs(lo - hi) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_packing_below_covering(self, n):
        for d in np.geomspace(0.05, 20.0, 41):
            lat = DistortedLattice(n, float(d))
            assert packing_radius(lat) < covering_radius(lat)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_overflowing_delta_raises(self, n):
        # delta^2 overflows from about 1.34e154; odd and even n branch
        assert math.isfinite(covering_radius(DistortedLattice(n, 1e150)))
        with pytest.raises(OverflowError, match="delta"):
            covering_radius(DistortedLattice(n, 1e200))


VOL = OverlapMeasure.VOLUME_BASED


class TestSharedChecks:
    """Every entry point takes each kind of argument (distortion, radius,
    integer, budget, tolerance) through that kind's one check, so all
    accept and refuse the same values."""

    DELTA_ENTRIES = {
        "DistortedLattice": lambda d: DistortedLattice(3, d),
        "critical_radii_2d": lambda d: critical_radii_2d(d),
        "voronoi_ball_area": lambda d: voronoi_ball_area(d, 0.5),
        "vol_overlap_2d": lambda d: vol_overlap_2d(d, 0.5),
        "covering_overlap_2d": lambda d: covering_overlap_2d(d),
        "density_derivative_2d": lambda d: density_derivative_2d(d, 0.1),
        "build_cap_arrangement": lambda d: build_cap_arrangement(d),
        "voronoi_ball_volume_3d": lambda d: voronoi_ball_volume_3d(d, 0.5),
        "critical_radii_3d": lambda d: critical_radii_3d(d),
        "dual_radii_3d": lambda d: dual_radii_3d(d),
    }

    RADIUS_ENTRIES = {
        "voronoi_ball_area": lambda r: voronoi_ball_area(0.5, r),
        "vol_overlap_2d": lambda r: vol_overlap_2d(0.5, r),
        "spherical_cap_volume": lambda r: spherical_cap_volume(r, 0.1),
        "cap_pair_intersection_volume": lambda r: (
            cap_pair_intersection_volume(r, ((1, 0, 0), 0.1),
                                         ((0, 1, 0), 0.1))),
        "cap_triple_intersection_volume": lambda r: (
            cap_triple_intersection_volume(r, ((1, 0, 0), 0.1),
                                           ((0, 1, 0), 0.1),
                                           ((0, 0, 1), 0.1))),
        "voronoi_ball_volume_3d": lambda r: voronoi_ball_volume_3d(0.5, r),
        "union_fraction": lambda r: union_fraction(
            DistortedLattice(3, 0.5), r),
        "mc_union": lambda r: mc_union(DistortedLattice(3, 0.5), r,
                                       samples=10),
    }

    # entry -> (argument name in the message, call)
    INT_ENTRIES = {
        "DistortedLattice": ("dimension", lambda k: DistortedLattice(k, 0.5)),
        "named_lattice": ("dimension", lambda k: named_lattice("hexagonal", k)),
        "mc_union": ("samples", lambda k: mc_union(DistortedLattice(3, 0.5),
                                                   0.5, samples=k)),
        "crossover_omega": ("grid", lambda k: crossover_omega(grid=k)),
        "unit_ball_volume": ("dimension", unit_ball_volume),
        "run_suite samples": ("samples", lambda k: run_suite(
            "theorems", samples=k)),
        "run_suite seed": ("seed", lambda k: run_suite("theorems", seed=k)),
        "run_suite par": ("par", lambda k: run_suite("theorems", par=k)),
    }

    BUDGET_ENTRIES = {
        "qual_packing": lambda w: qual_packing(DistortedLattice(3, 0.5),
                                               VOL, w),
        "qual_covering": lambda w: qual_covering(DistortedLattice(3, 0.5), w),
        "max_radius_for_overlap": lambda w: max_radius_for_overlap(
            DistortedLattice(3, 0.5), VOL, w),
        "optimize_delta": lambda w: optimize_delta(
            QualityQuery(3, QualityMode.PACKING, VOL, omega=w)),
        "density_derivative_2d": lambda w: density_derivative_2d(0.5, w),
    }

    TOLERANCE_ENTRIES = {
        "crossover_omega omega_hi": ("omega_hi",
                                     lambda t: crossover_omega(omega_hi=t)),
        "optimize_delta delta_range": ("delta_range", lambda t: (
            optimize_delta(QualityQuery(3, QualityMode.COVERING,
                                        delta_range=(t, 2.0))))),
    }

    @pytest.mark.parametrize("entry", sorted(DELTA_ENTRIES))
    @pytest.mark.parametrize("delta", (True, -0.5, float("inf")))
    def test_one_distortion_check(self, entry, delta):
        # True would otherwise be taken as the cube's delta = 1
        with pytest.raises(ValueError, match=r"^distortion must be a finite "
                                             r"number > 0, got "):
            self.DELTA_ENTRIES[entry](delta)

    @pytest.mark.parametrize("entry", sorted(RADIUS_ENTRIES))
    @pytest.mark.parametrize("r", (True, -0.5, float("nan")))
    def test_one_radius_check(self, entry, r):
        with pytest.raises(ValueError, match=r"^radius must be finite and "
                                             r">= 0, got "):
            self.RADIUS_ENTRIES[entry](r)

    @pytest.mark.parametrize("entry", sorted(INT_ENTRIES))
    @pytest.mark.parametrize("k", (True, 2.5))
    def test_one_integer_check(self, entry, k):
        name, call = self.INT_ENTRIES[entry]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, "
                                             r"got "):
            call(k)

    # entry -> call with each real argument made by the constructor f
    FLOAT_ENTRIES = {
        "DistortedLattice delta": lambda f: DistortedLattice(3, f(2.0)).delta,
        "voronoi_ball_area": lambda f: voronoi_ball_area(f(0.7), f(0.5)),
        "vol_overlap_2d": lambda f: vol_overlap_2d(f(0.7), f(0.5)),
        "covering_overlap_2d": lambda f: covering_overlap_2d(f(0.7)),
        "spherical_cap_volume": lambda f: spherical_cap_volume(f(1.0),
                                                               f(0.3)),
        "cap_pair_intersection_volume": lambda f: (
            cap_pair_intersection_volume(f(1.0), ((1, 0, 0), f(0.3)),
                                         ((0, 1, 0), f(0.2)))),
        "cap_triple_intersection_volume": lambda f: (
            cap_triple_intersection_volume(f(1.0), ((1, 0, 0), f(0.3)),
                                           ((0, 1, 0), f(0.2)),
                                           ((0, 0, 1), f(0.1)))),
        # r between the nearest face and the covering radius
        "voronoi_ball_volume_3d": lambda f: voronoi_ball_volume_3d(f(0.7),
                                                                   f(0.6)),
        "vol_overlap_3d": lambda f: vol_overlap_3d(f(0.7), f(0.6)),
        "density": lambda f: density(DistortedLattice(3, f(0.7)), f(0.6)),
        "union_fraction n=2": lambda f: union_fraction(
            DistortedLattice(2, f(0.7)), f(0.5)),
        "union_fraction n=3": lambda f: union_fraction(
            DistortedLattice(3, f(0.7)), f(0.6)),
        "union_fraction n=4": lambda f: union_fraction(
            DistortedLattice(4, f(0.7)), f(0.1)),
        "vol_overlap": lambda f: vol_overlap(DistortedLattice(3, f(0.7)),
                                             f(0.6)),
        "dist_overlap": lambda f: dist_overlap(DistortedLattice(3, f(0.7)),
                                               f(0.6)),
        "free_space": lambda f: free_space(DistortedLattice(3, f(0.7)),
                                           f(0.6)),
        "max_radius_for_overlap": lambda f: max_radius_for_overlap(
            DistortedLattice(2, f(0.7)), VOL, f(0.1)),
        "qual_packing r": lambda f: qual_packing(
            DistortedLattice(3, f(0.7)), VOL, f(0.1)).r,
        "qual_covering r": lambda f: qual_covering(
            DistortedLattice(3, f(0.7)), f(0.1)).r,
        "density_derivative_2d": lambda f: density_derivative_2d(f(0.7),
                                                                 f(0.1)),
    }

    @pytest.mark.parametrize("entry", sorted(FLOAT_ENTRIES))
    def test_numpy_scalars_give_python_floats(self, entry):
        # a numpy scalar would run the closed form on numpy arithmetic
        # and come back as one
        got = self.FLOAT_ENTRIES[entry](np.float64)
        want = self.FLOAT_ENTRIES[entry](float)
        assert type(got) is float and type(want) is float
        assert got.hex() == want.hex()

    def test_numpy_integer_grid_gives_the_same_float(self):
        got = crossover_omega(grid=np.int64(11))
        assert type(got) is float
        assert got == crossover_omega(grid=11)

    @pytest.mark.parametrize("entry", sorted(BUDGET_ENTRIES))
    @pytest.mark.parametrize("omega", (True, -0.1, float("nan")))
    def test_one_budget_check(self, entry, omega):
        with pytest.raises(ValueError, match=r"^omega must be finite and "
                                             r">= 0, got "):
            self.BUDGET_ENTRIES[entry](omega)

    @pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRIES))
    @pytest.mark.parametrize("tol", (True, 0.0, float("inf")))
    def test_one_tolerance_check(self, entry, tol):
        name, call = self.TOLERANCE_ENTRIES[entry]
        with pytest.raises(ValueError, match=rf"^{name} must be a finite "
                                             r"number > 0, got "):
            call(tol)


class TestNearestLatticePoint:
    def test_integer_lattice_rounding(self):
        # (0.5, 0.5) is the deep hole, equally far from four points
        lat = DistortedLattice(2, 1.0)
        dist = nearest_distances(lat, [(0.4, 0.4), (0.5, 0.5)])
        assert dist == pytest.approx([math.sqrt(0.32), math.sqrt(0.5)],
                                     abs=TOL)

    def test_bisector_point_at_packing_radius(self):
        # equally far from the origin and column 1
        lat = DistortedLattice(3, 2.0)
        mid = 0.5 * lat.basis[:, 0]
        dist, = nearest_distances(lat, mid[None, :])
        assert dist == pytest.approx(packing_radius(lat), abs=TOL)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for n, delta in [(2, 0.3), (3, 0.5), (3, 2.0), (2, 5.0)]:
            lat = DistortedLattice(n, delta)
            coeffs = [np.arange(-6, 7)] * n
            grid = np.stack(np.meshgrid(*coeffs, indexing="ij"),
                            axis=-1).reshape(-1, n)
            pts_all = grid @ lat.basis.T
            p = (rng.random((20, n)) - 0.5) * 3.0
            brute = np.linalg.norm(pts_all[None, :, :] - p[:, None, :],
                                   axis=2).min(axis=1)
            assert nearest_distances(lat, p) == pytest.approx(brute,
                                                              abs=1e-12)

    def test_fundamental_domain_within_covering(self):
        # 1e5 seeded cell points all land within the covering radius
        rng = np.random.default_rng(17)
        lat = DistortedLattice(3, 0.5)
        u = rng.random((100_000, 3)) - 0.5
        pts = u @ lat.basis.T
        dists = nearest_distances(lat, pts)
        assert np.all(dists <= covering_radius(lat) + 1e-12)

    @pytest.mark.parametrize("n,delta", [(2, 0.05), (2, 20.0), (3, 0.05),
                                         (3, 20.0), (4, 0.1), (5, 12.0)])
    def test_extreme_delta_within_covering(self, n, delta):
        rng = np.random.default_rng(3)
        lat = DistortedLattice(n, delta)
        u = rng.random((2000, n)) - 0.5
        pts = u @ lat.basis.T
        dists = nearest_distances(lat, pts)
        assert np.all(dists <= covering_radius(lat) * (1 + 1e-12))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_distances_match_brute_force(self, n, brute_nearest):
        # coefficient rows spread over several cells, negative ones too
        rng = np.random.default_rng(60 + n)
        u = (rng.random((300, n)) - 0.5) * 5.0
        for delta in np.geomspace(0.05, 20.0, 7):
            lat = DistortedLattice(n, float(delta))
            pts = u @ lat.basis.T
            want = brute_nearest(lat, pts)
            np.testing.assert_allclose(nearest_distances(lat, pts) ** 2, want,
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_distances_at_ties_match_brute_force(self, n, brute_nearest):
        # points B c on a half-integer coefficient grid sit on cell faces,
        # edges and vertices, where several lattice points tie
        grid = np.array(list(itertools.product((-1.5, -0.5, 0.0, 0.5, 1.0),
                                               repeat=n)))
        for delta in (0.05, 1.0 / math.sqrt(n + 1), 0.5, 1.0, 2.0, 20.0):
            lat = DistortedLattice(n, delta)
            pts = grid @ lat.basis.T
            np.testing.assert_allclose(nearest_distances(lat, pts) ** 2,
                                       brute_nearest(lat, pts),
                                       rtol=0.0, atol=1e-12)

    def test_coefficients_at_rounding_edge(self, brute_nearest):
        # a coefficient of -1e-17 has fraction 1 - 1e-17, which rounds to 1
        edge = (-1e-17, 1e-17, 0.0, 0.5)
        for n, delta in [(2, 0.3), (3, 1.0), (3, 2.0), (4, 7.0)]:
            lat = DistortedLattice(n, delta)
            pts = np.array(list(itertools.product(edge, repeat=n))) \
                @ lat.basis.T
            np.testing.assert_allclose(nearest_distances(lat, pts) ** 2,
                                       brute_nearest(lat, pts),
                                       rtol=0.0, atol=1e-12)
        # the nearest point is the origin: the decoder's squared-distance
        # arithmetic leaves a few ulps, a wrong pick the packing radius
        lat = DistortedLattice(3, 0.5)
        dist, = nearest_distances(lat, (lat.basis @ np.full(3, -1e-17))[None])
        assert dist < 1e-12

    def test_decoder_memory_is_bounded(self):
        # a 5^8 window table alone takes 25 MB; the decoder about 0.3 MB
        lat = DistortedLattice(8, 0.7)
        rng = np.random.default_rng(5)
        pts = (rng.random((1000, 8)) - 0.5) @ lat.basis.T
        tracemalloc.start()
        try:
            dists = nearest_distances(lat, pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert np.all(dists <= covering_radius(lat) * (1 + 1e-12))

    @pytest.mark.parametrize("points", [
        [[float("nan"), 0.0]], [[0.0, 0.0], [float("inf"), 1.0]],
        [0.0, 0.0], [[0.0, 0.0, 0.0]], np.zeros((2, 2, 2))])
    def test_distances_reject_bad_points(self, points):
        with pytest.raises(ValueError):
            nearest_distances(DistortedLattice(2, 1.0), points)
