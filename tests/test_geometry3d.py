"""Tests for the 3D cell-ball volume machinery."""

import collections
import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from overlatt import geometry3d
from overlatt.cli import main as cli_main
from overlatt.geometry3d import (
    _CATALOG,
    _ISOMETRIES,
    CATALOG_COUNTS,
    Edge,
    Plane,
    TermOrbit,
    Vertex,
    build_cap_arrangement,
    cap_pair_intersection_volume,
    cap_triple_intersection_volume,
    critical_radii_3d,
    dual_radii_3d,
    ordering_regime,
    spherical_cap_volume,
    vol_overlap_3d,
    voronoi_ball_volume_3d,
    _activation_radius,
    _build_arrangement,
    _coeff_type,
    _image,
    _inclusion_exclusion,
    _line_foot,
    _pair_checks,
    _regime_tables,
    _span_fit,
    _triple_checks,
)
from overlatt.lattice import (
    DistortedLattice,
    covering_radius,
    packing_radius,
    unit_ball_volume,
)
from overlatt.oracle import mc_union, mc_volume_region

V3 = unit_ball_volume(3)
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestCriticalRadii3D:
    def test_cube_values(self):
        rad = critical_radii_3d(1.0)
        assert rad.r1 == pytest.approx(0.5, abs=1e-15)
        assert rad.r2 == pytest.approx(1.0 / SQRT2, abs=1e-15)
        assert rad.r3 == pytest.approx(SQRT3 / 2.0, abs=1e-15)
        assert rad.r4 == pytest.approx(1.0 / SQRT2, abs=1e-15)
        assert rad.r5 == pytest.approx(SQRT3 / 2.0, abs=1e-15)
        assert rad.r6 == pytest.approx(SQRT3 / 2.0, abs=1e-15)

    def test_half_gives_r1_equals_r3(self):
        rad = critical_radii_3d(0.5)
        assert rad.r1 == pytest.approx(SQRT3 / 4.0, abs=1e-15)
        assert rad.r3 == pytest.approx(SQRT3 / 4.0, abs=1e-15)

    def test_r2_equals_r3_at_sqrt_two_fifths(self):
        rad = critical_radii_3d(math.sqrt(2.0 / 5.0))
        assert rad.r2 == pytest.approx(rad.r3, abs=1e-15)

    def test_r6_is_covering_radius(self):
        for delta in np.geomspace(0.05, 1.0, 17):
            rad = critical_radii_3d(float(delta))
            cov = covering_radius(DistortedLattice(3, float(delta)))
            assert rad.r6 == pytest.approx(cov, abs=1e-14)

    def test_catalog_counts(self):
        assert CATALOG_COUNTS == (6, 6, 2, 18, 18, 24)

    def test_rejects_out_of_branch(self):
        for bad in (0.0, -0.5, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                critical_radii_3d(bad)

    def test_dual_radii(self):
        dr = dual_radii_3d(2.0)
        assert dr.s1 == pytest.approx(SQRT3 / 2.0, abs=1e-15)
        assert dr.s2 == pytest.approx(1.0, abs=1e-15)
        for delta in (1.0, 1.3, 4.0, 10.0):
            dr = dual_radii_3d(delta)
            cov = covering_radius(DistortedLattice(3, delta))
            assert dr.s2 == pytest.approx(cov, abs=1e-13)
            if delta > 1.0:
                assert dr.s1 < dr.s2
        assert dual_radii_3d(1.0).s1 == pytest.approx(dual_radii_3d(1.0).s2)
        with pytest.raises(ValueError):
            dual_radii_3d(0.9)


class TestOrderingRegime:
    def test_examples(self):
        assert ordering_regime(0.3) == 1
        assert ordering_regime(0.6) == 2
        assert ordering_regime(0.65) == 3
        assert ordering_regime(0.9) == 4
        assert ordering_regime(1.0) == 4

    def test_boundaries_tie_to_lower(self):
        assert ordering_regime(0.5) == 1
        assert ordering_regime(math.sqrt(2.0 / 5.0)) == 2

    def test_threshold_between_3_and_4(self):
        # root of 12 d^4 - 114 d^2 + 48 = 0 in (0, 1)
        droot = math.sqrt(19.0 / 4.0 - 0.75 * math.sqrt(33.0))
        assert ordering_regime(droot * 0.999) == 3
        assert ordering_regime(droot * 1.001) == 4

    def test_claimed_order_holds(self):
        orders = {1: "r3 r1 r2 r5 r4 r6", 2: "r1 r3 r2 r4 r5 r6",
                  3: "r1 r2 r3 r4 r5 r6", 4: "r1 r2 r4 r3 r5 r6"}
        for delta in np.linspace(0.05, 1.0, 39):
            rad = critical_radii_3d(float(delta))
            seq = [getattr(rad, name)
                   for name in orders[ordering_regime(float(delta))].split()]
            assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))


class TestSphericalCapVolume:
    def test_hemisphere(self):
        assert spherical_cap_volume(1.0, 0.0) == pytest.approx(
            2.0 * math.pi / 3.0, abs=1e-15)

    def test_empty_and_full(self):
        assert spherical_cap_volume(1.0, 1.0) == 0.0
        assert spherical_cap_volume(1.0, 2.0) == 0.0
        assert spherical_cap_volume(1.0, -1.0) == pytest.approx(
            4.0 * math.pi / 3.0, abs=1e-15)

    def test_complement_identity(self):
        # cap(d) + cap(-d) = ball
        for d in (0.1, 0.4, 0.77):
            total = (spherical_cap_volume(1.0, d)
                     + spherical_cap_volume(1.0, -d))
            assert total == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            spherical_cap_volume(-1.0, 0.0)
        with pytest.raises(ValueError):
            spherical_cap_volume(math.nan, 0.0)

    def test_rejects_nan_distance(self):
        with pytest.raises(ValueError, match="NaN"):
            spherical_cap_volume(1.0, math.nan)


EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


class TestCapPair:
    def test_quarter_ball(self):
        v = cap_pair_intersection_volume(1.0, (EX, 0.0), (EY, 0.0))
        assert v == pytest.approx(math.pi / 3.0, abs=1e-14)

    def test_wedge(self):
        # planes through the center at angle gamma bound a wedge of
        # dihedral angle pi - gamma
        for gamma in (0.3, 1.0, 2.2):
            n2 = np.array([math.cos(gamma), math.sin(gamma), 0.0])
            v = cap_pair_intersection_volume(1.0, (EX, 0.0), (n2, 0.0))
            assert v == pytest.approx(2.0 * (math.pi - gamma) / 3.0,
                                      rel=1e-12)

    def test_nested_returns_deeper_cap(self):
        near = np.array([math.cos(0.05), math.sin(0.05), 0.0])
        v = cap_pair_intersection_volume(1.0, (EX, 0.2), (near, 0.7))
        assert v == spherical_cap_volume(1.0, 0.7)

    def test_disjoint_is_zero(self):
        opp = np.array([math.cos(2.8), math.sin(2.8), 0.0])
        assert cap_pair_intersection_volume(
            1.0, (EX, 0.6), (opp, 0.6)) == 0.0

    def test_opposite_facets_are_empty(self):
        assert cap_pair_intersection_volume(1.0, (EX, 0.4), (-EX, 0.4)) == 0.0

    def test_antiparallel_slab(self):
        v = cap_pair_intersection_volume(1.0, (EX, -0.3), (-EX, -0.5))
        expect = (spherical_cap_volume(1.0, -0.3)
                  - spherical_cap_volume(1.0, 0.5))
        assert v == pytest.approx(expect, rel=1e-14)

    def test_swap_invariance(self):
        n2 = np.array([0.6, 0.8, 0.0])
        a = cap_pair_intersection_volume(1.0, (EX, 0.2), (n2, 0.35))
        b = cap_pair_intersection_volume(1.0, (n2, 0.35), (EX, 0.2))
        assert a == pytest.approx(b, rel=1e-15)

    def test_plane_outside_ball_is_zero(self):
        assert cap_pair_intersection_volume(1.0, (EX, 1.2), (EY, 0.1)) == 0.0

    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            cap_pair_intersection_volume(1.0, (2.0 * EX, 0.1), (EY, 0.1))

    def test_rejects_nan_normal(self):
        nan = np.array([math.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="unit"):
            cap_pair_intersection_volume(1.0, (nan, 0.1), (EY, 0.1))
        with pytest.raises(ValueError, match="unit"):
            cap_pair_intersection_volume(1.0, (EX, 0.1), (nan, 0.1))

    def test_rejects_normals_without_three_components(self):
        # two unit 4-vectors used to give a volume (1.18), a 2-vector an
        # IndexError
        with pytest.raises(ValueError, match="3-vectors"):
            cap_pair_intersection_volume(1.0, ((0.0, 0.0, 0.0, 1.0), 0.2),
                                         ((0.0, 1.0, 0.0, 0.0), 0.3))
        for bad in ((0.0, 0.0, 0.0, 1.0), (0.0, 1.0)):
            for planes in (((bad, 0.2), (EY, 0.3)), ((EY, 0.3), (bad, 0.2))):
                with pytest.raises(ValueError, match="3-vectors"):
                    cap_pair_intersection_volume(1.0, *planes)

    def test_rejects_nan_distance(self):
        with pytest.raises(ValueError, match="NaN"):
            cap_pair_intersection_volume(1.0, (EX, math.nan), (EY, 0.1))
        with pytest.raises(ValueError, match="NaN"):
            cap_pair_intersection_volume(1.0, (EX, 0.1), (EY, np.nan))

    def test_against_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(3):
            n1 = rng.normal(size=3)
            n1 /= np.linalg.norm(n1)
            n2 = rng.normal(size=3)
            n2 /= np.linalg.norm(n2)
            d1, d2 = rng.uniform(0.05, 0.5, size=2)
            closed = cap_pair_intersection_volume(1.0, (n1, d1), (n2, d2))
            est = mc_volume_region(1.0, [(n1, d1), (n2, d2)],
                                   samples=300_000, seed=400 + trial)
            assert abs(closed - est.mean) <= 3.5 * max(est.std_error, 1e-9)


# band vertex cones for delta > 1: the diagonal apex and one of the six
# other three-valent vertices, as face coefficient vectors
APEX = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
SIDE = ((1, -1, 0), (1, 0, -1), (1, 0, 0))

# (delta, cone, f, volume) with r = s1 + f * (s2 - s1), as computed by
# the adaptive slice integral (scipy quad, epsrel 1e-10) that the closed
# form replaced
BAND_VALUES = (
    (1.2, APEX, 0.25, 4.009787372202067e-06),
    (1.2, APEX, 0.5, 3.1526898712590596e-05),
    (1.2, APEX, 0.9, 0.00017925366383382606),
    (1.2, SIDE, 0.3, 0.000317674790014737),
    (1.2, SIDE, 0.7, 0.0013423095583560702),
    (1.5, APEX, 0.25, 3.477495874725551e-05),
    (1.5, APEX, 0.5, 0.0002664904722132767),
    (1.5, APEX, 0.9, 0.0014667398487665912),
    (1.5, SIDE, 0.3, 0.00018424236381999967),
    (1.5, SIDE, 0.7, 0.001792827478089223),
    (2.0, APEX, 0.25, 0.00011772307179370203),
    (2.0, APEX, 0.5, 0.000870574240733625),
    (2.0, APEX, 0.9, 0.004600358806149844),
    (2.0, SIDE, 0.3, 0.00019997039748511467),
    (2.0, SIDE, 0.7, 0.0022663436990378112),
    (3.0, APEX, 0.25, 0.00023491552101950324),
    (3.0, APEX, 0.5, 0.001661285805508624),
    (3.0, APEX, 0.9, 0.008359006040865237),
    (3.0, SIDE, 0.3, 0.00021283723195581565),
    (3.0, SIDE, 0.7, 0.0023313647738423464),
)

# the same integral close to the apex, where the volume is tiny
NEAR_APEX_VALUES = (
    (1.2, APEX, 0.1, 2.5947117024192896e-07),
    (1.5, APEX, 0.1, 2.2914282952666536e-06),
    (2.0, APEX, 0.1, 7.974868189051289e-06),
    (3.0, APEX, 0.1, 1.6517449116626777e-05),
)


def _face_plane(lat, coeffs):
    p = lat.basis @ np.array(coeffs, dtype=float)
    nrm = float(np.linalg.norm(p))
    return (p / nrm, nrm / 2.0)


def _band_volume(delta, cone, frac):
    lat = DistortedLattice(3, delta)
    dr = dual_radii_3d(delta)
    r = dr.s1 + frac * (dr.s2 - dr.s1)
    return cap_triple_intersection_volume(
        r, *[_face_plane(lat, c) for c in cone])


class TestCapTriple:
    def test_octant(self):
        v = cap_triple_intersection_volume(
            1.0, (EX, 0.0), (EY, 0.0), (EZ, 0.0))
        assert v == pytest.approx(math.pi / 6.0, abs=1e-9)

    def test_containment_short_circuit_is_exact(self):
        # the pair-sum face cap contains the lens of its two column caps
        # for delta <= 1; the triple must return the pair volume bitwise
        for delta in (0.85, 1.0):
            lat = DistortedLattice(3, delta)
            b1, b2 = lat.basis[:, 0], lat.basis[:, 1]
            b12 = b1 + b2
            p1 = (b1 / np.linalg.norm(b1), np.linalg.norm(b1) / 2.0)
            p2 = (b2 / np.linalg.norm(b2), np.linalg.norm(b2) / 2.0)
            p3 = (b12 / np.linalg.norm(b12), np.linalg.norm(b12) / 2.0)
            r = covering_radius(lat) * 0.999
            tri = cap_triple_intersection_volume(r, p1, p2, p3)
            pair = cap_pair_intersection_volume(r, p1, p2)
            assert tri == pair
            assert tri > 0.0

    def test_empty_region_is_zero(self):
        v = cap_triple_intersection_volume(
            1.0, (EX, 0.8), (-EX, 0.1), (EY, 0.1))
        assert v == 0.0

    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            cap_triple_intersection_volume(
                1.0, (EX, 0.1), (EY, 0.1), (0.5 * EZ, 0.1))

    def test_rejects_nan_normal(self):
        nan = np.array([0.0, math.nan, 0.0])
        for planes in (((nan, 0.1), (EY, 0.1), (EZ, 0.1)),
                       ((EX, 0.1), (EY, 0.1), (nan, 0.1))):
            with pytest.raises(ValueError, match="unit"):
                cap_triple_intersection_volume(1.0, *planes)

    def test_rejects_normals_without_three_components(self):
        for bad in ((0.0, 0.0, 0.0, 1.0), (0.0, 1.0)):
            for planes in (((bad, 0.1), (EY, 0.1), (EZ, 0.1)),
                           ((EX, 0.1), (EY, 0.1), (bad, 0.1))):
                with pytest.raises(ValueError, match="3-vectors"):
                    cap_triple_intersection_volume(1.0, *planes)

    def test_rejects_nan_distance(self):
        for planes in (((EX, math.nan), (EY, 0.1), (EZ, 0.1)),
                       ((EX, 0.1), (EY, 0.1), (EZ, np.nan))):
            with pytest.raises(ValueError, match="NaN"):
                cap_triple_intersection_volume(1.0, *planes)

    def test_against_oracle(self):
        rng = np.random.default_rng(57)
        tested = 0
        while tested < 2:
            n = rng.normal(size=(3, 3))
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            d = rng.uniform(0.0, 0.45, size=3)
            if _activation_radius(n, d) >= 0.9:
                continue
            closed = cap_triple_intersection_volume(
                1.0, (n[0], d[0]), (n[1], d[1]), (n[2], d[2]))
            est = mc_volume_region(1.0, list(zip(n, d)),
                                   samples=300_000, seed=500 + tested)
            assert abs(closed - est.mean) <= 3.5 * max(est.std_error, 1e-9)
            tested += 1

    def test_apex_cone_against_oracle(self):
        # the delta > 1 band configuration: three column caps meeting at
        # the diagonal apex
        lat = DistortedLattice(3, 2.0)
        planes = []
        for i in range(3):
            b = lat.basis[:, i]
            planes.append((b / np.linalg.norm(b), np.linalg.norm(b) / 2.0))
        r = 0.95
        closed = cap_triple_intersection_volume(r, *planes)
        est = mc_volume_region(r, planes, samples=400_000, seed=77)
        assert closed > 0.0
        assert abs(closed - est.mean) <= 3.5 * max(est.std_error, 1e-9)

    def test_apex_cone_pinned(self):
        lat = DistortedLattice(3, 2.0)
        planes = []
        for i in range(3):
            b = lat.basis[:, i]
            planes.append((b / np.linalg.norm(b), np.linalg.norm(b) / 2.0))
        v = cap_triple_intersection_volume(0.95, *planes)
        assert v == pytest.approx(0.0016572951407492905, rel=1e-10)

    @pytest.mark.parametrize("delta, cone, frac, expected", BAND_VALUES)
    def test_band_values_pinned(self, delta, cone, frac, expected):
        assert _band_volume(delta, cone, frac) == pytest.approx(
            expected, rel=1e-10)

    @pytest.mark.parametrize("delta, cone, frac, expected", NEAR_APEX_VALUES)
    def test_near_apex_values_absolute(self, delta, cone, frac, expected):
        # the closed form is a difference of terms of size r^3 (about 1
        # here), so near the apex its error is some 1e-15 absolute, which
        # is not small relative to the tiny volume
        assert abs(_band_volume(delta, cone, frac) - expected) < 1e-14

    def test_negative_distance_against_oracle(self):
        # two planes beyond the center and one behind it: the closed form
        # goes through pair(p1, p2) - triple(p1, p2, (-n3, -d3))
        n = np.array([[0.8, 0.6, 0.0], [0.0, 0.6, 0.8], [-0.6, 0.0, 0.8]])
        d = np.array([0.25, 0.15, -0.3])
        closed = cap_triple_intersection_volume(
            1.0, (n[0], d[0]), (n[1], d[1]), (n[2], d[2]))
        est = mc_volume_region(1.0, list(zip(n, d)), samples=400_000,
                               seed=91)
        lens = cap_pair_intersection_volume(1.0, (n[0], d[0]), (n[1], d[1]))
        assert 0.0 < closed < lens
        assert abs(closed - est.mean) <= 3.5 * max(est.std_error, 1e-9)

    def test_three_circles_through_one_point(self):
        # the three cap circles meet in one point of the unit sphere, so
        # two arcs end there on every circle
        n = [np.array(v) / np.linalg.norm(v)
             for v in ((-1.0, -1.0, -1.0), (0.0, 1.0, 1.0), (-1.0, 0.0, 1.0))]
        d = (0.0, 0.0, 0.5)
        closed = cap_triple_intersection_volume(1.0, *zip(n, d))
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        turned = cap_triple_intersection_volume(
            1.0, *zip([q @ x for x in n], d))
        assert turned == pytest.approx(closed, abs=1e-14)
        est = mc_volume_region(1.0, list(zip(n, d)), samples=400_000,
                               seed=92)
        assert abs(closed - est.mean) <= 3.5 * max(est.std_error, 1e-9)

    def test_opposite_planes_through_center_are_empty(self):
        s = math.sqrt(0.5)
        n = np.array([0.0, s, -s])
        assert cap_triple_intersection_volume(
            1.0, (n, 0.0), (-n, 0.0), (-EX, 0.3)) == 0.0
        # through the complement of a plane behind the center
        assert cap_triple_intersection_volume(
            1.0, (n, 0.0), (EY, -0.6), (-n, 0.0)) == 0.0

    def test_numpy_scalar_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            normals = rng.normal(size=(3, 3))
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            planes = list(zip(normals, rng.uniform(0.0, 0.9, 3)))
            assert cap_triple_intersection_volume(
                np.float64(1.0), *planes) == cap_triple_intersection_volume(
                    1.0, *planes)

    @pytest.mark.parametrize("eps", (1e-8, 1e-12))
    def test_near_apex_approaches_the_trihedral_cone(self, eps):
        # three planes an eps off the centre: the face-cone sum meets the
        # apex cone pi r^3 / 6 of the octant, less the three quarter disks
        # of area pi r^2 / 4 swept through eps
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
        for r in (1.0, 2.5):
            for frame in (np.eye(3), q):
                planes = [(frame @ e, eps) for e in (EX, EY, EZ)]
                v = cap_triple_intersection_volume(r, *planes)
                assert v == pytest.approx(
                    math.pi * r ** 3 / 6.0 - 0.75 * math.pi * r * r * eps,
                    abs=1e-14 * r ** 3)
                apex = cap_triple_intersection_volume(
                    r, *[(n, 0.0) for n, _ in planes])
                assert apex == pytest.approx(math.pi * r ** 3 / 6.0,
                                             abs=1e-14 * r ** 3)

    def test_face_through_the_centre_is_continuous(self):
        # a face at d = 0 subtends no solid angle; at d = 1e-12 its cone
        # is of that order, so the volume moves by about 1e-12 r^3
        rng = np.random.default_rng(8)
        tested = 0
        while tested < 40:
            n = rng.normal(size=(3, 3))
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            d = [0.0, 0.0, 0.0]
            d[1:] = rng.uniform(0.0, 0.5, size=2)
            if tested % 2:
                d[1] = 0.0
            r = float(rng.uniform(0.7, 3.0))
            at_zero = cap_triple_intersection_volume(r, *zip(n, d))
            if at_zero == 0.0:
                continue
            for k in range(2 if tested % 2 else 1):
                d[k] = 1e-12
            near = cap_triple_intersection_volume(r, *zip(n, d))
            assert abs(near - at_zero) <= 1e-11 * r ** 3
            tested += 1

    def test_plane_through_the_centre_splits_the_lens(self):
        # the two sides of a plane through the centre are both face-cone
        # sums, and together they make up the closed-form pair lens
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = rng.normal(size=(3, 3))
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            d = rng.uniform(0.0, 0.8, size=2)
            r = float(rng.uniform(0.5, 2.0))
            p1, p2 = (n[0], d[0]), (n[1], d[1])
            halves = (cap_triple_intersection_volume(r, p1, p2, (n[2], 0.0))
                      + cap_triple_intersection_volume(r, p1, p2,
                                                       (-n[2], 0.0)))
            assert halves == pytest.approx(
                cap_pair_intersection_volume(r, p1, p2), abs=1e-14 * r ** 3)


def _lapack_activation(normals, dists):
    """Reference activation by LAPACK: every active subset, of any size,
    solved with np.linalg.solve on its Gram matrix."""
    m = len(dists)
    if all(d <= 0.0 for d in dists):
        return 0.0
    best = math.inf
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        a = normals[idx]
        try:
            lam = np.linalg.solve(a @ a.T, dists[idx])
        except np.linalg.LinAlgError:
            continue
        x = a.T @ lam
        if float(np.max(np.abs(a @ x - dists[idx]))) > 1e-9:
            continue
        if all(float(x @ normals[j]) >= dists[j] - 1e-12
               for j in range(m) if not mask >> j & 1):
            best = min(best, float(np.linalg.norm(x)))
    return best


def _lstsq_lens(normals, dists):
    """Reference lens decision of `_triple_checks`, by least squares."""
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        m = np.column_stack([normals[i], normals[j]])
        sol, *_ = np.linalg.lstsq(m, normals[k], rcond=None)
        if float(np.linalg.norm(m @ sol - normals[k])) < 1e-10:
            alpha, beta = float(sol[0]), float(sol[1])
            if (alpha >= -1e-12 and beta >= -1e-12
                    and alpha * dists[i] + beta * dists[j]
                    >= dists[k] - 1e-12):
                return (i, j)
    return None


def _plane_sets(count, seed):
    """Seeded sets of 2 to 4 unit normals with distances, among them
    parallel, antiparallel, collinear and coplanar normals and all
    d <= 0."""
    rng = np.random.default_rng(seed)
    kinds = ("generic", "parallel", "antiparallel", "collinear", "coplanar",
             "behind")
    for t in range(count):
        m = 2 + t % 3
        kind = kinds[t // 3 % len(kinds)]
        n = rng.normal(size=(m, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        d = rng.uniform(-0.5, 1.0, size=m)
        if kind == "parallel":
            n[1] = n[0]
        elif kind == "antiparallel":
            n[1] = -n[0]
        elif kind == "collinear":
            # every normal +-n[0], the fit's one-direction case
            n[1:] = n[0]
            n[1] = -n[0]
        elif kind == "coplanar" and m > 2:
            c = rng.normal(size=2) @ n[:2]
            n[2] = c / np.linalg.norm(c)
        elif kind == "behind":
            d = -np.abs(d)
        yield kind, n, d


class TestClosedFormSetup:
    def test_activation_matches_the_lapack_search(self):
        kinds = collections.Counter()
        for kind, n, d in _plane_sets(540, seed=12):
            got, want = _activation_radius(n, d), _lapack_activation(n, d)
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-12 * max(1.0, want), (kind, n, d)
            kinds[kind, len(d), math.isinf(want)] += 1
        # every kind at every size, and some empty intersections
        assert len({key[:2] for key in kinds}) == 18
        assert sum(c for key, c in kinds.items() if key[2]) > 0

    def test_lens_matches_a_least_squares_fit(self):
        lenses = collections.Counter()
        for kind, n, d in _plane_sets(540, seed=12):
            if len(d) != 3:
                continue
            unit = tuple(tuple(x) for x in n.tolist())
            lens = _triple_checks.__wrapped__(unit, tuple(d.tolist()))[0]
            assert lens == _lstsq_lens(n, d), (kind, n, d)
            # the fit itself is the least-squares (minimal-norm) one
            for i, j, k in ((1, 2, 0), (0, 2, 1), (0, 1, 2)):
                fit, *_ = np.linalg.lstsq(np.column_stack([n[i], n[j]]),
                                          n[k], rcond=None)
                assert _span_fit(unit[i], unit[j], unit[k])[1:] == (
                    pytest.approx(fit.tolist(), abs=1e-9)), (kind, n)
            lenses[kind, lens is not None] += 1
        assert lenses["parallel", True] > 0 and lenses["coplanar", True] > 0
        assert lenses["generic", False] > 0

    def test_cold_union_solves_only_the_vertices(self, monkeypatch):
        # a deterministic cost guard: a cold build and a union in the
        # triple band solve one batched system, for the vertices; the
        # activations and the lens checks are closed form
        calls = collections.Counter()

        def counting(name):
            inner = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in ("solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        _build_arrangement.cache_clear()
        _triple_checks.cache_clear()
        arr = build_cap_arrangement(2.0)
        dr = dual_radii_3d(2.0)
        r = 0.5 * (dr.s1 + dr.s2)
        assert any(o.activation < r for o in arr.triple_orbits)
        assert voronoi_ball_volume_3d(2.0, r) > 0.0
        assert _triple_checks.cache_info().misses >= 1
        assert calls == {"solve": 1}

    def test_warm_union_runs_no_numpy(self, monkeypatch):
        # a deterministic cost guard: after one union in the triple band
        # the pair set-up is memoized once per active pair orbit, and the
        # next union runs on the arrangement's Python floats alone
        _build_arrangement.cache_clear()
        _pair_checks.cache_clear()
        _triple_checks.cache_clear()
        dr = dual_radii_3d(2.0)
        r = 0.5 * (dr.s1 + dr.s2)
        want = voronoi_ball_volume_3d(2.0, r)
        arr = build_cap_arrangement(2.0)
        assert any(o.activation < r for o in arr.triple_orbits)
        assert _pair_checks.cache_info().misses == sum(
            o.activation < r for o in arr.pair_orbits)

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} in a warm union")

        monkeypatch.setattr(geometry3d, "np", NoNumpy())
        assert voronoi_ball_volume_3d(2.0, r) == want


class TestCapArrangement:
    def test_counts_below_one(self):
        for delta in (0.3, 0.9, 1.0 - 2e-8, 1.0 - 1e-8, 1.0 - 5e-9):
            arr = build_cap_arrangement(delta)
            assert len(arr.planes) == 14
            assert len(arr.edges) == 36
            assert len(arr.vertices) == 24
            assert not arr.degenerate

    def test_cached_arrangement_is_read_only(self):
        # flipping the normal of a pair orbit's face in place used to
        # change every later union at this delta (to 0.4986982755445106)
        arr = build_cap_arrangement(0.5)
        face = arr.pair_orbits[0].members[0][0]
        with pytest.raises(TypeError):
            arr.planes[face].normal[:] = [-x for x in arr.planes[face].normal]
        for v in arr.vertices:
            # writes the same values, so a failure leaves the cache intact
            with pytest.raises(ValueError):
                v.position[:] = v.position.copy()
            with pytest.raises(ValueError):
                v.position.flags.writeable = True
        assert voronoi_ball_volume_3d(0.5, 0.55) == 0.4999302643932687

    def test_counts_at_one(self):
        arr = build_cap_arrangement(1.0)
        assert len(arr.planes) == 6
        assert len(arr.edges) == 12
        assert len(arr.vertices) == 8
        assert arr.degenerate
        # four-way ties at the cube edge midpoints drop the pair-sum
        # planes entirely; only the six column faces remain
        assert arr.plane_distance_multiset() == {0.5: 6}

    def test_counts_above_one(self):
        for delta in (1.0 + 5e-9, 1.0 + 1e-8, 1.0 + 2e-8, 1.5, 2.0, 5.0):
            arr = build_cap_arrangement(delta)
            assert len(arr.planes) == 12
            assert len(arr.edges) == 24
            assert len(arr.vertices) == 14

    def test_plane_multiset_below_one(self):
        arr = build_cap_arrangement(0.8)
        rad = critical_radii_3d(0.8)
        assert arr.plane_distance_multiset() == {
            round(rad.r1, 9): 6, round(rad.r2, 9): 6, round(rad.r3, 9): 2}

    def test_plane_multiset_above_one(self):
        arr = build_cap_arrangement(1.5)
        r1 = math.sqrt((1.5 ** 2 + 2.0) / 12.0)
        assert arr.plane_distance_multiset() == {
            round(r1, 9): 6, round(math.sqrt(0.5), 9): 6}
        # at delta = 2 the two face orbits coincide in distance
        arr2 = build_cap_arrangement(2.0)
        assert arr2.plane_distance_multiset() == {round(math.sqrt(0.5), 9): 12}

    def test_edge_radii_and_subtypes(self):
        for delta in (0.3, 0.9):
            arr = build_cap_arrangement(delta)
            rad = critical_radii_3d(delta)
            n4 = sum(1 for e in arr.edges if abs(e.distance - rad.r4) < 1e-9)
            n5 = sum(1 for e in arr.edges if abs(e.distance - rad.r5) < 1e-9)
            assert n4 == 18 and n5 == 18
            counts = arr.edge_subtype_counts()
            assert sorted(counts.values()) == [6, 6, 6, 6, 12]
            # the doubled subtype joins a column face to a pair-sum face
            doubled = [tag for tag, c in counts.items() if c == 12]
            assert doubled == ["12|1"]

    def test_vertices_below_one(self):
        arr = build_cap_arrangement(0.7)
        rad = critical_radii_3d(0.7)
        assert all(abs(v.distance - rad.r6) < 1e-9 for v in arr.vertices)
        assert all(v.valence == 3 for v in arr.vertices)

    def test_vertices_above_one(self):
        for delta in (1.3, 2.0, 3.0):
            arr = build_cap_arrangement(delta)
            dr = dual_radii_3d(delta)
            at_s1 = [v for v in arr.vertices if abs(v.distance - dr.s1) < 1e-9]
            at_s2 = [v for v in arr.vertices if abs(v.distance - dr.s2) < 1e-9]
            assert len(at_s1) == 8 and len(at_s2) == 6
            assert all(v.valence == 3 for v in at_s1)
            assert all(v.valence == 4 for v in at_s2)
            # exactly two of the s1 vertices sit on the diagonal axis
            ons = [v for v in at_s1
                   if abs(abs(float(v.position @ np.ones(3)))
                          - SQRT3 * v.distance) < 1e-8]
            assert len(ons) == 2

    def test_no_quadruple_activates_below_covering(self):
        for delta in (0.9, 2.0):
            arr = build_cap_arrangement(delta)
            normals = np.array([p.normal for p in arr.planes])
            dists = np.array([p.distance for p in arr.planes])
            cov = covering_radius(DistortedLattice(3, delta))
            for idx in itertools.combinations(range(len(arr.planes)), 4):
                act = _activation_radius(normals[list(idx)],
                                         dists[list(idx)])
                assert act >= cov * (1.0 - 1e-9)

    def test_band_triples_above_one(self):
        # in s1 < r < s2 exactly the eight 3-valent vertex cones are live
        arr = build_cap_arrangement(1.5)
        dr = dual_radii_3d(1.5)
        acts = [orb.activation for orb in arr.triple_orbits
                for _ in orb.members if orb.activation < dr.s2 * (1.0 - 1e-9)]
        assert len(acts) == 8
        assert all(abs(a - dr.s1) < 1e-9 for a in acts)

    def test_rejects_bad_delta(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                build_cap_arrangement(bad)


def _corner_faces(arr, valence):
    """Sorted face index tuples of the vertices of one valence, read off
    their positions."""
    normals = np.array([p.normal for p in arr.planes])
    dists = np.array([p.distance for p in arr.planes])
    tol = 1e-9 * max(1.0, float(dists.max()))
    return sorted(
        tuple(np.flatnonzero(np.abs(normals @ v.position - dists) < tol)
              .tolist())
        for v in arr.vertices if v.valence == valence)


EULER_DELTAS = (0.05, 0.5, 0.99, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.01, 2.0,
                20.0)


@pytest.mark.parametrize("delta", EULER_DELTAS)
def test_visible_faces_count_once(delta):
    # a point of the covering ball outside the cell sees a ball of faces:
    # faces - edges + three-valent vertices beyond it is 1, so the cap sum
    # over the face lattice counts it once; no such point lies beyond
    # both diagonal faces of a four-valent vertex
    arr = build_cap_arrangement(delta)
    normals = np.array([p.normal for p in arr.planes])
    dists = np.array([p.distance for p in arr.planes])
    edges = np.array([e.planes for e in arr.edges])
    cov = covering_radius(DistortedLattice(3, delta))
    rng = np.random.default_rng(4100)
    x = rng.uniform(-cov, cov, size=(60_000, 3))
    x = x[np.einsum("ij,ij->i", x, x) < cov * cov]
    beyond = x @ normals.T > dists
    x, beyond = x[beyond.any(axis=1)], beyond[beyond.any(axis=1)]
    assert len(x) > 1000
    euler = (beyond.sum(axis=1)
             - (beyond[:, edges[:, 0]] & beyond[:, edges[:, 1]]).sum(axis=1)
             + sum(beyond[:, list(f)].all(axis=1)
                   for f in _corner_faces(arr, 3)))
    assert np.all(euler == 1)
    four_valent = _corner_faces(arr, 4)
    assert len(four_valent) == (6 if delta > 1.0 + 1e-9 else 0)
    shared = {e.planes for e in arr.edges}
    for faces in four_valent:
        for pair in itertools.combinations(faces, 2):
            if pair not in shared:
                assert not np.any(beyond[:, list(pair)].all(axis=1))


def _relevant_vectors(delta: float, window: int = 3) -> set:
    """Voronoi-relevant coefficient vectors of L_delta by brute force.

    v is relevant exactly when +-v are the only shortest vectors of the
    coset v + 2L (Voronoi); every coset is searched over the coefficient
    window +-window, and a competitor within 1e-9 relative counts as a tie.
    """
    lat = DistortedLattice(3, delta)
    coeffs = np.array(list(itertools.product(range(-window, window + 1),
                                             repeat=3)))
    pts = coeffs @ lat.basis.T
    norm2 = np.einsum("ij,ij->i", pts, pts)
    out = set()
    for v, n2 in zip(coeffs, norm2):
        if not v.any():
            continue
        rivals = (np.all((coeffs - v) % 2 == 0, axis=1)
                  & np.any(coeffs != v, axis=1)
                  & np.any(coeffs != -v, axis=1))
        if np.all(norm2[rivals] > n2 * (1.0 + 1e-9)):
            out.add(tuple(int(x) for x in v))
    return out


CATALOG_DELTAS = [float(d) for d in np.logspace(-3.0, 3.0, 60)]


class TestCellCatalog:
    @pytest.mark.parametrize("delta", CATALOG_DELTAS)
    def test_faces_match_relevant_vector_search(self, delta):
        arr = build_cap_arrangement(delta)
        coeffs = [p.coeffs for p in arr.planes]
        assert coeffs == sorted(coeffs)
        assert set(coeffs) == _relevant_vectors(delta)
        lat = DistortedLattice(3, delta)
        for p in arr.planes:
            b = lat.lattice_point(p.coeffs)
            assert p.distance == pytest.approx(np.linalg.norm(b) / 2.0,
                                               rel=1e-14)

    @pytest.mark.parametrize("delta", CATALOG_DELTAS)
    def test_vertices_lie_on_exactly_their_faces(self, delta):
        arr = build_cap_arrangement(delta)
        normals = np.array([p.normal for p in arr.planes])
        dists = np.array([p.distance for p in arr.planes])
        tol = 1e-9 * max(1.0, float(dists.max()))
        for v in arr.vertices:
            slack = normals @ v.position - dists
            assert float(slack.max()) < tol
            assert int(np.sum(np.abs(slack) < tol)) == v.valence
        cov = covering_radius(DistortedLattice(3, delta))
        assert max(v.distance for v in arr.vertices) == pytest.approx(
            cov, rel=1e-12)

    def test_radii_command_next_to_one(self, capsys):
        assert cli_main(["radii", "--dim", "3", "--delta", "0.99999999"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "edges 36" in lines
        assert "vertices 0.866025395 x24" in lines


class TestFloatRange:
    """Far from delta = 1 the float basis describes another cell, or none.

    The build raises there rather than return that cell's arrangement
    (pytest turns a RuntimeWarning into an error, so none is emitted).
    """

    @pytest.mark.parametrize("delta", [1e-320, 1e-20, 1e-15, 1e-12, 6e-9,
                                       3e8, 1e9, 1e12, 1e50])
    def test_lost_delta_raises(self, delta):
        with pytest.raises(ValueError, match="too far from 1|parallel"):
            build_cap_arrangement(delta)

    @pytest.mark.parametrize("delta", [1.4e154, 1e155, 1e300])
    def test_overflow_raises(self, delta):
        with pytest.raises(OverflowError):
            build_cap_arrangement(delta)

    @pytest.mark.parametrize("delta", [1.4e154, 1e200, 1e308])
    def test_dual_radii_overflow_raises(self, delta):
        with pytest.raises(OverflowError, match="overflows"):
            dual_radii_3d(delta)

    def test_union_raises(self):
        # it was 6.9e283, for a cell of volume 1e-300
        with pytest.raises(ValueError):
            voronoi_ball_volume_3d(1e-300, 0.3)

    @pytest.mark.parametrize("delta", [1e-7, 1.0 - 1e-9, 1.0 - 0.999e-9,
                                       1.0 + 0.999e-9, 1.0 + 1e-9, 1e7])
    def test_representable_cells_build(self, delta):
        # the cube stands in for the cells within 1e-9 of delta = 1
        arr = build_cap_arrangement(delta)
        assert len(arr.planes) == (6 if arr.degenerate
                                   else 14 if delta < 1.0 else 12)


ORBIT_DELTAS = (0.2, 0.5, 0.9, 1.0, 1.0 - 1e-10, 1.0 + 1e-10, 1.2, 2.0, 3.0,
                20.0)


def _per_term_sum(planes, pair_orbits, triple_orbits, r):
    """Inclusion-exclusion over every table term, without orbits."""
    vol = V3 * r ** 3
    for p in planes:
        if p.distance < r:
            vol -= spherical_cap_volume(r, p.distance)
    for sign, orbits, cap in ((1, pair_orbits, cap_pair_intersection_volume),
                              (-1, triple_orbits,
                               cap_triple_intersection_volume)):
        for orb in orbits:
            if orb.activation >= r:
                continue
            for idx in orb.members:
                vol += sign * cap(r, *[(planes[t].normal, planes[t].distance)
                                       for t in idx])
    return vol


class TestTermOrbits:
    @pytest.mark.parametrize("delta", ORBIT_DELTAS)
    def test_orbits_partition_the_tables(self, delta):
        # every edge is a member of exactly one pair orbit and the faces of
        # every three-valent vertex of exactly one triple orbit, and there
        # are fewer orbits than terms
        arr = build_cap_arrangement(delta)
        for orbits, terms in ((arr.pair_orbits, [e.planes for e in arr.edges]),
                              (arr.triple_orbits, _corner_faces(arr, 3))):
            members = sorted(m for o in orbits for m in o.members)
            assert members == terms
            assert len(orbits) < len(terms)

    @pytest.mark.parametrize("delta", ORBIT_DELTAS)
    def test_members_share_activation(self, delta):
        arr = build_cap_arrangement(delta)
        normals = np.array([p.normal for p in arr.planes])
        dists = np.array([p.distance for p in arr.planes])
        for orb in arr.pair_orbits + arr.triple_orbits:
            for m in orb.members:
                act = _activation_radius(normals[list(m)], dists[list(m)])
                assert abs(act - orb.activation) < 1e-12

    @pytest.mark.parametrize("delta", ORBIT_DELTAS)
    def test_union_checks_each_triple_orbit_once(self, delta):
        # the lens, the activation and the face setup do not depend on r:
        # one closed-form setup per triple orbit, then only memo hits
        _build_arrangement.cache_clear()
        _triple_checks.cache_clear()
        arr = build_cap_arrangement(delta)
        cov = covering_radius(DistortedLattice(3, delta))
        radii = np.linspace(0.0, cov, 41)[1:-1]
        for r in radii:
            voronoi_ball_volume_3d(delta, float(r))
        active = sum(o.activation < radii[-1] for o in arr.triple_orbits)
        assert _triple_checks.cache_info().misses == active
        for r in radii:
            voronoi_ball_volume_3d(delta, float(r))
        assert _triple_checks.cache_info().misses == active

    @pytest.mark.parametrize("delta", ORBIT_DELTAS)
    def test_union_matches_per_term_sum(self, delta):
        arr = build_cap_arrangement(delta)
        lat = DistortedLattice(3, delta)
        pack, cov = packing_radius(lat), covering_radius(lat)
        for r in np.linspace(pack, cov, 9)[1:-1]:
            r = float(r)
            ref = _per_term_sum(arr.planes, arr.pair_orbits,
                                arr.triple_orbits, r)
            assert voronoi_ball_volume_3d(delta, r) == pytest.approx(
                ref, rel=1e-13)


def _reference_term_orbits(images, terms, activation):
    """Orbits of the sorted face index tuples terms, each with the
    activation of its first member."""
    orbits = []
    seen = set()
    for term in terms:
        if term in seen:
            continue
        members = {tuple(sorted(img[t] for t in term)) for img in images}
        seen |= members
        orbits.append(TermOrbit(members=tuple(sorted(members)),
                                activation=activation(term)))
    return tuple(orbits)


@functools.lru_cache(maxsize=None)
def _reference_arrangement(delta):
    """(planes, edges, vertices, edge orbits, vertex orbits) of the cell,
    each worked out from the catalog at this delta alone, plus every face
    pair and triple orbit that activates within 1.02x the covering
    radius: the inclusion-exclusion tables of the build before it kept
    only the face lattice."""
    lat = DistortedLattice(3, delta)
    face_reps, vertex_reps = _CATALOG[_regime(delta)]
    coeffs = sorted({_image(c, g) for c in face_reps for g in _ISOMETRIES})
    planes = []
    for c, p in zip(coeffs, np.array(coeffs, dtype=float) @ lat.basis.T):
        nrm = float(np.linalg.norm(p))
        planes.append(Plane(coeffs=c, normal=p / nrm, distance=nrm / 2.0))
    normals = np.array([p.normal for p in planes])
    dists = np.array([p.distance for p in planes])
    index = {c: i for i, c in enumerate(coeffs)}
    incidences = sorted({tuple(sorted(index[_image(c, g)] for c in rep))
                         for rep in vertex_reps for g in _ISOMETRIES})
    vertices = []
    for faces in incidences:
        first = list(faces[:3])
        x = np.linalg.solve(normals[first], dists[first])
        vertices.append(Vertex(position=x, distance=float(np.linalg.norm(x)),
                               valence=len(faces)))
    shared = collections.Counter(
        pair for faces in incidences
        for pair in itertools.combinations(faces, 2))
    edges = []
    for i, j in sorted(pair for pair, k in shared.items() if k == 2):
        foot = _line_foot(normals[i], dists[i], normals[j], dists[j])
        ti, tj = _coeff_type(coeffs[i]), _coeff_type(coeffs[j])
        tdiff = _coeff_type(np.subtract(coeffs[i], coeffs[j]))
        edges.append(Edge(planes=(i, j),
                          distance=float(np.linalg.norm(foot)),
                          subtype=f"{min(ti, tj)}{max(ti, tj)}|{tdiff}"))

    def solved(term):
        return _activation_radius(normals[list(term)], dists[list(term)])

    images = [[index[_image(c, g)] for c in coeffs] for g in _ISOMETRIES]
    line = {e.planes: e.distance for e in edges}
    edge_orbits = _reference_term_orbits(
        images, [e.planes for e in edges], line.get)
    vertex_orbits = _reference_term_orbits(
        images, [f for f in incidences if len(f) == 3], solved)
    cutoff = covering_radius(lat) * 1.02
    pair_orbits, triple_orbits = (
        tuple(o for o in _reference_term_orbits(
            images, itertools.combinations(range(len(planes)), size), solved)
              if o.activation < cutoff)
        for size in (2, 3))
    return (tuple(planes), tuple(edges), tuple(vertices), edge_orbits,
            vertex_orbits, pair_orbits, triple_orbits)


def _regime(delta):
    if abs(delta - 1.0) < 1e-9:
        return "cube"
    return "below" if delta < 1.0 else "above"


TABLE_DELTAS = tuple(float(d) for d in np.geomspace(0.05, 20.0, 67)) + (
    1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-8, 1.0 + 1e-8, 1.0)


class TestRegimeTables:
    @pytest.mark.parametrize("delta", TABLE_DELTAS)
    def test_build_equals_reference(self, delta):
        arr = _build_arrangement.__wrapped__(delta)
        planes, edges, vertices, edge_orbits, vertex_orbits, _, _ = (
            _reference_arrangement(delta))
        assert arr.planes == planes
        for got, want in zip(arr.planes, planes):
            assert np.array_equal(got.normal, want.normal)
        assert arr.edges == edges
        assert arr.vertices == vertices
        for got, want in zip(arr.vertices, vertices):
            assert np.array_equal(got.position, want.position)
        assert arr.pair_orbits == edge_orbits
        assert arr.triple_orbits == vertex_orbits

    @pytest.mark.parametrize("delta", TABLE_DELTAS)
    def test_union_matches_all_pairs_and_triples(self, delta):
        # the face lattice terms sum to the inclusion-exclusion over every
        # face pair and triple that activates near the covering radius
        planes, *_, pair_orbits, triple_orbits = _reference_arrangement(delta)
        lat = DistortedLattice(3, delta)
        pack, cov = packing_radius(lat), covering_radius(lat)
        for r in np.linspace(pack, cov, 43)[1:-1]:
            r = float(r)
            ref = _per_term_sum(planes, pair_orbits, triple_orbits, r)
            assert voronoi_ball_volume_3d(delta, r) == pytest.approx(
                ref, rel=1e-12)

    def test_deltas_of_one_regime_share_a_table(self):
        _regime_tables.cache_clear()
        a = _build_arrangement.__wrapped__(0.3)
        b = _build_arrangement.__wrapped__(0.7)
        info = _regime_tables.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        tables = _regime_tables("below")
        for arr in (a, b):
            for orb in arr.pair_orbits:
                assert any(orb.members is m for m in tables.pair_orbits)

    @pytest.mark.parametrize("delta", (0.2, 0.5, 0.95, 1.0, 1.2, 2.0, 3.0))
    def test_build_solves_pairs_and_live_triples_only(self, delta,
                                                      monkeypatch):
        # a pair activation is the edge distance the build already has;
        # only the representative of each vertex orbit is solved
        solved = []

        def counting(normals, dists):
            solved.append(len(dists))
            return _activation_radius(normals, dists)

        monkeypatch.setattr(geometry3d, "_activation_radius", counting)
        arr = _build_arrangement.__wrapped__(delta)
        assert solved == [3] * len(arr.triple_orbits)
        assert 1 <= len(solved) <= 2
        edge_distance = {e.planes: e.distance for e in arr.edges}
        for orb in arr.pair_orbits:
            assert orb.activation == edge_distance[orb.members[0]]


def _per_plane_union(arr, r):
    """The inclusion-exclusion with one cap evaluation per face, as it
    was before faces of equal distance shared one cap."""
    vol = V3 * r ** 3
    for p in arr.planes:
        if p.distance < r:
            vol -= spherical_cap_volume(r, p.distance)
    for orb in arr.pair_orbits:
        if orb.activation < r:
            pi, pj = (arr.planes[t] for t in orb.members[0])
            vol += orb.size * cap_pair_intersection_volume(
                r, (pi.normal, pi.distance), (pj.normal, pj.distance))
    for orb in arr.triple_orbits:
        if orb.activation < r:
            pi, pj, pk = (arr.planes[t] for t in orb.members[0])
            vol -= orb.size * cap_triple_intersection_volume(
                r, (pi.normal, pi.distance), (pj.normal, pj.distance),
                (pk.normal, pk.distance))
    return vol


FACE_DELTAS = tuple(float(d) for d in np.geomspace(0.05, 20.0, 60)) + (
    1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-8, 1.0 + 1e-8)


class TestFaceDistances:
    @pytest.mark.parametrize("delta", FACE_DELTAS)
    def test_union_equals_one_cap_per_face_bit_for_bit(self, delta):
        arr = build_cap_arrangement(delta)
        assert list(arr.face_distances) == sorted(
            {p.distance for p in arr.planes})
        lat = DistortedLattice(3, delta)
        for r in np.linspace(packing_radius(lat), covering_radius(lat), 40):
            r = float(r)
            assert _inclusion_exclusion(arr, r) == _per_plane_union(arr, r)


def test_import_does_not_load_scipy():
    import overlatt

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        overlatt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, overlatt; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_theorems_suite_loads_no_test_extra():
    # scipy and mpmath are test extras: the crossover root and every
    # other step of the suite run on the package's own code
    import overlatt

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        overlatt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, overlatt; assert overlatt.run_suite('theorems').passed;"
         " print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestVoronoiBallVolume:
    def test_ball_regime(self):
        for delta in (0.4, 1.0, 1.7):
            lat = DistortedLattice(3, delta)
            r = packing_radius(lat) * 0.6
            assert voronoi_ball_volume_3d(delta, r) == pytest.approx(
                V3 * r ** 3, abs=1e-15)

    def test_full_cell_at_covering(self):
        for delta in (0.4, 1.0, 2.5):
            cov = covering_radius(DistortedLattice(3, delta))
            assert voronoi_ball_volume_3d(delta, cov) == delta
            assert voronoi_ball_volume_3d(delta, cov * 3.0) == delta

    def test_raw_sum_reaches_cell_volume_at_r6(self):
        # inclusion-exclusion evaluated just past r6 must land on the
        # cell volume by itself, without the covering clip
        for delta in (0.3, 0.6, 0.9, 0.99):
            arr = build_cap_arrangement(delta)
            cov = covering_radius(DistortedLattice(3, delta))
            above = _inclusion_exclusion(arr, cov * (1.0 + 1e-9))
            assert abs(above - delta) < 1e-9

    def test_continuity_across_critical_radii(self):
        for delta in (0.3, 0.55, 0.64, 0.9):
            rad = critical_radii_3d(delta)
            for rc in (rad.r1, rad.r2, rad.r3, rad.r4, rad.r5, rad.r6):
                lo = voronoi_ball_volume_3d(delta, rc * (1.0 - 1e-11))
                hi = voronoi_ball_volume_3d(delta, rc * (1.0 + 1e-11))
                assert abs(hi - lo) < 1e-9

    def test_continuity_above_one(self):
        for delta in (1.5, 2.0):
            dr = dual_radii_3d(delta)
            for rc in (dr.s1, dr.s2):
                lo = voronoi_ball_volume_3d(delta, rc * (1.0 - 1e-11))
                hi = voronoi_ball_volume_3d(delta, rc * (1.0 + 1e-11))
                assert abs(hi - lo) < 1e-9

    def test_monotone_in_radius(self):
        for delta in (0.5, 0.9, 1.6):
            cov = covering_radius(DistortedLattice(3, delta))
            rs = np.linspace(0.0, cov * 1.05, 40)
            vals = [voronoi_ball_volume_3d(delta, float(r)) for r in rs]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_against_oracle(self):
        cases = []
        for delta in (0.3, 0.66, 0.95, 2.0):
            lat = DistortedLattice(3, delta)
            pr, cv = packing_radius(lat), covering_radius(lat)
            cases.append((delta, pr + 0.5 * (cv - pr)))
        # hit the delta > 1 triple band explicitly
        dr = dual_radii_3d(1.5)
        cases.append((1.5, 0.5 * (dr.s1 + dr.s2)))
        for idx, (delta, r) in enumerate(cases):
            lat = DistortedLattice(3, delta)
            closed = voronoi_ball_volume_3d(delta, r) / delta
            est = mc_union(lat, r, samples=400_000, seed=8800 + idx)
            floor = math.sqrt(max(closed * (1.0 - closed), 0.0) / 400_000)
            assert abs(closed - est.mean) <= 3.5 * max(est.std_error, floor,
                                                       1e-9)

    def test_vol_overlap(self):
        lat = DistortedLattice(3, 0.8)
        pack = packing_radius(lat)
        assert vol_overlap_3d(0.8, pack) == 0.0
        assert vol_overlap_3d(0.8, pack * 0.5) == 0.0
        # past covering the overlap is density minus one exactly
        cov = covering_radius(lat)
        r = cov * 1.3
        expected = V3 * r ** 3 / 0.8 - 1.0
        assert vol_overlap_3d(0.8, r) == pytest.approx(expected, rel=1e-14)
        # nondecreasing in r
        rs = np.linspace(pack, cov * 1.2, 25)
        vals = [vol_overlap_3d(0.8, float(r)) for r in rs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    UNION_DIGEST = "714f1e2c79a5a5767106b27eadd18c454a03ca71"

    def test_union_bits_are_pinned(self):
        """Pins every bit of 2,840 unions by the sha1 of their concatenated
        float.hex strings: 40 radii per delta, at i/41 of the covering
        radius, over 67 log-spaced deltas in [0.05, 20] and 1 +- 1e-8, 0.5
        and 2.  A faster union must keep the digest.  The orthoscheme
        union (ROADMAP item 2) is expected to move it; a change that does
        must report every change, with the largest change of a union."""
        deltas = [float(d) for d in np.geomspace(0.05, 20.0, 67)] + [
            1.0 - 1e-8, 1.0 + 1e-8, 0.5, 2.0]
        hexes = []
        for delta in deltas:
            cov = covering_radius(DistortedLattice(3, delta))
            hexes += [float.hex(voronoi_ball_volume_3d(delta, cov * i / 41))
                      for i in range(1, 41)]
        digest = hashlib.sha1("".join(hexes).encode()).hexdigest()
        assert digest == self.UNION_DIGEST

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            voronoi_ball_volume_3d(0.0, 0.5)
        with pytest.raises(ValueError):
            voronoi_ball_volume_3d(0.5, -1.0)
        with pytest.raises(ValueError):
            voronoi_ball_volume_3d(0.5, math.nan)
