"""Acceptance gate: eight criteria, one test each, pinned tolerances.

Each test prints one summary line; `pytest -v` adds the per-criterion
pass/fail verdict.  Criterion 6 draws 10^7 Monte Carlo samples per grid
cell and takes a couple of minutes; everything else finishes in seconds.
It carries the `slow` marker, so `pytest -m "not slow"` runs the other
seven.
"""

import math
import time

import numpy as np
import pytest

from overlatt.geometry2d import (
    covering_overlap_2d,
    critical_radii_2d,
    density_derivative_2d,
    vol_overlap_2d,
    voronoi_ball_area,
)
from overlatt.geometry3d import (
    critical_radii_3d,
    dual_radii_3d,
    vol_overlap_3d,
    voronoi_ball_volume_3d,
)
from overlatt.lattice import (
    DistortedLattice,
    covering_radius,
    packing_radius,
)
from overlatt.measures import (
    OverlapMeasure,
    density,
    dist_overlap,
    union_fraction,
    vol_overlap,
)
from overlatt.quality import (
    QualityMode,
    QualityQuery,
    crossover_omega,
    optimize_delta,
    qual_covering,
    qual_packing,
)
from overlatt.verify import GRID_DELTAS_2D, GRID_DELTAS_3D, grid_radii, run_suite

DIST = OverlapMeasure.DISTANCE_BASED
VOL = OverlapMeasure.VOLUME_BASED
THIRD = 1.0 / math.sqrt(3.0)

# pinned tolerances, one constant per criterion
TOL_CONSTANTS = 1e-9          # criterion 1
TOL_ARGOPT_DIST = 1e-6        # criteria 2, 3
TOL_ARGOPT_VOL = 1e-5         # criterion 4
CROSSOVER_RANGE = (0.08, 0.12)  # criterion 5
CROSS_LEVEL = (1.01, 1.05)    # criterion 5
ORACLE_SAMPLES = 10_000_000   # criterion 6
ORACLE_SIGMA = 3.0            # criterion 6
ORACLE_THREADS = 2            # criterion 6
TOL_IDENTITY = 1e-9           # criterion 7
TOL_CONTINUITY = 1e-9         # criterion 7
FD_REL_TOL = 1e-4             # criterion 8
FD_ABS_FLOOR = 1e-3           # criterion 8


def test_criterion_1_known_constants():
    hexagonal = DistortedLattice(2, THIRD)
    fcc = DistortedLattice(3, 2.0)
    bcc = DistortedLattice(3, 0.5)
    cases = [
        ("hexagonal packing", qual_packing(hexagonal, DIST, 0.0).density,
         math.pi / math.sqrt(12.0)),
        ("fcc packing", qual_packing(fcc, DIST, 0.0).density,
         math.pi / math.sqrt(18.0)),
        ("hexagonal covering", qual_covering(hexagonal, 0.0).density,
         2.0 * math.pi / math.sqrt(27.0)),
        ("bcc covering", qual_covering(bcc, 0.0).density,
         5.0 * math.sqrt(5.0) * math.pi / 24.0),
    ]
    for name, got, expect in cases:
        assert abs(got - expect) <= TOL_CONSTANTS, (
            f"{name}: {got!r} vs {expect!r}")
    print(f"CRITERION 1 PASS: 4 named densities within {TOL_CONSTANTS}")


def test_criterion_2_distance_argmax():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 5):
        expect = math.sqrt(n + 1.0)
        for omega in (0.0, 0.25, 0.5, 0.75):
            res = optimize_delta(QualityQuery(
                n=n, mode=QualityMode.PACKING, measure=DIST, omega=omega))
            if n == 2:
                # the optimum is a genuine pair here
                assert len(res.ties) == 2, res
                assert abs(res.ties[0] - 1.0 / expect) <= TOL_ARGOPT_DIST
                assert abs(res.ties[1] - expect) <= TOL_ARGOPT_DIST
            else:
                assert abs(res.delta_star - expect) <= TOL_ARGOPT_DIST, res
                assert len(res.ties) == 1, res
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    print(f"CRITERION 2 PASS: 16 distance argmax cases within "
          f"{TOL_ARGOPT_DIST} in {elapsed:.1f}s")


def test_criterion_3_covering_argmin():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 5):
        expect = 1.0 / math.sqrt(n + 1.0)
        for omega in (0.0, 0.25, 0.5, 0.75):
            res = optimize_delta(QualityQuery(
                n=n, mode=QualityMode.COVERING, omega=omega))
            if n == 2:
                # mirror-pair tie, matching the packing case
                assert any(abs(t - expect) <= TOL_ARGOPT_DIST
                           for t in res.ties), res
            else:
                assert abs(res.delta_star - expect) <= TOL_ARGOPT_DIST, res
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    print(f"CRITERION 3 PASS: 16 covering argmin cases within "
          f"{TOL_ARGOPT_DIST} in {elapsed:.1f}s")


def test_criterion_4_volume_argmax_2d():
    t0 = time.perf_counter()
    omega_flat = covering_overlap_2d(THIRD)  # the budget above which the
    # optimum is attained on a whole interval rather than a point
    for omega in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0):
        res = optimize_delta(QualityQuery(
            n=2, mode=QualityMode.PACKING, measure=VOL, omega=omega,
            delta_range=(0.05, 1.0)))
        if omega > omega_flat:
            # flat optimum: the target must lie inside the reported range
            assert res.plateau, res
            assert any(lo - TOL_ARGOPT_VOL <= THIRD <= hi + TOL_ARGOPT_VOL
                       for lo, hi in res.plateau_ranges), res
        else:
            assert not res.plateau, res
            assert abs(res.delta_star - THIRD) <= TOL_ARGOPT_VOL, res
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    print(f"CRITERION 4 PASS: 6 volume argmax cases attain 1/sqrt(3) "
          f"within {TOL_ARGOPT_VOL} in {elapsed:.1f}s "
          f"(interval semantics above omega={omega_flat:.4f})")


def test_criterion_5_crossover():
    t0 = time.perf_counter()
    omega_star = crossover_omega()
    assert CROSSOVER_RANGE[0] <= omega_star <= CROSSOVER_RANGE[1], omega_star
    bcc = DistortedLattice(3, 0.5)
    fcc = DistortedLattice(3, 2.0)
    for lat in (bcc, fcc):
        dens = qual_packing(lat, VOL, omega_star).density
        assert CROSS_LEVEL[0] <= dens <= CROSS_LEVEL[1], (lat.delta, dens)
    diffs = [qual_packing(fcc, VOL, w).density
             - qual_packing(bcc, VOL, w).density
             for w in np.linspace(0.0, 0.5, 51)]
    flips = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0))
    assert flips == 1, f"expected one sign change, saw {flips}"
    assert diffs[0] > 0.0 and diffs[-1] < 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"CRITERION 5 PASS: crossover at omega*={omega_star:.4f}, "
          f"single sign change, in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_oracle_equivalence():
    # grid coverage: enough points, all branches and regimes
    n_2d = len(GRID_DELTAS_2D) * len(grid_radii(DistortedLattice(2, 0.5)))
    n_3d = sum(len(grid_radii(DistortedLattice(3, d)))
               for d in GRID_DELTAS_3D)
    assert n_2d >= 100 and n_3d >= 100
    t0 = time.perf_counter()
    # chunk counts are integers, so the estimates do not depend on the
    # thread count; two threads only shorten the run
    report = run_suite("oracle", samples=ORACLE_SAMPLES, seed=2024,
                       par=ORACLE_THREADS)
    elapsed = time.perf_counter() - t0
    failures = report.failures()
    assert report.passed, "\n".join(
        f"{c.name}: {c.observed} (wanted {c.expected})" for c in failures)
    # the per-cell gate is statistical, so a correct implementation is
    # still expected to show a stray cell or two between 3 and 5 se
    assert len(report.tolerated) <= 3, report.tolerated
    print(f"CRITERION 6 PASS: {len(report.checks)} grid cells within "
          f"{ORACLE_SIGMA} se at {ORACLE_SAMPLES} samples in {elapsed:.0f}s "
          f"({len(report.tolerated)} expected excursions within 5 se)")


def _breakpoints(n: int, delta: float) -> list[float]:
    if n == 2:
        d = delta if delta <= 1.0 else 1.0 / delta
        rad = critical_radii_2d(d)
        scale = 1.0 if delta <= 1.0 else delta
        return [scale * rad.r1, scale * rad.r2, scale * rad.r3]
    if delta <= 1.0:
        rad = critical_radii_3d(delta)
        return [rad.r1, rad.r2, rad.r3, rad.r4, rad.r5, rad.r6]
    dual = dual_radii_3d(delta)
    return [math.sqrt((delta ** 2 + 2.0) / 12.0), math.sqrt(0.5),
            dual.s1, dual.s2]


def test_criterion_7_identity_and_monotonicity():
    deltas = {2: (0.3, THIRD, 0.8, 1.0, 1.6, 3.0),
              3: (0.3, 0.55, 0.65, 0.9, 1.0, 1.5, 2.0)}
    for n, ds in deltas.items():
        for d in ds:
            lat = DistortedLattice(n, d)
            pack, cov = packing_radius(lat), covering_radius(lat)

            # identity: the direct overlap closed form equals
            # density - union computed through the measures layer
            for r in np.linspace(0.3 * pack, 1.1 * cov, 12):
                r = float(r)
                via_measures = vol_overlap(lat, r)
                direct = (vol_overlap_2d(d, r) if n == 2
                          else vol_overlap_3d(d, r))
                assert abs(via_measures - direct) <= TOL_IDENTITY, (n, d, r)

            # union bounded by one, equal to one beyond covering
            for r in np.linspace(0.3 * pack, 1.3 * cov, 9):
                u = union_fraction(lat, float(r))
                assert u <= 1.0 + 1e-12
                if r >= cov:
                    assert u == pytest.approx(1.0, abs=1e-12)

            # both overlaps vanish at the packing radius
            assert dist_overlap(lat, pack) == 0.0
            assert abs(vol_overlap(lat, pack)) <= 1e-12

            # monotone in r
            rs = np.linspace(0.2 * pack, 1.2 * cov, 30)
            dens = [density(lat, float(r)) for r in rs]
            uni = [union_fraction(lat, float(r)) for r in rs]
            dov = [dist_overlap(lat, float(r)) for r in rs]
            vov = [vol_overlap(lat, float(r)) for r in rs]
            assert all(b > a for a, b in zip(dens, dens[1:]))
            for seq in (uni, dov, vov):
                assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))

            # continuity of the volume function across each breakpoint
            for rc in _breakpoints(n, d):
                lo_r, hi_r = rc * (1.0 - 1e-11), rc * (1.0 + 1e-11)
                if n == 2:
                    jump = abs(voronoi_ball_area(d, hi_r)
                               - voronoi_ball_area(d, lo_r))
                else:
                    jump = abs(voronoi_ball_volume_3d(d, hi_r)
                               - voronoi_ball_volume_3d(d, lo_r))
                assert jump <= TOL_CONTINUITY, (n, d, rc, jump)
    print(f"CRITERION 7 PASS: identity {TOL_IDENTITY}, bounds, "
          f"monotonicity, continuity {TOL_CONTINUITY} on all grids")


def _omega_switch(delta: float) -> float:
    rad = critical_radii_2d(delta)
    return vol_overlap_2d(delta, max(rad.r1, rad.r2))


def _qual_vol_2d(delta: float, omega: float) -> float:
    lat = DistortedLattice(2, delta)
    return qual_packing(lat, VOL, omega).density


def _fd_step(delta: float, omega: float) -> float:
    """Step small enough that the branch junctions move across the
    stencil by under a tenth of the sample's distance to them; the
    junction curvature otherwise dominates the truncation error."""
    ws, wc = _omega_switch(delta), covering_overlap_2d(delta)
    gap = min(omega - ws, wc - omega) if omega > ws else ws - omega
    h = 5e-4
    while h > 1e-6:
        motion = max(abs(_omega_switch(delta + s) - ws) for s in (h, -h))
        if motion <= 0.1 * gap:
            break
        h /= 2.0
    return h


def _richardson_fd(delta: float, omega: float) -> float:
    h = _fd_step(delta, omega)

    def central(step):
        return (_qual_vol_2d(delta + step, omega)
                - _qual_vol_2d(delta - step, omega)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def _branch_samples(rng, branch: str, count: int = 50):
    """Random (delta, omega) with margins so the finite-difference
    stencil stays inside a single smooth branch."""
    out = []
    while len(out) < count:
        if branch == "low":
            d = rng.uniform(0.08, THIRD - 0.03)
            ws = _omega_switch(d)
            w = rng.uniform(0.05, 0.90) * ws
        elif branch == "high":
            d = rng.uniform(THIRD + 0.03, 0.97)
            ws = _omega_switch(d)
            w = rng.uniform(0.05, 0.90) * ws
        else:
            d = rng.uniform(0.08, 0.97)
            if abs(d - THIRD) < 0.02:
                continue
            ws, wc = _omega_switch(d), covering_overlap_2d(d)
            w = ws + rng.uniform(0.15, 0.85) * (wc - ws)
        if w <= 1e-4:
            continue
        out.append((d, w))
    return out


def test_criterion_8_derivative_agreement():
    rng = np.random.default_rng(20240817)
    checked = 0
    for branch in ("low", "high", "mixed"):
        for d, w in _branch_samples(rng, branch):
            closed = density_derivative_2d(d, w)
            fd = _richardson_fd(d, w)
            if abs(closed) <= 1e-8:
                assert abs(fd) <= 1e-6, (branch, d, w, closed, fd)
            else:
                assert math.copysign(1.0, fd) == math.copysign(1.0, closed), (
                    branch, d, w, closed, fd)
            if abs(closed) > FD_ABS_FLOOR:
                rel = abs(fd - closed) / abs(closed)
                assert rel <= FD_REL_TOL, (branch, d, w, closed, fd, rel)
            checked += 1
    assert checked == 150
    print(f"CRITERION 8 PASS: sign and {FD_REL_TOL} relative agreement "
          f"at {checked} sampled points")
