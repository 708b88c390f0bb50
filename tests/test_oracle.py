"""Monte Carlo oracle: determinism, convergence, exact-value agreement."""

import math
import tracemalloc

import numpy as np
import pytest

from overlatt import _kernels
from overlatt._kernels import _BLOCK
from overlatt.lattice import (
    DistortedLattice,
    coverage_offsets,
    covering_radius,
    packing_radius,
    unit_ball_volume,
)
from overlatt.oracle import (
    CHUNK,
    McEstimate,
    _chunk_rng,
    _Draws,
    mc_union,
    mc_vol_overlap,
    mc_volume_region,
    resolve_threads,
)

HEX = DistortedLattice(2, 1.0 / math.sqrt(3.0))


def _one_shot_chunks(samples, seed, n):
    """Each chunk's rows drawn in one call, as the estimators once did."""
    full, rem = divmod(samples, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])
    for i, size in enumerate(sizes):
        yield _chunk_rng(seed, i).random((size, n))


class TestDeterminism:
    def test_bit_identical_repeat(self):
        a = mc_union(HEX, 0.45, samples=100_000, seed=123)
        b = mc_union(HEX, 0.45, samples=100_000, seed=123)
        assert a == b

    def test_independent_of_thread_count(self):
        # spans several chunks so scheduling actually varies
        n = 2 * CHUNK + 12_345
        a = mc_union(HEX, 0.45, samples=n, seed=9, par=1)
        b = mc_union(HEX, 0.45, samples=n, seed=9, par=3)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_seed_changes_result(self):
        a = mc_union(HEX, 0.45, samples=100_000, seed=1)
        b = mc_union(HEX, 0.45, samples=100_000, seed=2)
        assert a.mean != b.mean

    def test_estimate_records_sampling_parameters(self):
        est = mc_union(HEX, 0.3, samples=50_000, seed=77)
        assert isinstance(est, McEstimate)
        assert est.samples == 50_000
        assert est.seed == 77


class TestUnion:
    def test_zero_radius(self):
        est = mc_union(HEX, 0.0, samples=10_000, seed=0)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_exactly_one_beyond_covering(self):
        for n, delta in [(2, 1.0 / math.sqrt(3.0)), (3, 0.5), (3, 2.0),
                         (4, 1.3)]:
            lat = DistortedLattice(n, delta)
            r = covering_radius(lat) * 1.000001
            est = mc_union(lat, r, samples=50_000, seed=4)
            assert est.mean == 1.0
            assert est.std_error == 0.0

    def test_union_at_packing_equals_density(self):
        # no overlap at the packing radius, so union = V_n r^n / delta
        for n, delta in [(2, 1.0 / math.sqrt(3.0)), (3, 0.5), (3, 2.0)]:
            lat = DistortedLattice(n, delta)
            r = packing_radius(lat)
            est = mc_union(lat, r, samples=400_000, seed=11)
            exact = unit_ball_volume(n) * r ** n / delta
            assert abs(est.mean - exact) <= 3.5 * est.std_error

    def test_monotone_in_radius(self):
        rs = np.linspace(0.1, 0.5, 5)
        means = [mc_union(HEX, float(r), samples=100_000, seed=5).mean
                 for r in rs]
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_high_dimension_memory_is_bounded(self):
        # the decoder keeps no table of lattice vectors (a 5^n one would
        # take about 780 MB at n = 10)
        lat = DistortedLattice(10, 1.3)
        r = 0.5 * (packing_radius(lat) + covering_radius(lat))
        tracemalloc.start()
        try:
            est = mc_union(lat, r, samples=1 << 16, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert 0.0 < est.mean < 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            mc_union(HEX, -0.1, samples=100)
        with pytest.raises(ValueError):
            mc_union(HEX, 0.1, samples=0)

    def test_chunk_memory_is_bounded(self):
        # a chunk is drawn block by block: one 2^20 x 8 draw alone is 64 MB
        lat = DistortedLattice(8, 1.3)
        r = 0.5 * (packing_radius(lat) + covering_radius(lat))
        tracemalloc.start()
        try:
            est = mc_union(lat, r, samples=CHUNK, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert 0.0 < est.mean < 1.0


class TestArgumentValidation:
    @pytest.mark.parametrize("name,value", [
        ("samples", 1e5),
        ("samples", True),
        ("seed", 1.5),
        ("seed", -1),
        ("seed", 1 << 128),
        ("par", 1.5),
        ("par", True),
    ])
    def test_rejects_non_integer_or_out_of_range(self, name, value):
        kwargs = {"samples": 1000, "seed": 0, "par": 1, name: value}
        with pytest.raises(ValueError, match=name):
            mc_union(HEX, 0.3, **kwargs)

    def test_region_validates_seed(self):
        with pytest.raises(ValueError, match="seed"):
            mc_volume_region(1.0, [([1.0, 0.0], 0.0)], samples=100, seed=1.5)

    @pytest.mark.parametrize("par", [1.5, True])
    def test_resolve_threads_rejects(self, par):
        with pytest.raises(ValueError, match="par"):
            resolve_threads(par)

    def test_numpy_integers_accepted(self):
        a = mc_union(HEX, 0.3, samples=np.int64(5000), seed=np.uint64(3),
                     par=np.int32(2))
        assert a == mc_union(HEX, 0.3, samples=5000, seed=3, par=2)
        assert type(a.samples) is int and type(a.seed) is int

    def test_largest_seed_accepted(self):
        est = mc_union(HEX, 0.3, samples=1000, seed=(1 << 128) - 1)
        assert est.seed == (1 << 128) - 1


class TestBlockStreaming:
    """Drawing a chunk block by block gives the one-shot draw's counts."""

    def test_draws_are_the_one_shot_rows(self):
        size = 2 * _BLOCK + 9
        draws = _Draws(_chunk_rng(5, 1), size, 3)
        rows = [draws[s:s + _BLOCK].copy() for s in range(0, size, _BLOCK)]
        assert len(draws) == size
        assert np.array_equal(np.vstack(rows),
                              _chunk_rng(5, 1).random((size, 3)))

    def test_draws_are_read_once_in_order(self):
        draws = _Draws(_chunk_rng(5, 0), 3 * _BLOCK, 2)
        with pytest.raises(IndexError):
            draws[_BLOCK:2 * _BLOCK]
        with pytest.raises(IndexError):
            draws[0:_BLOCK + 1]
        draws[0:_BLOCK]
        with pytest.raises(IndexError):
            draws[0:_BLOCK]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_union_counts_match_one_shot_draw(self, n):
        lat = DistortedLattice(n, 0.7)
        offsets, weight = coverage_offsets(lat)
        r = 0.5 * (packing_radius(lat) + covering_radius(lat))
        cases = [(_BLOCK - 1, 1), (_BLOCK, 1), (_BLOCK + 1, 1),
                 (3 * _BLOCK + 5, 1), (CHUNK + _BLOCK + 3, 1),
                 (CHUNK + _BLOCK + 3, 2)]
        for samples, par in cases:
            covered = sum(_kernels.count_covered(u, offsets, weight, r)
                          for u in _one_shot_chunks(samples, 61, n))
            est = mc_union(lat, r, samples=samples, seed=61, par=par)
            assert 0 < covered < samples
            assert est.mean == covered / samples

    @pytest.mark.parametrize("par", [1, 2])
    def test_region_counts_match_one_shot_draw(self, par):
        r = 1.0
        planes = [([1.0, 0.0, 0.0], 0.1), ([0.0, 0.6, 0.8], -0.2)]
        normals = np.array([p for p, _ in planes])
        dists = np.array([d for _, d in planes])
        samples = CHUNK + 3 * _BLOCK + 7
        beyond = inside = 0
        for u in _one_shot_chunks(samples, 62, 3):
            x = (2.0 * u - 1.0) * r
            s = x[:, 0] * x[:, 0]
            for t in range(1, 3):
                s = s + x[:, t] * x[:, t]
            xin = np.ascontiguousarray(x[s <= r * r])
            beyond += _kernels.count_beyond_all_planes(xin, normals, dists)
            inside += len(xin)
        est = mc_volume_region(r, planes, samples=samples, seed=62, par=par)
        vball = unit_ball_volume(3)
        p = beyond / inside
        assert est.mean == vball * p
        assert est.std_error == vball * math.sqrt(p * (1.0 - p)
                                                  / (inside - 1))


class TestVolOverlap:
    def test_density_minus_union_same_stream(self):
        est_u = mc_union(HEX, 0.46, samples=100_000, seed=21)
        est_o = mc_vol_overlap(HEX, 0.46, samples=100_000, seed=21)
        density = unit_ball_volume(2) * 0.46 ** 2 / HEX.delta
        assert est_o.mean == pytest.approx(density - est_u.mean, abs=1e-15)
        assert est_o.std_error == est_u.std_error

    def test_zero_at_packing(self):
        r = packing_radius(HEX)
        est = mc_vol_overlap(HEX, r, samples=400_000, seed=22)
        assert abs(est.mean) <= 3.5 * max(est.std_error, 1e-12)


class TestConvergence:
    def test_error_halves_with_quadruple_samples(self):
        n1 = 200_000
        a = mc_union(HEX, 0.44, samples=n1, seed=31)
        b = mc_union(HEX, 0.44, samples=4 * n1, seed=31)
        ratio = a.std_error / b.std_error
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_estimate_within_3_sigma(self):
        lat = DistortedLattice(3, 1.0)
        est = mc_union(lat, 0.5, samples=1_000_000, seed=32)
        exact = math.pi / 6.0
        assert abs(est.mean - exact) <= 3.0 * est.std_error


class TestVolumeRegion:
    def test_single_cap(self):
        # cap cut by one plane: (pi/3) (r - d)^2 (2r + d)
        r, d = 1.0, 0.3
        est = mc_volume_region(r, [([0.0, 0.0, 1.0], d)],
                               samples=400_000, seed=41)
        exact = math.pi / 3.0 * (r - d) ** 2 * (2.0 * r + d)
        assert abs(est.mean - exact) <= 3.5 * est.std_error

    def test_half_ball(self):
        est = mc_volume_region(1.0, [([1.0, 0.0, 0.0], 0.0)],
                               samples=400_000, seed=42)
        exact = 2.0 * math.pi / 3.0
        assert abs(est.mean - exact) <= 3.5 * est.std_error

    def test_plane_beyond_radius_is_zero_exactly(self):
        est = mc_volume_region(1.0, [([0.0, 0.0, 1.0], 1.0)],
                               samples=50_000, seed=43)
        assert est.mean == 0.0

    def test_quarter_ball_intersection(self):
        # beyond two orthogonal planes through the origin: 1/4 of the ball
        planes = [([1.0, 0.0, 0.0], 0.0), ([0.0, 1.0, 0.0], 0.0)]
        est = mc_volume_region(1.0, planes, samples=400_000, seed=44)
        exact = math.pi / 3.0
        assert abs(est.mean - exact) <= 3.5 * est.std_error

    def test_octant_triple_intersection(self):
        planes = [([1.0, 0.0, 0.0], 0.0), ([0.0, 1.0, 0.0], 0.0),
                  ([0.0, 0.0, 1.0], 0.0)]
        est = mc_volume_region(1.0, planes, samples=400_000, seed=45)
        exact = math.pi / 6.0
        assert abs(est.mean - exact) <= 3.5 * est.std_error

    def test_2d_half_disk(self):
        est = mc_volume_region(2.0, [([1.0, 0.0], 0.0)],
                               samples=200_000, seed=46)
        assert abs(est.mean - 2.0 * math.pi) <= 3.5 * est.std_error

    def test_samples_field_counts_cube_draws(self):
        est = mc_volume_region(1.0, [([0.0, 0.0, 1.0], 0.2)],
                               samples=123_456, seed=47)
        assert est.samples == 123_456

    def test_empty_planes_rejected(self):
        with pytest.raises(ValueError):
            mc_volume_region(1.0, [])


class TestThreadResolution:
    def test_explicit_wins(self):
        assert resolve_threads(4) == 4

    def test_default_is_one(self):
        assert resolve_threads(None) == 1

    def test_environment_is_not_read(self, monkeypatch):
        monkeypatch.setenv("OVERLATT_THREADS", "zero")
        lat = DistortedLattice(3, 0.7)
        assert (mc_union(lat, 0.6, samples=20_000, seed=5, par=None)
                == mc_union(lat, 0.6, samples=20_000, seed=5, par=1))

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_threads(0)
