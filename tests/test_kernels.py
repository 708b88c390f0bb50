"""Counting kernels: the residue-class decoder against brute force."""

import numpy as np
import pytest

from overlatt import _kernels
from overlatt.lattice import DistortedLattice, coverage_offsets


def _coeff_rows(lat, m, seed):
    # coefficient rows exactly as the estimators draw them
    return np.random.default_rng(seed).random((m, lat.n))


class TestCountCovered:
    @pytest.mark.parametrize("n,delta", [(2, 0.3), (2, 1.0), (3, 0.5),
                                         (3, 2.0), (4, 1.7)])
    def test_matches_brute_force(self, n, delta, brute_nearest):
        lat = DistortedLattice(n, delta)
        offsets, weight = coverage_offsets(lat)
        u = _coeff_rows(lat, 4000, seed=n * 100 + 1)
        d2, _ = brute_nearest(lat, u @ lat.basis.T)
        for r in [0.05, 0.3, 0.7, 1.4]:
            got = _kernels.count_covered(u, offsets, weight, r)
            assert got == int(np.count_nonzero(d2 <= r * r))

    def test_radius_zero_counts_nothing_random(self):
        lat = DistortedLattice(3, 1.0)
        offsets, weight = coverage_offsets(lat)
        u = _coeff_rows(lat, 1000, seed=5)
        assert _kernels.count_covered(u, offsets, weight, 0.0) == 0

    def test_exact_hit_at_radius_zero(self):
        lat = DistortedLattice(2, 1.0)
        offsets, weight = coverage_offsets(lat)
        u = np.zeros((1, 2))
        assert _kernels.count_covered(u, offsets, weight, 0.0) == 1

    def test_huge_radius_counts_everything(self):
        lat = DistortedLattice(3, 0.5)
        offsets, weight = coverage_offsets(lat)
        u = _coeff_rows(lat, 1000, seed=6)
        assert _kernels.count_covered(u, offsets, weight, 50.0) == 1000

    def test_blocks_count_like_one_pass(self):
        lat = DistortedLattice(3, 1.7)
        offsets, weight = coverage_offsets(lat)
        u = _coeff_rows(lat, 2 * _kernels._BLOCK + 17, seed=7)
        d2 = _kernels._squared_distances(u, offsets, weight)
        for r in (0.3, 0.6, 0.9):
            assert _kernels.count_covered(u, offsets, weight, r) == \
                int(np.count_nonzero(d2 <= r * r))

    def test_one_offset_per_residue_class(self):
        for n in (2, 3, 7, 10):
            offsets, weight = coverage_offsets(DistortedLattice(n, 0.7))
            assert offsets.shape == (n,)
            assert weight == 0.7 * 0.7 / n


def _class_loop_reference(u, offsets, weight):
    """The decoder with every class, class 0 included, in one loop."""
    n = u.shape[1]
    x = np.array(u.T, dtype=np.float64, order="C")
    total = x[0].copy()
    for t in range(1, n):
        total += x[t]
    x -= total / n
    tmp = np.empty_like(total)
    sq = x[0] * x[0]
    for t in range(1, n):
        np.multiply(x[t], x[t], out=tmp)
        sq += tmp
    cols = list(x)
    for i in range(n - 1):
        for j in range(n - 1 - i):
            lo, hi = cols[j], cols[j + 1]
            np.maximum(lo, hi, out=tmp)
            np.minimum(lo, hi, out=hi)
            cols[j], tmp = tmp, lo
    lead = np.zeros_like(total)
    w = np.empty_like(total)
    best = np.full_like(total, np.inf)
    for m in range(n):
        if m:
            lead -= cols[m - 1]
            lead -= cols[m - 1]
        np.subtract(total, m, out=w)
        np.abs(w, out=w)
        np.subtract(n, w, out=tmp)
        np.minimum(w, tmp, out=w)
        np.multiply(w, w, out=w)
        w *= weight
        w += lead
        w += offsets[m]
        np.minimum(best, w, out=best)
    best += sq
    return best


class TestSquaredDistances:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_class_zero_shortcut_is_exact(self, n):
        # class 0 skips adding its zero lead and offset and the abs of a
        # nonnegative sum; the results must not move by one bit
        rng = np.random.default_rng(80 + n)
        u = np.vstack([rng.random((3000, n)), np.zeros((1, n)),
                       np.full((1, n), 0.5), np.eye(n)[:1]])
        for delta in np.geomspace(0.05, 20.0, 9):
            offsets, weight = coverage_offsets(DistortedLattice(n,
                                                                float(delta)))
            got = _kernels._squared_distances(u, offsets, weight)
            assert np.array_equal(got, _class_loop_reference(u, offsets,
                                                             weight))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_window_search(self, n, brute_nearest):
        u = np.random.default_rng(40 + n).random((500, n))
        for delta in np.geomspace(0.05, 20.0, 20):
            lat = DistortedLattice(n, float(delta))
            got = _kernels._squared_distances(u, *coverage_offsets(lat))
            want, _ = brute_nearest(lat, u @ lat.basis.T)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestCountBeyondAllPlanes:
    def _setup(self, n, m, seed):
        rng = np.random.default_rng(seed)
        q = np.ascontiguousarray(rng.normal(size=(3000, n)))
        normals = rng.normal(size=(m, n))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        dists = rng.random(m) * 0.4
        return q, np.ascontiguousarray(normals), np.ascontiguousarray(dists)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_force(self, n):
        q, normals, dists = self._setup(n, 3, seed=n)
        want = int(((q @ normals.T) > dists[None, :]).all(axis=1).sum())
        assert _kernels.count_beyond_all_planes(q, normals, dists) == want

    def test_no_planes_counts_everything(self):
        q = np.ascontiguousarray(np.random.default_rng(0).normal(size=(100, 3)))
        normals = np.zeros((0, 3))
        dists = np.zeros(0)
        assert _kernels.count_beyond_all_planes(q, normals, dists) == 100


class TestBackendSelection:
    def test_active_backend_is_exported(self):
        assert _kernels.BACKEND == "numpy"
        assert callable(_kernels.count_covered)
        assert callable(_kernels.count_beyond_all_planes)
