"""Counting kernels: backend agreement and correctness vs brute force."""

import numpy as np
import pytest

from overlatt import _kernels
from overlatt._kernels import _mc_np
from overlatt.lattice import DistortedLattice, coverage_offsets

try:
    from overlatt._kernels import _mc_cy
except ImportError:
    _mc_cy = None

needs_cython = pytest.mark.skipif(_mc_cy is None,
                                  reason="compiled kernel not built")


def _cell_points(lat, m, seed):
    rng = np.random.default_rng(seed)
    u = rng.random((m, lat.n))
    return np.ascontiguousarray((u - np.rint(u)) @ lat.basis.T)


def _brute_covered(q, vecs, r):
    d2 = ((q[:, None, :] - vecs[None, :, :]) ** 2).sum(axis=2)
    return int((d2.min(axis=1) <= r * r).sum())


class TestCountCovered:
    @pytest.mark.parametrize("n,delta", [(2, 0.3), (2, 1.0), (3, 0.5),
                                         (3, 2.0), (4, 1.7)])
    def test_matches_brute_force(self, n, delta):
        lat = DistortedLattice(n, delta)
        vecs, norms = coverage_offsets(lat)
        q = _cell_points(lat, 4000, seed=n * 100 + 1)
        for r in [0.05, 0.3, 0.7, 1.4]:
            got = _mc_np.count_covered(q, vecs, norms, r)
            want = _brute_covered(q, vecs, r)
            assert got == want

    @needs_cython
    @pytest.mark.parametrize("n,delta", [(2, 0.3), (2, 1.0), (3, 0.5),
                                         (3, 2.0), (4, 1.7), (5, 0.4)])
    def test_backends_bit_identical(self, n, delta):
        lat = DistortedLattice(n, delta)
        vecs, norms = coverage_offsets(lat)
        q = _cell_points(lat, 50_000, seed=n * 7 + int(delta * 10))
        for r in [0.0, 0.1, 0.35, 0.8, 1.5, 3.0]:
            a = _mc_np.count_covered(q, vecs, norms, r)
            b = _mc_cy.count_covered(q, vecs, norms, r)
            assert a == b

    def test_radius_zero_counts_nothing_random(self):
        lat = DistortedLattice(3, 1.0)
        vecs, norms = coverage_offsets(lat)
        q = _cell_points(lat, 1000, seed=5)
        assert _mc_np.count_covered(q, vecs, norms, 0.0) == 0

    def test_exact_hit_at_radius_zero(self):
        lat = DistortedLattice(2, 1.0)
        vecs, norms = coverage_offsets(lat)
        q = np.zeros((1, 2))
        assert _mc_np.count_covered(q, vecs, norms, 0.0) == 1

    def test_huge_radius_counts_everything(self):
        lat = DistortedLattice(3, 0.5)
        vecs, norms = coverage_offsets(lat)
        q = _cell_points(lat, 1000, seed=6)
        assert _mc_np.count_covered(q, vecs, norms, 50.0) == 1000


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
        assert _mc_np.count_beyond_all_planes(q, normals, dists) == want

    @needs_cython
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_backends_bit_identical(self, n):
        q, normals, dists = self._setup(n, 3, seed=n + 20)
        a = _mc_np.count_beyond_all_planes(q, normals, dists)
        b = _mc_cy.count_beyond_all_planes(q, normals, dists)
        assert a == b

    def test_no_planes_counts_everything(self):
        q = np.ascontiguousarray(np.random.default_rng(0).normal(size=(100, 3)))
        normals = np.zeros((0, 3))
        dists = np.zeros(0)
        assert _mc_np.count_beyond_all_planes(q, normals, dists) == 100


class TestBackendSelection:
    def test_active_backend_is_exported(self):
        assert _kernels.BACKEND in ("cython", "numpy")
        assert callable(_kernels.count_covered)
        assert callable(_kernels.count_beyond_all_planes)
