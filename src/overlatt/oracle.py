"""Monte Carlo estimators for union and overlap volumes.

Sampling is split into fixed-size chunks of 2**20 draws.  Chunk i uses the
Philox stream jumped(i) from the seed, and chunk results are integer counts,
so estimates are bit-identical for a given (seed, samples) no matter how the
chunks are scheduled across threads.

A chunk is drawn in blocks of _kernels._BLOCK rows, each into the same
reused buffer just before it is counted (_Draws), so each block is decoded
while it is still in cache and a chunk needs a few MB instead of
2**20 x n doubles.  Philox turns one uint64 into one double, in the order
in which rng.random fills its output, so the consecutive block draws are
exactly the rows of the one-shot draw rng.random((size, n)), and every
count and estimate stays bit-identical.

mc_union counts the draws u in [0, 1)^n whose point B u lies within r of
the lattice.  For c in Z^n,
|B (u - c)|^2 = |P (u - c)|^2 + (delta^2 / n) (sum u - sum c)^2 with P the
projection orthogonal to the all-ones vector; the first term depends on c
only through m = sum c mod n, so each of the n residue classes has one
candidate and the nearest one gives the distance (see overlatt._kernels).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .lattice import (DistortedLattice, _check_int, _check_radius,
                      coverage_offsets, unit_ball_volume)

CHUNK = 1 << 20

DEFAULT_SAMPLES_CI = 1_000_000


class McEstimate(NamedTuple):
    """A Monte Carlo estimate with its standard error and the
    sampling parameters that produced it."""

    mean: float
    std_error: float
    samples: int
    seed: int


def resolve_threads(par: int | None) -> int:
    """Thread count: par if given (an integer >= 1), else 1."""
    return 1 if par is None else _check_int("par", par, 1)


def _chunk_sizes(samples: int):
    full, rem = divmod(samples, CHUNK)
    sizes = [CHUNK] * full
    if rem:
        sizes.append(rem)
    return sizes


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


class _Draws:
    """The rows of rng.random((size, n)), drawn as they are read.

    The rows are read once, in order, as slices of at most _BLOCK rows;
    each slice is drawn into the same buffer and is valid until the next.
    len() is the row count, so _kernels.count_covered takes a _Draws as
    it takes an array of rows.
    """

    def __init__(self, rng: np.random.Generator, size: int, n: int):
        self._rng = rng
        self._size = size
        self._buf = np.empty((min(size, _kernels._BLOCK), n))
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(self._size)
        if start != self._next or step != 1 or stop - start > len(self._buf):
            raise IndexError("rows are read once, in order, in slices of at "
                             f"most {len(self._buf)} rows")
        block = self._buf[:stop - start]
        self._rng.random(out=block)
        self._next = stop
        return block


def _run_chunks(worker, samples: int, seed: int, par: int | None):
    """Sum integer results of worker(rng, size) over the chunk grid."""
    sizes = _chunk_sizes(samples)
    jobs = [(i, size) for i, size in enumerate(sizes)]
    threads = resolve_threads(par)

    def one(job):
        i, size = job
        return worker(_chunk_rng(seed, i), size)

    if threads == 1 or len(jobs) == 1:
        results = [one(j) for j in jobs]
    else:
        # imported here, so that importing overlatt loads neither
        # concurrent.futures nor the logging it pulls in
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, jobs))
    totals = results[0]
    if isinstance(totals, tuple):
        for extra in results[1:]:
            totals = tuple(a + b for a, b in zip(totals, extra))
        return totals
    return sum(results)


def _binomial_se(p: float, n: int) -> float:
    if n < 2 or p <= 0.0 or p >= 1.0:
        return 0.0
    return math.sqrt(p * (1.0 - p) / (n - 1))


def _validate_mc_args(r: float, samples: int, seed: int) -> tuple[int, int]:
    """samples and seed as Python ints, after checking all three."""
    _check_radius(r)
    # Philox takes a 128-bit key, so this range is every seed it can replay
    return _check_int("samples", samples, 1), _check_int("seed", seed, 0,
                                                          1 << 128)


def mc_union(lat: DistortedLattice, r: float, samples: int = DEFAULT_SAMPLES_CI,
             seed: int = 0, par: int | None = None) -> McEstimate:
    """Estimate the covered volume fraction of the fundamental cell.

    Points B u are drawn uniformly from the fundamental parallelepiped,
    u uniform in [0, 1)^n; the covered fraction equals
    vol(ball_r intersect Voronoi cell) / delta because the ball union is
    lattice-periodic.  The kernel decodes the coefficient rows u as
    drawn, one candidate per residue class of sum c mod n, so any
    dimension n >= 2 works.
    """
    samples, seed = _validate_mc_args(r, samples, seed)
    offsets, weight = coverage_offsets(lat)
    n = lat.n

    def worker(rng, size):
        return _kernels.count_covered(_Draws(rng, size, n), offsets,
                                      weight, r)

    covered = _run_chunks(worker, samples, seed, par)
    p = covered / samples
    return McEstimate(p, _binomial_se(p, samples), samples, seed)


def mc_vol_overlap(lat: DistortedLattice, r: float,
                   samples: int = DEFAULT_SAMPLES_CI, seed: int = 0,
                   par: int | None = None) -> McEstimate:
    """Estimate density minus covered fraction (the volume lost to overlap).

    Density is exact (unit_ball_volume(n) * r^n / delta), so the standard
    error is the union estimate's.  Any dimension n >= 2, as mc_union.
    """
    est = mc_union(lat, r, samples=samples, seed=seed, par=par)
    density = unit_ball_volume(lat.n) * r ** lat.n / lat.delta
    return McEstimate(density - est.mean, est.std_error, est.samples,
                      est.seed)


def mc_volume_region(r: float, planes, samples: int = DEFAULT_SAMPLES_CI,
                     seed: int = 0, par: int | None = None) -> McEstimate:
    """Estimate vol({x : |x| <= r and x . n_j > d_j for every plane}).

    planes is a nonempty sequence of (normal, distance) pairs; the region is
    the part of the ball beyond all of them, which is how cap pair and cap
    triple intersections are cross-checked.  Rejection from the cube
    [-r, r]^n; the estimate conditions on landing in the ball, scaling the
    exact ball volume by the conditional hit fraction.  `samples` counts
    requested cube draws, not ball hits.
    """
    samples, seed = _validate_mc_args(r, samples, seed)
    plist = list(planes)
    if not plist:
        raise ValueError("at least one plane is required")
    normals = np.ascontiguousarray([np.asarray(nrm, dtype=float)
                                    for nrm, _ in plist])
    dists = np.ascontiguousarray([float(d) for _, d in plist])
    if normals.ndim != 2:
        raise ValueError("plane normals must share one dimension")
    n = normals.shape[1]
    r2 = r * r

    def worker(rng, size):
        draws = _Draws(rng, size, n)
        beyond = nin = 0
        for start in range(0, size, _kernels._BLOCK):
            x = (2.0 * draws[start:start + _kernels._BLOCK] - 1.0) * r
            s = x[:, 0] * x[:, 0]
            for t in range(1, n):
                s = s + x[:, t] * x[:, t]
            xin = x[s <= r2]
            beyond += _kernels.count_beyond_all_planes(xin, normals, dists)
            nin += len(xin)
        return (beyond, nin)

    beyond, nin = _run_chunks(worker, samples, seed, par)
    if nin == 0:
        raise RuntimeError("no sample landed inside the ball; "
                           "increase the sample budget")
    vball = unit_ball_volume(n) * r ** n
    p = beyond / nin
    return McEstimate(vball * p, vball * _binomial_se(p, nin), samples, seed)
