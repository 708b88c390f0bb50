"""Counting kernels for the Monte Carlo estimators.

count_covered decodes L_delta from coefficient rows u, the points B u of
space, with one candidate lattice vector per residue class.  B = I + a J
scales the all-ones direction by delta and fixes its orthogonal
complement, so for c in Z^n

    |B (u - c)|^2 = |P (u - c)|^2 + (delta^2 / n) (sum u - sum c)^2,

with P the projection orthogonal to the all-ones vector.  Adding the
all-ones vector to c changes neither the first term nor m = sum c mod n,
so the first term only depends on the class m of c and the second one
picks, within the class, the integer congruent to m nearest to sum u.
If the coordinates of u spread less than 1 (every row of [0, 1)^n), the
class-m vector nearest to u in the first term is the 0/1 vector with
ones on the m largest coordinates of u (Conway & Sloane, "Fast
quantizing and decoding algorithms for lattice quantizers and codes",
IEEE Trans. IT 28, 1982).  With x = u - mean(u) sorted in descending
order and X_m the sum of its first m entries, class m costs

    |x|^2 - 2 X_m + m (n - m) / n + (delta^2 / n) w_m^2,

where w_m is the distance from sum u to the nearest integer congruent
to m modulo n, and the squared distance to the lattice is the least of
the n class costs: O(n^2) work per row and no table of lattice vectors.

Rows are decoded in blocks of _BLOCK rows whose columns stay in cache.
The Monte Carlo estimators pass a chunk whose rows are drawn only when
count_covered slices the next block, into one reused buffer (see
overlatt.oracle), so each block is decoded while it is still in cache.
Each row is sorted by a network of column-wise compare-exchanges, which
is several times faster than a per-row np.sort on short rows.
"""

import numpy as np

BACKEND = "numpy"

# rows drawn and decoded at a time: the n columns and the temporaries
# stay in cache
_BLOCK = 1 << 14


def _squared_distances(u: np.ndarray, offsets: np.ndarray,
                       weight: float) -> np.ndarray:
    """Squared distance to the lattice of each row of u (spread < 1).

    offsets[m] = m (n - m) / n and weight = delta^2 / n.
    """
    n = u.shape[1]
    x = np.array(u.T, dtype=np.float64, order="C")  # one row per coordinate
    total = x[0].copy()
    for t in range(1, n):
        total += x[t]
    x -= total / n
    tmp = np.empty_like(total)
    sq = x[0] * x[0]
    for t in range(1, n):
        np.multiply(x[t], x[t], out=tmp)
        sq += tmp
    # sort the coordinates of each row in descending order
    cols = list(x)
    for i in range(n - 1):
        for j in range(n - 1 - i):
            lo, hi = cols[j], cols[j + 1]
            np.maximum(lo, hi, out=tmp)
            np.minimum(lo, hi, out=hi)
            cols[j], tmp = tmp, lo
    # class 0 has X_0 = 0 and offset 0, and total >= 0 needs no abs
    best = np.subtract(n, total)
    np.minimum(total, best, out=best)
    best *= best
    best *= weight
    lead = np.zeros_like(total)  # -2 X_m
    w = np.empty_like(total)
    for m in range(1, n):
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


def count_covered(u: np.ndarray, offsets: np.ndarray, weight: float,
                  r: float) -> int:
    """Number of rows of u whose point B u lies within distance r of L_delta.

    Each row's coordinates must spread less than 1, as in [0, 1)^n.
    offsets and weight are the per-class data of
    lattice.coverage_offsets.  u is read once, in order, as the slices
    u[s:s + _BLOCK]: an array, or a row source with len() whose slices
    are arrays, such as the lazily drawn chunks of overlatt.oracle.
    """
    r2 = r * r
    covered = 0
    for s in range(0, len(u), _BLOCK):
        block = np.asarray(u[s:s + _BLOCK], dtype=np.float64)
        d2 = _squared_distances(block, offsets, weight)
        covered += int(np.count_nonzero(d2 <= r2))
    return covered


def count_beyond_all_planes(q: np.ndarray, normals: np.ndarray,
                            dists: np.ndarray) -> int:
    """Number of rows of q with q . normals[j] > dists[j] for every j."""
    q = np.asarray(q, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    dists = np.asarray(dists, dtype=np.float64)
    n = q.shape[1]
    alive = np.arange(q.shape[0])
    for j in range(normals.shape[0]):
        if alive.size == 0:
            break
        s = q[alive, 0] * normals[j, 0]
        for t in range(1, n):
            s = s + q[alive, t] * normals[j, t]
        alive = alive[s > dists[j]]
    return int(alive.size)


__all__ = ["count_covered", "count_beyond_all_planes", "BACKEND"]
