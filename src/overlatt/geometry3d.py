"""3D cell-ball volumes via spherical caps and their intersections.

For 0 < delta < 1 the Voronoi cell has 14 faces (6 from the +-basis
columns at r1, 6 from +-column pair sums at r2, 2 from the +-diagonal at
r3), 36 edges in five subtypes at r4 and r5, and 24 vertices at r6, the
covering radius.  At delta = 1 it is the cube.  For delta > 1 the cell
has 12 faces (the +-columns and the +-column differences), and the
vertices split into two apexes and six side vertices at s1 and six
four-valent vertices at s2.

The arrangement is built from this catalog, written in integer
coefficient vectors: a few representative faces and vertices (each
vertex as the set of faces through it) per regime, expanded under the
cell isometries.  Faces, vertex incidences and edges (face pairs through
two common vertices) are therefore exact; only the face normals and
distances, the vertex positions and the activation radii are computed in
floating point.  Deltas within 1e-9 of 1 take the cube.  Everything the
catalog fixes (face coefficients, incidences, edge subtypes, and the
pair and triple orbits below) depends only on the regime (`below`,
`cube`, `above`) and is built once per regime in `_regime_tables`; a
new delta computes only the planes, vertices, edge feet and activations.
That build checks its nearest face against the closed-form packing
radius and its farthest vertex against the covering radius, to 1e-9
relative, and raises where the float basis has lost the cell (delta
below about 1e-7 or above about 1e8).

vol(cell ∩ ball) is computed by inclusion-exclusion over the face caps:
ball volume, minus caps, plus pairwise cap intersections, minus triple
intersections.  Below the covering radius only the face lattice of the
cell enters: the faces, the edges as face pairs and the three-valent
vertices as face triples.  A point of the ball outside the cell lies
beyond some set of faces, and those closed faces, the faces visible from
it, form a shellable ball on the cell boundary (Bruggesser & Mani,
"Shellable decompositions of cells and spheres", Math. Scand. 29, 1971).
Two of them meet, if at all, in an edge and three in a three-valent
vertex, so faces minus edges plus vertices among them is the Euler
characteristic of their nerve, 1, and the point is counted once.  This
is the nerve argument of Edelsbrunner's short inclusion-exclusion ("The
union of balls and its dual shape", DCG 13, 1995).  A four-valent vertex
(delta > 1) would add terms through its diagonal face pairs, which meet
only there, but it lies at s2, the covering radius: no nearer point lies
beyond both diagonal faces, and from s2 on the volume is the cell volume
delta.

The coordinate permutations and the central inversion map L_delta onto
itself (P B = B P), so they permute the faces, edges and vertices.  The
arrangement groups the edge and vertex terms into orbits under these 12
isometries and stores one activation per orbit; inclusion-exclusion
evaluates one representative per orbit and weights it by the orbit size.
An edge term enters at the edge line, a vertex term at the least-norm
point of its three halfspaces (a tiny active-set QP), which need not be
the vertex.  Pair and triple volumes are both closed form by the
divergence theorem, 3V = r * A_sphere - sum_i d_i * A_face_i; the
triple's spherical patch comes from Gauss-Bonnet on the intersection of
three caps.

The face caps are evaluated once per distinct face distance (1 to 5 per
cell) and still subtracted once per face, in plane order, so the sum is
bit for bit the one-cap-per-face sum.  The distances are keyed by their
exact floats, not by face orbit: the faces of one orbit can lie an ulp
apart.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import (
    DistortedLattice,
    _check_delta,
    _check_radius,
    _unit_ball_volume,
    covering_radius,
    packing_radius,
)

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

#: plane, edge and vertex multiplicities of the delta <= 1 catalog
CATALOG_COUNTS = (6, 6, 2, 18, 18, 24)


@dataclass(frozen=True)
class CriticalRadii3D:
    """Face, edge and vertex distances of the cell for delta in (0, 1]."""

    r1: float  # 6 faces, +-basis columns
    r2: float  # 6 faces, +-column pair sums
    r3: float  # 2 faces, +-diagonal
    r4: float  # 18 edges joining two single-column-type faces
    r5: float  # 18 edges involving the diagonal-type neighbors
    r6: float  # 24 vertices; equals the covering radius
    delta: float


@dataclass(frozen=True)
class DualRadii3D:
    """Vertex distances of the cell for delta >= 1."""

    s1: float  # 2 apex vertices on the diagonal axis
    s2: float  # 6 four-valent vertices; equals the covering radius
    delta: float


def critical_radii_3d(delta: float) -> CriticalRadii3D:
    """The six critical radii for delta in (0, 1]."""
    _check_delta(delta)
    if delta > 1.0:
        raise ValueError(f"catalog covers delta in (0, 1], got {delta}")
    d2 = delta * delta
    r1 = math.sqrt((d2 + 2.0) / 12.0)
    r2 = math.sqrt((2.0 * d2 + 1.0) / 6.0)
    r3 = delta * _SQRT3 / 2.0
    r4 = (d2 + 2.0) / (3.0 * _SQRT2)
    r5 = math.sqrt((d2 + 2.0) * (2.0 * d2 + 1.0)) / (2.0 * _SQRT3)
    r6 = math.sqrt(8.0 * d2 * d2 + 11.0 * d2 + 8.0) / 6.0
    return CriticalRadii3D(r1, r2, r3, r4, r5, r6, delta)


def dual_radii_3d(delta: float) -> DualRadii3D:
    """The two vertex radii for delta >= 1.  OverflowError where delta^2
    overflows (delta above about 1.34e154), as covering_radius raises."""
    _check_delta(delta)
    if delta < 1.0:
        raise ValueError(f"dual catalog covers delta >= 1, got {delta}")
    d2 = delta * delta
    if d2 == math.inf:
        raise OverflowError(f"delta^2 overflows at delta={delta!r}")
    s1 = (d2 + 2.0) / (2.0 * _SQRT3 * delta)
    s2 = math.sqrt(d2 + 8.0) / (2.0 * _SQRT3)
    return DualRadii3D(s1, s2, delta)


def ordering_regime(delta: float) -> int:
    """Which of the four radius orderings holds; ties go to the lower tag.

    Decided by direct comparison of the evaluated radii, not by threshold
    constants: regime 1 has r3 <= r1, regime 2 has r1 < r3 <= r2, regime 3
    has r2 < r3 <= r4, regime 4 has r4 < r3.
    """
    rad = critical_radii_3d(delta)
    if rad.r3 <= rad.r1:
        return 1
    if rad.r3 <= rad.r2:
        return 2
    if rad.r3 <= rad.r4:
        return 3
    return 4


# -- cap volumes -------------------------------------------------------------


def spherical_cap_volume(r: float, d: float) -> float:
    """Volume of the ball part beyond a plane at distance d from the center.

    Zero once d >= r; the full ball once d <= -r.
    """
    _check_radius(r)
    if math.isnan(d):
        raise ValueError("plane distances must not be NaN")
    if d >= r:
        return 0.0
    if d <= -r:
        return 4.0 * math.pi * r ** 3 / 3.0
    return math.pi / 3.0 * (r - d) ** 2 * (2.0 * r + d)


def _clamp(x: float) -> float:
    return min(1.0, max(-1.0, x))


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array; equal to np.linalg.norm(x),
    without its dispatch."""
    return math.sqrt(float(x @ x))


def _unit_normal(nrm) -> np.ndarray:
    n = np.asarray(nrm, dtype=float)
    # written so that a NaN norm fails too
    if not abs(_norm(n) - 1.0) < 1e-12:
        raise ValueError("plane normals must be unit vectors")
    return n


def _plane(plane) -> tuple:
    """A validated (unit normal array, float distance) pair."""
    nrm, d = plane
    d = float(d)
    if math.isnan(d):
        raise ValueError("plane distances must not be NaN")
    return _unit_normal(nrm), d


def _segment_area(rho: float, c: float) -> float:
    """Area of the disk part {y in disk(rho) : <y, u> >= c} for unit u."""
    if c <= -rho:
        return math.pi * rho * rho
    if c >= rho:
        return 0.0
    return rho * rho * math.acos(c / rho) - c * math.sqrt(rho * rho - c * c)


def _norm_cross(u, v) -> float:
    """|u x v|, accurate also for nearly parallel u and v."""
    return math.sqrt((u[1] * v[2] - u[2] * v[1]) ** 2
                     + (u[2] * v[0] - u[0] * v[2]) ** 2
                     + (u[0] * v[1] - u[1] * v[0]) ** 2)


def cap_pair_intersection_volume(r: float, plane1, plane2) -> float:
    """Volume of the ball region beyond both planes (a spherical lens).

    Each plane is (unit normal, signed distance from the ball center).
    Divergence theorem: 3V = r * A_sphere - d1 * A_face1 - d2 * A_face2,
    with the spherical patch area from the two cone half-angles and the
    dihedral geometry, and each flat face a circular segment.
    """
    _check_radius(r)
    n1, d1 = _plane(plane1)
    n2, d2 = _plane(plane2)
    if r == 0.0 or d1 >= r or d2 >= r:
        return 0.0
    if d1 <= -r:
        return spherical_cap_volume(r, d2)
    if d2 <= -r:
        return spherical_cap_volume(r, d1)
    cg = _clamp(float(n1 @ n2))
    # from the cross product too, so (anti)parallel normals are caught
    # below even when rounding leaves |cg| a few ulps short of 1
    gamma = math.atan2(_norm_cross(n1, n2), cg)
    if gamma < 1e-12:
        return spherical_cap_volume(r, max(d1, d2))
    if gamma > math.pi - 1e-12:
        # antiparallel normals bound a slab
        return max(0.0, spherical_cap_volume(r, d1)
                   - spherical_cap_volume(r, -d2))
    th1 = math.acos(_clamp(d1 / r))
    th2 = math.acos(_clamp(d2 / r))
    if gamma >= th1 + th2:
        return 0.0
    if gamma <= abs(th1 - th2):
        # one cap contains the other
        return spherical_cap_volume(r, max(d1, d2))
    sg = math.sin(gamma)
    c1, s1 = d1 / r, math.sin(th1)
    c2, s2 = d2 / r, math.sin(th2)
    alpha_p = math.acos(_clamp((cg - c1 * c2) / (s1 * s2)))
    alpha_a = math.acos(_clamp((c2 - c1 * cg) / (s1 * sg)))
    alpha_b = math.acos(_clamp((c1 - c2 * cg) / (s2 * sg)))
    a_sphere = 2.0 * r * r * ((math.pi - alpha_p)
                              - alpha_a * c1 - alpha_b * c2)
    rho1 = math.sqrt(max(r * r - d1 * d1, 0.0))
    rho2 = math.sqrt(max(r * r - d2 * d2, 0.0))
    e1 = (d2 - d1 * cg) / sg
    e2 = (d1 - d2 * cg) / sg
    a_face1 = _segment_area(rho1, e1)
    a_face2 = _segment_area(rho2, e2)
    vol = (r * a_sphere - d1 * a_face1 - d2 * a_face2) / 3.0
    return max(vol, 0.0)


# -- least-norm activation of a halfspace intersection -----------------------


def _activation_radius(normals: np.ndarray, dists: np.ndarray) -> float:
    """Norm of the least-norm point with <x, n_i> >= d_i for every i.

    Enumerates active subsets; the least-norm point on each active affine
    set that is feasible for the rest is a candidate, and the true minimum
    is among them.  Returns inf when the intersection is empty.
    """
    m = len(dists)
    if all(d <= 0.0 for d in dists):
        return 0.0
    best = math.inf
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        a = normals[idx]
        g = a @ a.T
        try:
            lam = np.linalg.solve(g, dists[idx])
        except np.linalg.LinAlgError:
            continue
        x = a.T @ lam
        # a singular active set can slip past solve() with garbage lam;
        # a genuine candidate satisfies its own equalities
        if float(np.max(np.abs(a @ x - dists[idx]))) > 1e-9:
            continue
        feasible = True
        for j in range(m):
            if not (mask >> j & 1) and float(x @ normals[j]) < dists[j] - 1e-12:
                feasible = False
                break
        if feasible:
            best = min(best, float(np.linalg.norm(x)))
    return best


# -- triple intersections -----------------------------------------------------


def _disk_two_halfplanes(rho: float, u1, e1: float, u2, e2: float) -> float:
    """Area of disk(rho) cut by <y, u1> >= e1 and <y, u2> >= e2."""
    tol = 1e-12 * max(1.0, rho)
    verts = []
    for (u, e), (uo, eo) in (((u1, e1), (u2, e2)), ((u2, e2), (u1, e1))):
        h2 = rho * rho - e * e
        if h2 <= 0.0:
            continue
        h = math.sqrt(h2)
        px, py = e * u[0], e * u[1]
        qx, qy = -u[1], u[0]
        for sgn in (1.0, -1.0):
            y = (px + sgn * h * qx, py + sgn * h * qy)
            if y[0] * uo[0] + y[1] * uo[1] >= eo - tol:
                verts.append(y)
    det = u1[0] * u2[1] - u1[1] * u2[0]
    if abs(det) > 1e-12:
        y = ((e1 * u2[1] - e2 * u1[1]) / det,
             (u1[0] * e2 - u2[0] * e1) / det)
        if y[0] * y[0] + y[1] * y[1] <= rho * rho * (1.0 + 1e-12):
            verts.append(y)
    uniq = []
    for y in verts:
        if all((y[0] - z[0]) ** 2 + (y[1] - z[1]) ** 2 > tol * tol
               for z in uniq):
            uniq.append(y)
    if len(uniq) < 2:
        return 0.0
    cx = sum(y[0] for y in uniq) / len(uniq)
    cy = sum(y[1] for y in uniq) / len(uniq)
    uniq.sort(key=lambda y: math.atan2(y[1] - cy, y[0] - cx))
    on_circle = [abs(math.hypot(*y) - rho) < 1e-9 * max(1.0, rho)
                 for y in uniq]
    area = 0.0
    for k in range(len(uniq)):
        ax, ay = uniq[k]
        bx, by = uniq[(k + 1) % len(uniq)]
        if on_circle[k] and on_circle[(k + 1) % len(uniq)]:
            ta = math.atan2(ay, ax)
            dth = (math.atan2(by, bx) - ta) % (2.0 * math.pi)
            tm = ta + 0.5 * dth
            mx, my = rho * math.cos(tm), rho * math.sin(tm)
            if (mx * u1[0] + my * u1[1] >= e1 - tol
                    and mx * u2[0] + my * u2[1] >= e2 - tol):
                area += 0.5 * rho * rho * dth
                continue
        area += 0.5 * (ax * by - bx * ay)
    return max(area, 0.0)


def _disk_area_cut(rho: float, constraints) -> float:
    """Area of disk(rho) under up to two halfplane constraints (u, e)."""
    if rho <= 0.0:
        return 0.0
    active = []
    for u, e in constraints:
        if e >= rho:
            return 0.0
        if e > -rho:
            active.append((u, e))
    if not active:
        return math.pi * rho * rho
    if len(active) == 1:
        return _segment_area(rho, active[0][1])
    (u1, e1), (u2, e2) = active
    return _disk_two_halfplanes(rho, u1, e1, u2, e2)


def _frame(n):
    """Two unit vectors completing the unit vector n to a right-handed
    orthonormal frame (f1, f2, n), without branching near the poles
    (Duff et al., J. Comput. Graph. Tech. 6, 2017)."""
    nx, ny, nz = n
    sign = math.copysign(1.0, nz)
    a = -1.0 / (sign + nz)
    b = nx * ny * a
    return ((1.0 + sign * nx * nx * a, sign * b, -sign * nx),
            (b, sign + ny * ny * a, -ny))


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# azimuths closer than this are one point of the circle: three circles
# through one point must not leave a sliver arc or double-count a corner
_TIE = 1e-12


def _arc_cut(arc_j, arc_k):
    """Arc length and endpoint turning of circle i inside two caps.

    Each argument describes the part of circle i inside one cap: True
    (all of it), False (none of it), or (start azimuth, length, turning
    angle at the two crossing points).  Returns the total length of the
    intersection and half the turning angle of each of its endpoints;
    every corner is the endpoint of an arc on each of its two circles,
    so the halves add up to the full turning angle.  Where both arcs end
    at one point the three tangent halfplanes there bound a sector whose
    two extreme sides give the corner, so the larger angle counts.
    """
    if arc_j is False or arc_k is False:
        return 0.0, 0.0
    if arc_j is True and arc_k is True:
        return 2.0 * math.pi, 0.0
    if arc_j is True or arc_k is True:
        _, length, eps = arc_k if arc_j is True else arc_j
        return length, eps
    s_j, len_j, eps_j = arc_j
    s_k, len_k, eps_k = arc_k
    both = max(eps_j, eps_k)
    # in the frame where arc j is [0, len_j], arc k starts at x; it may
    # also reach [0, len_j] after wrapping once around the circle
    x = (s_k - s_j) % (2.0 * math.pi)
    length = turn = 0.0
    for lo in (x, x - 2.0 * math.pi):
        hi = lo + len_k
        if min(len_j, hi) - max(0.0, lo) <= _TIE:
            continue
        length += min(len_j, hi) - max(0.0, lo)
        if abs(lo) < _TIE:
            turn += 0.5 * both
        else:
            turn += 0.5 * (eps_j if lo < 0.0 else eps_k)
        if abs(hi - len_j) < _TIE:
            turn += 0.5 * both
        else:
            turn += 0.5 * (eps_j if hi > len_j else eps_k)
    return length, turn


def _triple_divergence(r: float, normals, dists) -> float:
    """Volume beyond three planes at distances d_i >= 0 inside ball(r).

    Divergence theorem: 3V = r * A_sphere - sum_i d_i * A_face_i.  On
    the unit sphere the patch is the intersection of three caps of
    cosine c_i = d_i / r, and Gauss-Bonnet gives its area as 2 pi minus
    c_i times the arc angle on each boundary circle minus the turning
    angle at each corner.  Each face is the disk of its plane cut by
    the other two planes.
    """
    c = [d / r for d in dists]
    s = [math.sqrt(max((r - d) * (r + d), 0.0)) / r for d in dists]
    curve = 0.0  # sum of c_i * arc angle plus the corner turning angles
    arcs_total = 0.0
    faces = 0.0
    for i in range(3):
        f1, f2 = _frame(normals[i])
        arcs = []
        cons = []
        for o in range(3):
            if o == i:
                continue
            g = _dot(normals[i], normals[o])
            s_io = _norm_cross(normals[i], normals[o])
            if s_io < 1e-12:
                # opposite planes at d >= 0 leave no volume between them;
                # parallel ones never get here, the redundancy check
                # returns their pair lens
                return 0.0
            px, py = _dot(normals[o], f1), _dot(normals[o], f2)
            # offset of plane o's trace on the plane of circle i, per unit r
            q = (c[o] - g * c[i]) / s_io
            cons.append(((px / s_io, py / s_io), r * q))
            h2 = s[i] * s[i] - q * q
            if h2 <= 0.0:
                arcs.append(q < 0.0)
                continue
            h = math.sqrt(h2)
            half = math.atan2(h, q)
            arcs.append((math.atan2(py, px) - half, 2.0 * half,
                         math.atan2(h * s_io, g - c[i] * c[o])))
        length, turn = _arc_cut(*arcs)
        arcs_total += length
        curve += c[i] * length + turn
        faces += dists[i] * _disk_area_cut(r * s[i], cons)
    if arcs_total <= 0.0:
        return 0.0
    a_sphere = r * r * (2.0 * math.pi - curve)
    return (r * a_sphere - faces) / 3.0


@lru_cache(maxsize=4096)
def _triple_checks(normals: tuple, dists: tuple):
    """The radius-independent part of a cap triple: the pair (i, j) whose
    lens the region is when plane k is redundant on it, else None, and
    the activation radius.

    n_k = alpha n_i + beta n_j with alpha, beta >= 0 and
    alpha d_i + beta d_j >= d_k makes constraint k implied on the lens.
    Memoized per plane triple, so inclusion-exclusion, which evaluates
    one representative per triple orbit at every radius, runs the
    least-squares fits and the active-set solves once per orbit.
    """
    normals, dists = np.array(normals), np.array(dists)
    lens = None
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        m = np.column_stack([normals[i], normals[j]])
        sol, *_ = np.linalg.lstsq(m, normals[k], rcond=None)
        if float(np.linalg.norm(m @ sol - normals[k])) < 1e-10:
            alpha, beta = float(sol[0]), float(sol[1])
            if (alpha >= -1e-12 and beta >= -1e-12
                    and alpha * dists[i] + beta * dists[j]
                    >= dists[k] - 1e-12):
                lens = (i, j)
                break
    return lens, _activation_radius(normals, dists)


def cap_triple_intersection_volume(r: float, plane1, plane2, plane3) -> float:
    """Volume of the ball region beyond all three planes.

    If one plane is a nonnegative combination of the other two that its
    offset makes redundant on their lens, the region degenerates to that
    pair lens and the pair closed form is returned (this keeps the
    inclusion-exclusion cancellation exact).  A plane at negative
    distance is traded for its complement:
    triple(p1, p2, (n3, d3)) = pair(p1, p2) - triple(p1, p2, (-n3, -d3)).
    With every distance >= 0 the region meets the sphere in one convex
    patch, and the volume is closed form by the divergence theorem,
    3V = r * A_sphere - sum_i d_i * A_face_i, with A_sphere from
    Gauss-Bonnet on the intersection of three caps and each A_face the
    disk of one plane cut by the other two.  The terms are of size r^3,
    so the error is a few ulps of r^3 (more for thin caps): a tiny
    volume is exact in absolute, not in relative terms.
    """
    _check_radius(r)
    # a numpy scalar radius would make the arc flags numpy bools
    r = float(r)
    normals, dists = zip(*(_plane(p) for p in (plane1, plane2, plane3)))
    if r == 0.0 or any(d >= r for d in dists):
        return 0.0
    for k in range(3):
        if dists[k] <= -r:
            i, j = [t for t in range(3) if t != k]
            return cap_pair_intersection_volume(
                r, (normals[i], dists[i]), (normals[j], dists[j]))
    unit = tuple(tuple(float(x) for x in n) for n in normals)
    lens, activation = _triple_checks(unit, tuple(dists))
    if lens is not None:
        i, j = lens
        return cap_pair_intersection_volume(
            r, (normals[i], dists[i]), (normals[j], dists[j]))
    if activation >= r:
        return 0.0
    for k in range(3):
        if dists[k] < 0.0:
            i, j = [t for t in range(3) if t != k]
            pi, pj = (normals[i], dists[i]), (normals[j], dists[j])
            return max(0.0, cap_pair_intersection_volume(r, pi, pj)
                       - cap_triple_intersection_volume(
                           r, pi, pj, (-normals[k], -dists[k])))
    return max(_triple_divergence(r, unit, dists), 0.0)


# -- the cap arrangement of a cell -------------------------------------------


@dataclass(frozen=True)
class Plane:
    """One cell face: integer coefficient vector, unit normal, distance."""

    coeffs: tuple
    normal: np.ndarray = field(compare=False)
    distance: float = 0.0


@dataclass(frozen=True)
class Edge:
    """One cell edge: the face pair it joins, its line distance, subtype."""

    planes: tuple
    distance: float
    subtype: str


@dataclass(frozen=True)
class Vertex:
    """One cell vertex: position, distance from the center, face valence."""

    position: np.ndarray = field(compare=False)
    distance: float = 0.0
    valence: int = 0


@dataclass(frozen=True)
class TermOrbit:
    """Face pairs or triples that the cell isometries map onto each other.

    members are face index tuples in index order, so members[0] is the
    representative; every member shares the activation distance and the
    cap intersection volume.
    """

    members: tuple
    activation: float

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CapArrangement:
    """Faces, edges and vertices of a cell, plus its cap terms.

    face_distances are the distinct face distances in ascending order
    and face_slots, per plane, the index of its distance there, so
    inclusion-exclusion evaluates one cap per distinct distance.
    pair_orbits are the symmetry orbits of the edges (as face pairs) and
    triple_orbits those of the three-valent vertices (as face triples),
    each with the radius at which its cap intersection starts;
    inclusion-exclusion evaluates one representative per orbit and
    weights it by the orbit size.  degenerate flags deltas within 1e-9
    of 1, where the cell is taken to be the cube.
    """

    delta: float
    degenerate: bool
    planes: tuple
    face_distances: tuple
    face_slots: tuple
    edges: tuple
    vertices: tuple
    pair_orbits: tuple
    triple_orbits: tuple

    def plane_distance_multiset(self):
        """Face distances with multiplicities, as {distance: count}."""
        out = {}
        for p in self.planes:
            key = round(p.distance, 9)
            out[key] = out.get(key, 0) + 1
        return out

    def edge_subtype_counts(self):
        """Edge counts per subtype tag."""
        out = {}
        for e in self.edges:
            out[e.subtype] = out.get(e.subtype, 0) + 1
        return out

    def vertex_distance_multiset(self):
        """Vertex distances with multiplicities, as {distance: count}."""
        out = {}
        for v in self.vertices:
            key = round(v.distance, 9)
            out[key] = out.get(key, 0) + 1
        return out


def _coeff_type(v) -> int:
    """Classify an integer vector by its nonzero pattern.

    1: single +-e_i, 2: same-sign pair sum, 3: +-full diagonal,
    4: mixed-sign pair, 5: mixed-sign triple, 0: anything else.
    """
    nz = sorted(abs(int(x)) for x in v if x != 0)
    pos = sum(1 for x in v if x > 0)
    neg = sum(1 for x in v if x < 0)
    if nz == [1]:
        return 1
    if nz == [1, 1]:
        return 2 if pos == 2 or neg == 2 else 4
    if nz == [1, 1, 1]:
        return 3 if pos == 3 or neg == 3 else 5
    return 0


def _line_foot(n1: np.ndarray, d1: float, n2: np.ndarray, d2: float):
    """Least-norm point on the intersection line of two nonparallel planes."""
    a = float(n1 @ n2)
    # a^2 rounds to 1 or more once floating point cannot tell the faces
    # apart; otherwise 1 - a^2 is at least 2^-53
    den = 1.0 - a * a
    if not den > 0.0:
        raise ValueError("two adjacent cell faces are parallel in floating "
                         "point")
    return ((d1 - a * d2) * n1 + (d2 - a * d1) * n2) / den


# The cell isometries: the coordinate permutations, each with and without
# the central inversion.  P B = B P and -B v = B (-v), so they map L_delta
# onto itself and act on the integer coefficient vectors of the faces.
_ISOMETRIES = tuple((perm, sign)
                    for perm in itertools.permutations(range(3))
                    for sign in (1, -1))


def _image(coeffs, isometry) -> tuple:
    perm, sign = isometry
    return tuple(sign * coeffs[q] for q in perm)


# Face and vertex representatives of the cell in each regime, in integer
# coefficient vectors; the isometries expand them to the whole cell.  A
# vertex is given by the set of faces through it.
_CATALOG = {
    # 14 faces, one +- pair per nonzero class of Z^3 / 2Z^3; 24 vertices
    "below": (((-1, 0, 0), (-1, -1, 0), (-1, -1, -1)),
              (((-1, 0, 0), (-1, -1, 0), (-1, -1, -1)),
               ((-1, 0, 0), (-1, -1, 0), (0, 0, 1)))),
    # the cube: 6 column faces, 8 corners
    "cube": (((-1, 0, 0),),
             (((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
              ((-1, 0, 0), (0, -1, 0), (0, 0, 1)))),
    # 12 faces; 6 side vertices and 2 apexes at s1, 6 four-valent at s2
    "above": (((-1, 0, 0), (-1, 1, 0)),
              (((-1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
               ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
               ((-1, 0, 0), (-1, 0, 1), (0, -1, 0), (0, -1, 1)))),
}


def _term_orbits(images, terms) -> tuple:
    """Orbits of the sorted face index tuples terms, a set the isometries
    map onto itself, each as its members in index order, in the order of
    their first members."""
    orbits = []
    seen = set()
    for term in terms:
        if term in seen:
            continue
        members = {tuple(sorted(img[t] for t in term)) for img in images}
        seen |= members
        orbits.append(tuple(sorted(members)))
    return tuple(orbits)


@dataclass(frozen=True)
class _RegimeTables:
    """The delta-free part of a cell: everything its catalog fixes."""

    coeffs: tuple
    points: np.ndarray  # coeffs as a read-only float array
    incidences: tuple
    vertex_faces: np.ndarray  # the first three faces of each vertex
    edges: tuple  # ((i, j), subtype)
    pair_orbits: tuple  # of the edges
    triple_orbits: tuple  # of the three-valent vertices


@lru_cache(maxsize=None)
def _regime_tables(regime: str) -> _RegimeTables:
    face_reps, vertex_reps = _CATALOG[regime]
    # faces in lexicographic coefficient order
    coeffs = tuple(sorted({_image(c, g) for c in face_reps
                           for g in _ISOMETRIES}))
    points = np.array(coeffs, dtype=float)
    points.flags.writeable = False

    # images[g][i] is the face that isometry g maps face i to
    index = {c: i for i, c in enumerate(coeffs)}
    images = [[index[_image(c, g)] for c in coeffs] for g in _ISOMETRIES]

    # vertices as sorted face index tuples
    incidences = tuple(sorted({tuple(sorted(img[index[c]] for c in rep))
                               for rep in vertex_reps for img in images}))
    vertex_faces = np.array([faces[:3] for faces in incidences])
    vertex_faces.flags.writeable = False

    # edges: face pairs through two common vertices (the diagonal pairs
    # of a four-valent vertex share only that vertex)
    shared = Counter(pair for faces in incidences
                     for pair in itertools.combinations(faces, 2))
    edges = []
    for i, j in sorted(pair for pair, k in shared.items() if k == 2):
        ti, tj = _coeff_type(coeffs[i]), _coeff_type(coeffs[j])
        tdiff = _coeff_type([a - b for a, b in zip(coeffs[i], coeffs[j])])
        edges.append(((i, j), f"{min(ti, tj)}{max(ti, tj)}|{tdiff}"))

    pair_orbits = _term_orbits(images, [pair for pair, _ in edges])
    # a four-valent vertex (delta > 1) is left out: it lies at the covering
    # radius, and every term through it holds one of its diagonal face
    # pairs, whose region starts there
    triple_orbits = _term_orbits(
        images, [faces for faces in incidences if len(faces) == 3])
    return _RegimeTables(coeffs=coeffs, points=points, incidences=incidences,
                         vertex_faces=vertex_faces, edges=tuple(edges),
                         pair_orbits=pair_orbits, triple_orbits=triple_orbits)


def _check_catalog_radius(what: str, got: float, want: float,
                          delta: float):
    """ValueError unless got equals the closed form want to 1e-9 relative.

    Far from delta = 1 the basis I + ((delta - 1)/3) J loses delta to
    rounding, and the catalog's faces and vertices no longer describe the
    cell of delta.
    """
    if not abs(got - want) <= 1e-9 * want:
        raise ValueError(f"the {what} of the cell at delta={delta!r} lies "
                         f"at {got!r}, not at {want!r}: delta is too far "
                         "from 1 for floating point")


@lru_cache(maxsize=64)
def _build_arrangement(delta: float) -> CapArrangement:
    lat = DistortedLattice(3, delta)
    degenerate = abs(delta - 1.0) < 1e-9
    tables = _regime_tables(
        "cube" if degenerate else "below" if delta < 1.0 else "above")
    # the farthest vertex of the catalog's cell; the cube stands in for
    # every cell within 1e-9 of delta = 1
    cov = _SQRT3 / 2.0 if degenerate else covering_radius(lat)

    # the face of B c lies at half its norm
    points = tables.points @ lat.basis.T
    norms = [_norm(p) for p in points]
    _check_catalog_radius("nearest face", min(norms) / 2.0,
                          packing_radius(lat), delta)
    planes = tuple(Plane(coeffs=c, normal=p / nrm, distance=nrm / 2.0)
                   for c, p, nrm in zip(tables.coeffs, points, norms))
    normals = np.array([p.normal for p in planes])
    dists = np.array([p.distance for p in planes])
    # exact floats, not orbits: one orbit's faces can lie an ulp apart
    face_distances = tuple(sorted({p.distance for p in planes}))
    slot = {d: k for k, d in enumerate(face_distances)}
    face_slots = tuple(slot[p.distance] for p in planes)

    # any three faces of a vertex are independent and fix its position
    faces = tables.vertex_faces
    positions = np.linalg.solve(normals[faces], dists[faces][..., None])
    vertices = tuple(Vertex(position=x, distance=_norm(x), valence=len(inc))
                     for x, inc in zip(positions[..., 0], tables.incidences))
    _check_catalog_radius("farthest vertex",
                          max(v.distance for v in vertices), cov, delta)

    edges = []
    for (i, j), subtype in tables.edges:
        foot = _line_foot(normals[i], dists[i], normals[j], dists[j])
        edges.append(Edge(planes=(i, j), distance=_norm(foot),
                          subtype=subtype))

    # the foot d n of a Voronoi-relevant face lies inside that face, so an
    # edge's pair region comes nearest on the edge line; a vertex's triple
    # region need not come nearest at the vertex
    line = {e.planes: e.distance for e in edges}
    pair_orbits = tuple(TermOrbit(members=members, activation=line[members[0]])
                        for members in tables.pair_orbits)
    triple_orbits = tuple(
        TermOrbit(members=members,
                  activation=_activation_radius(normals[list(members[0])],
                                                dists[list(members[0])]))
        for members in tables.triple_orbits)

    return CapArrangement(delta=delta,
                          degenerate=degenerate,
                          planes=planes,
                          face_distances=face_distances,
                          face_slots=face_slots,
                          edges=tuple(edges),
                          vertices=vertices,
                          pair_orbits=pair_orbits,
                          triple_orbits=triple_orbits)


def build_cap_arrangement(delta: float) -> CapArrangement:
    """Faces, edges, vertices and cap terms of the cell."""
    _check_delta(delta)
    return _build_arrangement(float(delta))


# -- inclusion-exclusion ------------------------------------------------------


def _inclusion_exclusion(arr: CapArrangement, r: float) -> float:
    """Raw cap sum over the faces, edges and three-valent vertices, one
    cap per distinct face distance and one evaluation per edge or vertex
    orbit times its size; exact below the covering radius."""
    vol = _unit_ball_volume(3) * r ** 3
    # a cap at d >= r is 0.0, and vol - 0.0 == vol: one cap per distinct
    # distance, subtracted once per face in plane order, gives the bits
    # of one cap per face
    caps = [spherical_cap_volume(r, d) for d in arr.face_distances]
    for k in arr.face_slots:
        vol -= caps[k]
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


def voronoi_ball_volume_3d(delta: float, r: float) -> float:
    """vol(cell ∩ ball(r)) for the 3D cell of distortion delta.

    Equals the full ball volume while the ball fits inside the cell and
    the cell volume delta once r reaches the covering radius.
    """
    _check_delta(delta)
    _check_radius(r)
    lat = DistortedLattice(3, delta)
    if r >= covering_radius(lat):
        return delta
    arr = build_cap_arrangement(delta)
    if r <= arr.face_distances[0]:
        return _unit_ball_volume(3) * r ** 3
    return _inclusion_exclusion(arr, r)


def vol_overlap_3d(delta: float, r: float) -> float:
    """Average overlapping volume per sphere, normalized by cell volume."""
    ball = _unit_ball_volume(3) * r ** 3
    return max(0.0, (ball - voronoi_ball_volume_3d(delta, r)) / delta)
