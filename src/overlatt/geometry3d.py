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
point of its three halfspaces (closed form, from cross products), which
need not be the vertex.  A pair volume is closed form by the divergence
theorem, 3V = r * A_sphere - sum_i d_i * A_face_i, a triple volume as a
sum of signed face cones, 3V = sum_i (r^3 Omega(F_i) - d_i A(F_i)).
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


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _affine_foot(active) -> tuple | None:
    """Least-norm point of {x : <x, n> = d for each (n, d) in active}, one
    to three planes; None where the normals are dependent in floats."""
    if len(active) == 1:
        (n, d), = active
        return (d * n[0], d * n[1], d * n[2])
    if len(active) == 2:
        (n1, d1), (n2, d2) = active
        c = _cross(n1, n2)
        den = _dot(c, c)
        if den == 0.0:
            return None
        g = _dot(n1, n2)
        a, b = (d1 - g * d2) / den, (d2 - g * d1) / den
        return tuple(a * x + b * y for x, y in zip(n1, n2))
    (n1, d1), (n2, d2), (n3, d3) = active
    c23, c31, c12 = _cross(n2, n3), _cross(n3, n1), _cross(n1, n2)
    det = _dot(n1, c23)
    if det == 0.0:
        return None
    return tuple((d1 * x + d2 * y + d3 * z) / det
                 for x, y, z in zip(c23, c31, c12))


def _activation_radius(normals, dists) -> float:
    """Norm of the least-norm point with <x, n_i> >= d_i for every i.

    In 3D the minimum is the least-norm point of the affine set of at
    most three active planes that satisfies the other planes, so each
    such set gives a candidate.  Python floats, any number of planes.
    Returns inf when the intersection is empty.
    """
    planes = [(tuple(float(x) for x in n), float(d))
              for n, d in zip(normals, dists)]
    if all(d <= 0.0 for _, d in planes):
        return 0.0
    best = math.inf
    for size in range(1, min(3, len(planes)) + 1):
        for idx in itertools.combinations(range(len(planes)), size):
            active = [planes[i] for i in idx]
            x = _affine_foot(active)
            # a nearly singular active set gives a point off its own planes
            if x is None or any(abs(_dot(x, n) - d) > 1e-9
                                for n, d in active):
                continue
            if all(_dot(x, n) >= d - 1e-12
                   for i, (n, d) in enumerate(planes) if i not in idx):
                best = min(best, math.sqrt(_dot(x, x)))
    return best


# -- triple intersections -----------------------------------------------------


def _span_fit(a, b, c) -> tuple:
    """(residual, alpha, beta) of the least-squares fit c ~ alpha a + beta b
    of unit vectors, minimal in (alpha, beta) where a and b are parallel."""
    ab, g = _cross(a, b), _dot(a, b)
    s = math.sqrt(_dot(ab, ab))
    if s < 1e-12:
        # one direction: alpha + beta * sign(g) = <a, c>, split evenly
        t = _dot(a, c)
        return _norm_cross(a, c), 0.5 * t, math.copysign(0.5, g) * t
    # the part of c off the plane of a and b, and the 2x2 Gram solve
    gac, gbc = _dot(a, c), _dot(b, c)
    return (abs(_dot(c, ab)) / s, (gac - g * gbc) / (s * s),
            (gbc - g * gac) / (s * s))


def _face_setup(normals, dists) -> tuple:
    """(cone, faces), the radius-free part of the face cones, d_i >= 0.

    cone is the solid angle of the region at the centre, nonzero only
    when all three planes pass through it.  Face i is (d_i, e_j, e_k,
    cos, sin, azimuth): about the foot d_i n_i, plane o cuts out y . w_o
    >= e_o, with w_o = (n_o - g_io n_i) / s_io, g_io = <n_i, n_o> and
    s_io = |n_i x n_o|; w_k lies at the azimuth atan2((w_j x w_k) . n_i,
    w_j . w_k) from w_j.  (Anti)parallel normals give (0.0, ()).
    """
    pairs = {(i, o): (_dot(normals[i], normals[o]),
                      _norm_cross(normals[i], normals[o]))
             for i in range(3) for o in range(3) if i != o}
    if min(s for _, s in pairs.values()) < 1e-12:
        # opposite planes at d >= 0 leave no volume between them; parallel
        # ones never get here, the redundancy check returns their lens
        return 0.0, ()
    if all(d == 0.0 for d in dists):
        # the centre is the apex: the trihedral cone's solid angle is the
        # sum of its dihedral angles pi - gamma less pi (Girard)
        return 2.0 * math.pi - sum(math.atan2(s, g) for (i, o), (g, s)
                                   in pairs.items() if i < o), ()
    faces = []
    for i in range(3):
        j, k = [o for o in range(3) if o != i]
        (g_j, s_j), (g_k, s_k) = pairs[i, j], pairs[i, k]
        # (w_j x w_k) . n_i and w_j . w_k, both times s_j s_k
        y = _dot(normals[i], _cross(normals[j], normals[k]))
        x = pairs[j, k][0] - g_j * g_k
        h = math.hypot(x, y)
        faces.append((dists[i], (dists[j] - g_j * dists[i]) / s_j,
                      (dists[k] - g_k * dists[i]) / s_k,
                      x / h, y / h, math.atan2(y, x)))
    return 0.0, tuple(faces)


@lru_cache(maxsize=4096)
def _triple_checks(normals: tuple, dists: tuple):
    """(lens, activation, cone, faces), the radius-free part of a triple.

    lens is the pair (i, j) whose lens the region is when plane k is
    redundant on it, else None: n_k = alpha n_i + beta n_j with alpha,
    beta >= 0 and alpha d_i + beta d_j >= d_k makes constraint k implied
    on the lens.  activation is the radius at which the region starts.
    cone and faces are `_face_setup`'s where there is no lens and every
    d_i >= 0 (else 0.0 and ()).  All closed form.  Memoized per plane
    triple, so inclusion-exclusion, which evaluates one representative
    per triple orbit at every radius, sets each orbit up once.
    """
    activation = _activation_radius(normals, dists)
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        residual, alpha, beta = _span_fit(normals[i], normals[j], normals[k])
        if (residual < 1e-10 and alpha >= -1e-12 and beta >= -1e-12
                and alpha * dists[i] + beta * dists[j] >= dists[k] - 1e-12):
            return (i, j), activation, 0.0, ()
    if min(dists) < 0.0:
        return None, activation, 0.0, ()
    return (None, activation, *_face_setup(normals, dists))


def _solid_angle(a: float, h: float, s: float, e2: float) -> float:
    """Signed solid angle of the right triangle (foot, E, E + s t) from
    the centre, a above the foot, h = |foot E| and e2 = a^2 + h^2: Van
    Oosterom & Strackee ("The solid angle of a plane triangle", IEEE
    Trans. BME 30, 1983) with r1 = a divided out, so that a = 0 gives the
    planar angle at the foot."""
    q2, q3 = math.sqrt(e2), math.sqrt(e2 + s * s)
    return math.copysign(
        2.0 * math.atan2(h * abs(s), q2 * q3 + a * (q2 + q3) + e2), s)


def _face_cones(r: float, cone: float, faces) -> float:
    """Volume beyond three planes at distances d_i >= 0 inside ball(r).

    Each ray from the centre into the region enters it through one face
    F_i (or starts in it, at an apex), so 3V = r^3 cone + sum_i (r^3
    Omega(F_i) - d_i Area(F_i)).  F_i is the disk of radius rho =
    sqrt(r^2 - d_i^2) about the foot cut by y . w_o >= e_o; seen from the
    foot its boundary is arcs of total angle Theta and one chord [s0, s1]
    per cut, so Area = rho^2 Theta / 2 - sum e (s1 - s0) / 2 and Omega =
    Theta (1 - d_i / r) plus one signed pair of triangles per chord.
    """
    total = r ** 3 * cone
    for d, e_j, e_k, cos, sin, az in faces:
        rho2 = (r - d) * (r + d)
        h_j = math.sqrt(max(rho2 - e_j * e_j, 0.0))
        h_k = math.sqrt(max(rho2 - e_k * e_k, 0.0))
        # the arcs of the circle inside each cut, about w_j and w_k
        a_j, a_k = math.atan2(h_j, e_j), math.atan2(h_k, e_k)
        theta = sum(max(0.0, min(a_j, az + t + a_k) - max(-a_j, az + t - a_k))
                    for t in (-2.0 * math.pi, 0.0, 2.0 * math.pi))
        area = 0.5 * rho2 * theta
        omega = theta * (r - d) / r
        # line j is e_j w_j + s t_j, where y . w_k = e_j cos + s sin;
        # line k is e_k w_k + s t_k, where y . w_j = e_k cos - s sin
        for e, h, slope, e_o in ((e_j, h_j, sin, e_k), (e_k, h_k, -sin, e_j)):
            s0, s1 = -h, h
            if slope > 0.0:
                s0 = max(s0, (e_o - e * cos) / slope)
            elif slope < 0.0:
                s1 = min(s1, (e_o - e * cos) / slope)
            elif e * cos < e_o:
                continue
            if s1 <= s0:
                continue
            e2 = d * d + e * e
            area -= 0.5 * e * (s1 - s0)
            omega -= math.copysign(1.0, e) * (
                _solid_angle(d, abs(e), s1, e2)
                - _solid_angle(d, abs(e), s0, e2))
        total += r ** 3 * omega - d * area
    return total / 3.0


def cap_triple_intersection_volume(r: float, plane1, plane2, plane3) -> float:
    """Volume of the ball region beyond all three planes.

    If one plane is a nonnegative combination of the other two that its
    offset makes redundant on their lens, the region degenerates to that
    pair lens and the pair closed form is returned (this keeps the
    inclusion-exclusion cancellation exact).  A plane at negative
    distance is traded for its complement:
    triple(p1, p2, (n3, d3)) = pair(p1, p2) - triple(p1, p2, (-n3, -d3)).
    With every distance >= 0 the volume is a sum of face cones,
    3V = sum_i (r^3 Omega(F_i) - d_i A(F_i)), F_i the disk of plane i cut
    by the other two, Omega its solid angle from the centre and A its
    area.  The terms are of size r^3, so the error is a few ulps of r^3
    (more for thin caps): a tiny volume is exact in absolute terms only.
    """
    _check_radius(r)
    # a numpy scalar radius would leak numpy floats into the sum
    r = float(r)
    normals, dists = zip(*(_plane(p) for p in (plane1, plane2, plane3)))
    if r == 0.0 or any(d >= r for d in dists):
        return 0.0
    for k in range(3):
        if dists[k] <= -r:
            i, j = [t for t in range(3) if t != k]
            return cap_pair_intersection_volume(
                r, (normals[i], dists[i]), (normals[j], dists[j]))
    unit = tuple(tuple(n.tolist()) for n in normals)
    lens, activation, cone, faces = _triple_checks(unit, tuple(dists))
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
    return max(_face_cones(r, cone, faces), 0.0)


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
        return dict(Counter(round(p.distance, 9) for p in self.planes))

    def edge_subtype_counts(self):
        """Edge counts per subtype tag."""
        return dict(Counter(e.subtype for e in self.edges))

    def vertex_distance_multiset(self):
        """Vertex distances with multiplicities, as {distance: count}."""
        return dict(Counter(round(v.distance, 9) for v in self.vertices))


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
    pairs = sorted(pair for pair, k in shared.items() if k == 2)
    pair_orbits = _term_orbits(images, pairs)
    # the subtype is an orbit invariant: classify one member per orbit
    subtype = {}
    for members in pair_orbits:
        i, j = members[0]
        ti, tj = _coeff_type(coeffs[i]), _coeff_type(coeffs[j])
        tdiff = _coeff_type([a - b for a, b in zip(coeffs[i], coeffs[j])])
        subtype.update(dict.fromkeys(
            members, f"{min(ti, tj)}{max(ti, tj)}|{tdiff}"))
    edges = [(pair, subtype[pair]) for pair in pairs]

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

    return CapArrangement(delta=delta, degenerate=degenerate, planes=planes,
                          face_distances=face_distances, face_slots=face_slots,
                          edges=tuple(edges), vertices=vertices,
                          pair_orbits=pair_orbits, triple_orbits=triple_orbits)


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
