"""40-digit reference values of the cell-ball volumes, for tests only.

Built with mpmath from the exact basis B = I + ((delta - 1)/n) J of
L_delta, taking delta as the exact value of its float:

- `area_2d(delta, r)`: area of (Voronoi cell ∩ disk of radius r) by the
  three-branch formula, pi r^2 minus one circular segment per edge the
  disk crosses, up to the vertex radius, then the cell area delta.  For
  delta <= 1 the edges are the bisectors of the +-basis columns and of
  +-(column sum), and the vertices solve two edge lines; delta > 1 is
  the mirror image delta^2 area(1/delta, r/delta).
- `volume_3d(delta, r)`: vol(Voronoi cell ∩ ball of radius r) as a sum
  over orthoschemes.  The cell's facets are the bisectors of its
  Voronoi-relevant vectors v (the vectors that, with -v, are the only
  shortest ones of their coset v + 2L), its vertices the points where
  three facet planes meet (`mp.lu_solve`) inside every other
  halfspace.  Each facet, with foot F = v/2 at distance a = |v|/2, is
  split into signed right triangles T = (F, E, V): E the foot of F on
  an edge line, V an end of that edge, legs h = |FE| and k = |EV|.  The
  cone over T meets the ball in (a/3) Area(T ∩ D) + (r^3/3) (Omega(T) -
  Omega(T ∩ D)), D the disk of radius sqrt(r^2 - a^2) about F, and in
  (r^3/3) Omega(T) for a >= r.  T ∩ D is a right triangle plus a
  sector, and a sector of angle phi subtends phi (1 - a/r).  The solid
  angle of T comes from Van Oosterom & Strackee ("The solid angle of a
  plane triangle", IEEE Trans. BME 30, 1983), whose terms are all
  positive here.

The 3D sum shares no code with overlatt's inclusion-exclusion, so it
checks the geometry as well as the float evaluation; the cell volume it
gives at the covering radius equals delta to the working precision.
"""

import itertools
from functools import lru_cache

import mpmath
import numpy as np

# a private 40-digit context: mpmath's global one stays as it is
mp = mpmath.MPContext()
mp.dps = 40
mpf = mp.mpf
# geometric ties (a vertex on a plane, two equal vertices, two equal
# norms) are decided at this absolute level, far below any true gap on
# the grids the tests use and far above the 40-digit rounding
TIE = mpf("1e-30")


def _basis(n, delta):
    a = (mpf(delta) - 1) / n
    return [[(1 if i == j else 0) + a for j in range(n)] for i in range(n)]


def _vector(basis, coeffs):
    return [sum(b * c for b, c in zip(row, coeffs)) for row in basis]


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _norm(u):
    return mp.sqrt(_dot(u, u))


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


# -- 2D ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _radii_2d(delta):
    """Edge distances (4 edges, 2 edges) and the vertex radius, delta <= 1."""
    basis = _basis(2, delta)
    column = _vector(basis, (1, 0))
    column_sum = _vector(basis, (1, 1))
    vertex = mp.lu_solve(
        mp.matrix([column, column_sum]),
        mp.matrix([_dot(column, column) / 2,
                   _dot(column_sum, column_sum) / 2]))
    return _norm(column) / 2, _norm(column_sum) / 2, _norm(list(vertex))


def area_2d(delta, r):
    """Area of (cell ∩ disk of radius r) in 2D, 40 digits."""
    delta, r = mpf(delta), mpf(r)
    if delta > 1:
        return delta ** 2 * area_2d(1 / delta, r / delta)
    r1, r2, r3 = _radii_2d(delta)
    if r >= r3:
        return delta

    def segment(d):
        if r <= d:
            return mpf(0)
        theta = 2 * mp.acos(d / r)
        return r * r * (theta - mp.sin(theta)) / 2

    return mp.pi * r * r - 4 * segment(r1) - 2 * segment(r2)


# -- 3D ----------------------------------------------------------------------


def _relevant_vectors(basis):
    """Voronoi-relevant vectors: per nonzero coset of L / 2L, the
    shortest vectors of the coset if they are just +-v.  Coefficients in
    [-3, 3]^3 hold every coset's shortest vectors for delta in [0.05, 20]
    (the cell volume check of the tests would see a missing facet)."""
    cosets = {}
    for c in itertools.product(range(-3, 4), repeat=3):
        coset = tuple(x % 2 for x in c)
        if any(coset):
            v = _vector(basis, c)
            cosets.setdefault(coset, []).append((_dot(v, v), v))
    relevant = []
    for members in cosets.values():
        least = min(norm2 for norm2, _ in members)
        shortest = [v for norm2, v in members if norm2 - least < TIE]
        if len(shortest) == 2:
            relevant.extend(shortest)
    return relevant


def _vertices(planes):
    """Cell vertices: points on three facet planes inside all others.

    Float arithmetic skips the triples of normals with a zero triple
    product (two of them opposite) and those whose point lies clearly
    outside (by more than 1e-9 relative, a million times its rounding);
    the rest are solved and checked in 40 digits."""
    normals = np.array([[float(x) for x in v] for v, _ in planes])
    offsets = np.array([float(h) for _, h in planes])
    vertices = []
    for triple in itertools.combinations(range(len(planes)), 3):
        rows = normals[list(triple)]
        if abs(np.linalg.det(rows)) < 1e-9 * np.prod(
                np.linalg.norm(rows, axis=1)):
            continue
        guess = np.linalg.solve(rows, offsets[list(triple)])
        if np.any(normals @ guess - offsets > 1e-9 * (1.0 + offsets)):
            continue
        x = list(mp.lu_solve(
            mp.matrix([planes[i][0] for i in triple]),
            mp.matrix([planes[i][1] for i in triple])))
        if all(_dot(n, x) - h < TIE for n, h in planes) and not any(
                max(abs(p - q) for p, q in zip(x, y)) < TIE
                for y in vertices):
            vertices.append(x)
    return vertices


def _pieces(normal, offset, vertices):
    """(a, h, k) of the right triangles of one facet, k signed."""
    a = offset / _norm(normal)
    foot = [x * a / _norm(normal) for x in normal]
    on = [x for x in vertices if abs(_dot(normal, x) - offset) < TIE]
    # order the facet's vertices by angle about the foot
    e1 = [p - q for p, q in zip(on[0], foot)]
    e1 = [x / _norm(e1) for x in e1]
    unit = [x / _norm(normal) for x in normal]
    e2 = _cross(unit, e1)
    on.sort(key=lambda x: mp.atan2(_dot(x, e2), _dot(x, e1)))
    pieces = []
    for p, q in zip(on, on[1:] + on[:1]):
        edge = [y - x for x, y in zip(p, q)]
        length = _norm(edge)
        along = [x / length for x in edge]
        # foot E of F on the edge line; V = p at -t_p, q at t_q along it
        t_p = _dot([x - y for x, y in zip(foot, p)], along)
        e = [x + t_p * y for x, y in zip(p, along)]
        h = _norm([x - y for x, y in zip(e, foot)])
        pieces.append((a, h, length - t_p))
        pieces.append((a, h, t_p))
    return pieces


@lru_cache(maxsize=None)
def cell_3d(delta):
    """The cell's right triangles as (a, h, k, weight): equal triangles
    merged, weight their signed count.  (F, E, V) counts +1 where V
    lies beyond E in the facet's counterclockwise order, else -1."""
    basis = _basis(3, delta)
    planes = [(v, _dot(v, v) / 2) for v in _relevant_vectors(basis)]
    vertices = _vertices(planes)
    pieces = {}
    for normal, offset in planes:
        for a, h, k in _pieces(normal, offset, vertices):
            key = tuple(mp.nstr(x, 32) for x in (a, h, abs(k)))
            sign = 1 if k > 0 else -1
            entry = pieces.setdefault(key, [a, h, abs(k), 0])
            entry[3] += sign
    return tuple(tuple(e) for e in pieces.values() if e[3])


def _solid_angle(a, h, k):
    """Solid angle of the right triangle F, E, V seen from the center."""
    r2 = mp.sqrt(a * a + h * h)
    r3 = mp.sqrt(a * a + h * h + k * k)
    return 2 * mp.atan(a * h * k / (a * r2 * r3 + a * a * r3
                                    + a * a * r2 + r2 * r2 * a))


def _piece(a, h, k, r):
    """vol(cone over the right triangle (a, h, k) ∩ ball of radius r)."""
    full = _solid_angle(a, h, k)
    if r <= a:
        return r ** 3 / 3 * full
    rho = mp.sqrt(r * r - a * a)
    phi = mp.atan2(k, h)
    if rho <= h:
        # a sector of the disk
        area, inside = phi * rho * rho / 2, phi * (1 - a / r)
    elif rho * rho >= h * h + k * k:
        area, inside = h * k / 2, full
    else:
        # the right triangle up to the circle, then a sector
        chord = mp.sqrt(rho * rho - h * h)
        psi = mp.atan2(chord, h)
        area = h * chord / 2 + (phi - psi) * rho * rho / 2
        inside = _solid_angle(a, h, chord) + (phi - psi) * (1 - a / r)
    return a / 3 * area + r ** 3 / 3 * (full - inside)


def volume_3d(delta, r):
    """vol(cell ∩ ball of radius r) in 3D, 40 digits."""
    r = mpf(r)
    return mp.fsum(w * _piece(a, h, k, r) for a, h, k, w in cell_3d(delta))
