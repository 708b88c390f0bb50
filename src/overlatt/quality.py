"""Relaxed packing and covering quality, and their optimization over delta.

Both qualities follow the same two-step scheme: find the extremal radius
that satisfies a scalar constraint budget omega, then report the density
at that radius.  Packing maximizes density subject to an overlap bound;
covering minimizes density subject to a free-space bound.  The 2D
density derivative along the volume-measure optimum sits beside the
inversion it calls.
"""

import enum
import math
from typing import NamedTuple

from .geometry2d import (
    covering_overlap_2d,
    critical_radii_2d,
    vol_overlap_2d,
)
from .lattice import (
    DELTA_MAX,
    DELTA_MIN,
    DistortedLattice,
    _check_delta,
    _check_int,
    _check_radius,
    _unit_ball_volume,
    covering_radius,
    packing_radius,
    shortest_vector_norm,
)
from .measures import (
    NoClosedFormError,
    OverlapMeasure,
    _density,
    _vol_overlap_and_slope,
    density,
    dist_overlap,
    free_space,
    union_fraction,
    vol_overlap,
)

__all__ = [
    "NoCrossoverError",
    "OptimizeResult",
    "OutOfBranchError",
    "QualityMode",
    "QualityQuery",
    "QualityResult",
    "crossover_omega",
    "density_derivative_2d",
    "max_radius_for_overlap",
    "optimize_delta",
    "qual_covering",
    "qual_packing",
]

# two results within this of each other count as tied
TIE_TOL = 1e-9
# tied delta values closer than this collapse to one representative
DEDUPE_TOL = 1e-6
RADIUS_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)
_THIRD = 1.0 / math.sqrt(3.0)


class QualityMode(enum.Enum):
    PACKING = "packing"
    COVERING = "covering"


class NoCrossoverError(RuntimeError):
    """The density difference did not change sign exactly once, strictly."""


class OutOfBranchError(ValueError):
    """The (delta, omega) query lies outside the derivative branch domains."""


class QualityQuery(NamedTuple):
    """One optimization problem over the distortion parameter."""

    n: int
    mode: QualityMode
    measure: OverlapMeasure | None = None
    omega: float = 0.0
    delta_range: tuple[float, float] = (DELTA_MIN, DELTA_MAX)


class QualityResult(NamedTuple):
    """Quality evaluation at one delta.

    Field order is the serialization order.  `overlap` is the constraint
    value actually attained at r: the chosen overlap measure in packing
    mode, free_space in covering mode; it never exceeds omega by more
    than 1e-9.  `union` is NaN where no exact form exists (n > 3 at a
    radius strictly between packing and covering).
    """

    delta: float
    omega: float
    r: float
    density: float
    union: float
    overlap: float
    mode: str
    measure: str

    def as_dict(self) -> dict:
        return self._asdict()


class OptimizeResult(NamedTuple):
    """Optimum of a quality query over delta.

    `ties` lists every distinct optimal delta found (the optimum can be
    genuinely non-unique).  Volume-measure packing is flat at its
    optimum wherever the budget covers space: on the sublevel set of the
    covering density, {delta : covering density <= 1 + omega}, at most
    two intervals (one on each side of delta = 1).  Those wider than
    DEDUPE_TOL set `plateau` and are listed in `plateau_ranges`, each
    edge on the last float inside the set, and their midpoints are the
    ties; delta_star is the midpoint of the widest one.
    """

    delta_star: float
    result: QualityResult
    ties: tuple[float, ...]
    plateau: bool
    plateau_ranges: tuple[tuple[float, float], ...]


def _validate_omega(measure: OverlapMeasure | None, omega: float):
    _check_radius(omega, "omega")
    if measure is OverlapMeasure.DISTANCE_BASED and omega >= 1.0:
        raise ValueError("distance-based overlap never reaches 1; "
                         f"omega must be < 1, got {omega}")


def max_radius_for_overlap(lat: DistortedLattice,
                           measure: OverlapMeasure, omega: float) -> float:
    """Largest r whose overlap stays within the budget omega.

    Distance measure: exact inversion r = shortest/(2(1 - omega)).

    Volume measure: the overlap is zero up to the packing radius and
    strictly increasing beyond it, so f(r) = vol_overlap(r) - omega has
    one root.  Past the covering radius the union is 1 and the overlap
    is density - 1, so once omega reaches the covering overlap the root
    is r_c = (delta (1 + omega) / V_n)^(1/n), settled on the two
    neighbouring floats that bracket omega.  Below it, doubling from
    the packing radius brackets the root in [lo, hi] = [2^(k-1),
    2^k] packing_radius (k >= 1), and the bracket shrinks step by step:
    - n = 2: Newton from hi on the exact r-slope of the overlap, which
      is convex and increasing, so the steps approach the root from
      above.  A step that leaves the bracket, has no positive slope or
      fails to halve the Newton step before it bisects instead.  Once
      a step is under RADIUS_TOL / 4, one probe RADIUS_TOL / 2 below
      its target closes the bracket, and a target that rounds onto lo
      is closed by a probe RADIUS_TOL / 2 above lo (about 8
      evaluations instead of 40);
    - n = 3: the ITP steps of `_itp` (about 12 evaluations).
    Every step keeps vol_overlap(lo) <= omega < vol_overlap(hi) and the
    loop stops at hi - lo <= max(RADIUS_TOL, ulp(hi)), returning lo:
    within RADIUS_TOL of the root, or its float neighbour where floats
    are spaced wider than that (radii above 2^13).  The Newton steps
    carry no worst-case bound for an arbitrary function, but the
    halving rule bounds them, a slope of zero bisects throughout, and
    on the convex 2D overlap they stay far under the bisection count:
    at most 12 evaluations per inversion, the doubling included, over
    360 seeded inversions.  `_volume_brackets` yields the brackets.

    The distance measure works in any dimension n >= 2.  The volume
    measure uses the closed-form union of n = 2 and 3; for n > 3 it
    returns the packing radius at omega = 0 and raises
    NoClosedFormError for any omega > 0.
    """
    _validate_omega(measure, omega)
    if measure is OverlapMeasure.DISTANCE_BASED:
        return shortest_vector_norm(lat) / (2.0 * (1.0 - omega))
    if measure is not OverlapMeasure.VOLUME_BASED:
        raise ValueError(f"unknown overlap measure {measure!r}")
    if omega == 0.0:
        return packing_radius(lat)
    for lo, _ in _volume_brackets(lat, omega):
        pass
    return lo


def _covering_overlap(lat: DistortedLattice) -> float:
    # the least volume budget whose inverted radius reaches the covering
    # radius; past it the union is 1, so the overlap is density - 1
    return _density(lat, covering_radius(lat)) - 1.0


def _itp(f, lo: float, f_lo: float, hi: float, f_hi: float):
    """Yield (lo, f_lo, hi, f_hi) after each ITP step on a root of f,
    from f_lo = f(lo) <= 0 < f_hi = f(hi), until hi - lo <= max(RADIUS_TOL,
    ulp(hi)).

    ITP (Oliveira & Takahashi, ACM TOMS 47, 2020; k1 = 0.2 / (hi - lo),
    k2 = 2, n0 = 1) takes a regula falsi step, truncates it towards the
    midpoint by k1 (hi - lo)^2 and projects it into the interval that
    keeps the bisection worst case.  It needs no derivative and never
    evaluates f more than ceil(log2((hi - lo) / RADIUS_TOL)) + 1 times,
    one more than bisection of the same bracket.  Every step keeps
    f(lo) <= 0 < f(hi), and each bracket nests in the one before.
    """
    k1 = 0.2 / (hi - lo)
    # bound on the bracket width after the next step: RADIUS_TOL 2^m at
    # least hi - lo, halved each step (eps 2^(n_max - j) with n0 = 1)
    reach = RADIUS_TOL
    while reach < hi - lo:
        reach *= 2.0
    while hi - lo > max(RADIUS_TOL, math.ulp(hi)):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        falsi = lo - f_lo * width / (f_hi - f_lo)
        sigma = 1.0 if mid >= falsi else -1.0
        step = k1 * width * width
        x = falsi + sigma * step if step <= abs(mid - falsi) else mid
        # the margin absorbs the rounding of mid and x
        radius = max(reach - 0.5 * width - 2.0 * math.ulp(hi), 0.0)
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        reach *= 0.5
        if not lo < x < hi:
            # a step can round onto an end, whose value is known
            x = mid
        f_x = f(x)
        if f_x <= 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        yield lo, f_lo, hi, f_hi


def _volume_brackets(lat: DistortedLattice, omega: float):
    """Yield the volume inversion's brackets (lo, hi) for omega > 0.

    The start bracket is settled in closed form when omega reaches the
    covering overlap, and doubles from 2 * packing radius until the
    overlap there exceeds omega otherwise.  The first bracket yielded is
    that start, then one follows every Newton (n = 2) or ITP (n = 3)
    step; each keeps overlap(lo) <= omega < overlap(hi) and nests in the
    one before.  The last lo is max_radius_for_overlap's radius, and no
    radius is evaluated twice.  Raises NoClosedFormError for n > 3,
    where the overlap has no closed form.
    """
    if lat.n > 3:
        raise NoClosedFormError(
            "the quality layer's volume measure needs the closed-form "
            f"union of n = 2 or 3, got n = {lat.n}")

    def f(r: float) -> tuple[float, float]:
        # (overlap - omega, its r-slope); n = 3 has no closed-form slope
        if lat.n == 2:
            value, slope = _vol_overlap_and_slope(lat, r)
        else:
            value, slope = vol_overlap(lat, r), math.nan
        return value - omega, slope

    if _covering_overlap(lat) <= omega:
        # past the covering radius the overlap is density - 1: step from
        # its root to the float where f changes sign
        r = (lat.delta * (1.0 + omega)
             / _unit_ball_volume(lat.n)) ** (1.0 / lat.n)
        f_r, s_r = f(r)
        below = f_r <= 0.0
        while True:
            x = math.nextafter(r, math.inf if below else 0.0)
            f_x, s_x = f(x)
            if (f_x <= 0.0) != below:
                break
            r, f_r, s_r = x, f_x, s_x
        if below:
            lo, f_lo, hi, f_hi, s_hi = r, f_r, x, f_x, s_x
        else:
            lo, f_lo, hi, f_hi, s_hi = x, f_x, r, f_r, s_r
    else:
        # the overlap is 0 at the packing radius
        lo, f_lo = packing_radius(lat), -omega
        hi = 2.0 * lo
        f_hi, s_hi = f(hi)
        while f_hi <= 0.0:
            lo, f_lo = hi, f_hi
            hi *= 2.0
            f_hi, s_hi = f(hi)
    yield lo, hi
    if lat.n == 3:
        for lo, _, hi, _ in _itp(lambda r: f(r)[0], lo, f_lo, hi, f_hi):
            yield lo, hi
        return
    last = math.inf  # the Newton step before
    while hi - lo > max(RADIUS_TOL, math.ulp(hi)):
        # Newton from hi: the overlap is convex, so the target stays
        # above the root, and a target on lo is the root up to rounding
        step = f_hi / s_hi if s_hi > 0.0 else math.inf
        x = hi - step
        if lo - 0.25 * RADIUS_TOL < x <= lo:
            x = lo + 0.5 * RADIUS_TOL
        elif step > min(0.5 * last, hi - lo):
            # the step leaves the bracket or fails to halve
            x = 0.5 * (lo + hi)
        else:
            last = step
            if step < 0.25 * RADIUS_TOL:
                # a probe below the target closes the bracket
                x -= 0.5 * RADIUS_TOL
        if not lo < x < hi:
            # a step can round onto an end, whose overlap is known
            x = 0.5 * (lo + hi)
        f_x, s_x = f(x)
        if f_x <= 0.0:
            lo = x
        else:
            hi, f_hi, s_hi = x, f_x, s_x
        yield lo, hi


def density_derivative_2d(delta: float, omega: float) -> float:
    """d/d delta of density(delta, r(delta, omega)) for 0 < delta < 1.

    r(delta, omega) is the radius at which the volume overlap reaches the
    budget omega, from the shared inversion max_radius_for_overlap.
    Three closed-form branches, joined continuously: only the r2
    segments active, only the r1 segments active, or both.  Vanishes at
    delta = 1/sqrt(3) (for omega > 0) and at the covering budget;
    positive below 1/sqrt(3) on the first branch, negative above it on
    the second.
    """
    _check_delta(delta)
    _check_radius(omega, "omega")
    if delta >= 1.0:
        raise OutOfBranchError(f"derivative branches cover 0 < delta < 1, "
                               f"got {delta}")
    omega_cov = covering_overlap_2d(delta)
    if omega > omega_cov:
        raise OutOfBranchError(
            f"budget {omega} exceeds the covering budget {omega_cov:.6g} "
            f"at delta={delta}; r(delta, omega) leaves the branch domain")
    if omega == 0.0:
        # r = packing radius; the active-segment count jumps at 1/sqrt(3)
        if abs(delta - _THIRD) < 1e-12:
            raise OutOfBranchError(
                "kink: one-sided derivatives differ at delta = 1/sqrt(3) "
                "with zero budget")
        if delta < _THIRD:
            return math.pi / 2.0
        return math.pi * (delta * delta - 1.0) / (8.0 * delta * delta)

    rad = critical_radii_2d(delta)
    r_switch = max(rad.r1, rad.r2)
    omega_switch = vol_overlap_2d(delta, r_switch)
    r = max_radius_for_overlap(DistortedLattice(2, delta),
                               OverlapMeasure.VOLUME_BASED, omega)
    d2 = delta * delta
    u = math.sqrt(d2 + 1.0)
    s = math.sqrt(max(2.0 * r * r - d2, 0.0))
    t = math.sqrt(max(8.0 * r * r - d2 - 1.0, 0.0))
    half_t2 = math.acos(min(delta / (_SQRT2 * r), 1.0))
    half_t1 = math.acos(min(u / (2.0 * _SQRT2 * r), 1.0))

    if omega <= omega_switch:
        if delta < _THIRD:
            # r2 < r <= r1: only the two segments at r2 are active
            return math.pi * s / (2.0 * delta * half_t2)
        # r1 < r <= r2: only the four segments at r1 are active
        return math.pi * (d2 - 1.0) * t / (8.0 * d2 * u * half_t1)
    # both families active up to the vertex radius
    num = (d2 - 1.0) * t + 2.0 * delta * u * s
    den = 4.0 * d2 * u * (2.0 * half_t1 + half_t2)
    return math.pi * num / den


def _union_or_nan(lat: DistortedLattice, r: float) -> float:
    try:
        return union_fraction(lat, r)
    except NoClosedFormError:
        return math.nan


def qual_packing(lat: DistortedLattice, measure: OverlapMeasure,
                 omega: float) -> QualityResult:
    """Maximal density whose overlap stays within omega.

    Dimensions as max_radius_for_overlap: any n >= 2 for the distance
    measure, the closed forms of n = 2 and 3 for the volume measure.
    The union column is NaN where n > 3 has no closed form.
    """
    r = max_radius_for_overlap(lat, measure, omega)
    union = _union_or_nan(lat, r)
    if measure is OverlapMeasure.VOLUME_BASED:
        # vol_overlap's own expression, without a second union evaluation;
        # the union has a value here: n > 3 gets this far only at omega
        # = 0, where r is the packing radius and the union is exact
        overlap = max(_density(lat, r) - union, 0.0)
    else:
        overlap = dist_overlap(lat, r)
    return QualityResult(
        delta=lat.delta,
        omega=omega,
        r=r,
        density=density(lat, r),
        union=union,
        overlap=overlap,
        mode=QualityMode.PACKING.value,
        measure=measure.value,
    )


def qual_covering(lat: DistortedLattice, omega: float) -> QualityResult:
    """Minimal density whose free space stays within omega.

    The free-space constraint inverts exactly: r = covering/(1 + omega).
    Any dimension n >= 2; the union column is NaN where n > 3 has no
    closed form.
    """
    _validate_omega(None, omega)
    r = covering_radius(lat) / (1.0 + omega)
    return QualityResult(
        delta=lat.delta,
        omega=omega,
        r=r,
        density=density(lat, r),
        union=_union_or_nan(lat, r),
        overlap=free_space(lat, r),
        mode=QualityMode.COVERING.value,
        measure="free",
    )


def _evaluate(query: QualityQuery, delta: float) -> QualityResult:
    lat = DistortedLattice(query.n, delta)
    if query.mode is QualityMode.PACKING:
        return qual_packing(lat, query.measure, query.omega)
    return qual_covering(lat, query.omega)


def _objective(query: QualityQuery, delta: float) -> float:
    # larger is always better: covering densities enter negated.
    # computes the density only; the union column of the full result is
    # far more expensive and irrelevant to the optimization
    lat = DistortedLattice(query.n, delta)
    if query.mode is QualityMode.PACKING:
        r = max_radius_for_overlap(lat, query.measure, query.omega)
        return density(lat, r)
    return -density(lat, covering_radius(lat) / (1.0 + query.omega))


def _breakpoints(n: int) -> tuple[float, float, float]:
    """Deltas where the objective changes branch: packing_radius at
    1/sqrt(n+1) and sqrt(n+1), covering_radius and the 3D catalog at 1.
    The outer two are also the covering density's minima on either side
    of 1, its only critical points (see optimize_delta)."""
    return (1.0 / math.sqrt(n + 1.0), 1.0, math.sqrt(n + 1.0))


def _validate_query(query: QualityQuery):
    lo, hi = query.delta_range
    _check_delta(lo, "delta_range")
    _check_delta(hi, "delta_range")
    if not (lo < hi):
        raise ValueError(f"delta_range must satisfy lo < hi, got {lo}, {hi}")
    if query.mode is QualityMode.PACKING:
        if query.measure is None:
            raise ValueError("packing mode requires an overlap measure")
        _validate_omega(query.measure, query.omega)
    elif query.mode is QualityMode.COVERING:
        if query.measure is not None:
            raise ValueError(f"covering reads no measure, got {query.measure}")
        _validate_omega(None, query.omega)
    else:
        raise ValueError(f"unknown mode {query.mode!r}")


def _distinct(deltas) -> tuple[float, ...]:
    """The deltas in order, less any within DEDUPE_TOL of the last kept."""
    out: list[float] = []
    for d in sorted(deltas):
        if not out or d - out[-1] > DEDUPE_TOL:
            out.append(d)
    return tuple(out)


def _plateau_optimum(query: QualityQuery) -> OptimizeResult | None:
    """The optimum of volume-measure packing (n = 2, 3) wherever its
    budget covers space in delta_range; None for any other query.

    On P = {delta : covering density <= 1 + omega} the inverted radius
    reaches the covering radius, so the density is 1 + omega, against
    omega + union < 1 + omega at every delta outside P.  The covering
    density falls to one minimum on each side of delta = 1, at that
    side's breakpoint, so P holds at most one piece per side, around the
    breakpoint clamped into the side.  Each edge is bisected outward
    from there to the last float inside, and pieces that both reach 1
    join there.  A piece narrower than DEDUPE_TOL is a point tie at its
    breakpoint.
    """
    if (query.mode is not QualityMode.PACKING
            or query.measure is not OverlapMeasure.VOLUME_BASED
            or query.n > 3):
        return None

    def flat(delta: float) -> bool:
        lat = DistortedLattice(query.n, delta)
        return _covering_overlap(lat) <= query.omega

    def edge(inside: float, outside: float) -> float:
        if flat(outside):
            return outside
        while True:
            mid = 0.5 * (inside + outside)
            if mid == inside or mid == outside:
                return inside
            inside, outside = (mid, outside) if flat(mid) else (inside, mid)

    lo, hi = query.delta_range
    below, one, above = _breakpoints(query.n)
    pieces: list[tuple[float, float, float]] = []  # left, right, breakpoint
    for a, b, k in ((lo, min(hi, one), below), (max(lo, one), hi, above)):
        k = min(max(k, a), b)
        if a > b or not flat(k):
            continue
        left, right = edge(k, a), edge(k, b)
        if pieces and pieces[-1][1] == left:
            pieces[-1] = (pieces[-1][0], right, pieces[-1][2])
        else:
            pieces.append((left, right, k))
    if not pieces:
        return None
    ranges = tuple((a, b) for a, b, _ in pieces if b - a > DEDUPE_TOL)
    ties = _distinct(0.5 * (a + b) if b - a > DEDUPE_TOL else k
                     for a, b, k in pieces)
    widest = max(ranges, key=lambda rg: rg[1] - rg[0], default=None)
    delta_star = 0.5 * (widest[0] + widest[1]) if widest else ties[0]
    return OptimizeResult(delta_star, _evaluate(query, delta_star), ties,
                          bool(ranges), ranges)


def optimize_delta(query: QualityQuery) -> OptimizeResult:
    """Best delta for the query: max density (packing) or min (covering).

    Volume-measure packing in 2D and 3D whose budget covers space somewhere in
    delta_range is flat at its optimum, read off the closed-form covering
    density (_plateau_optimum).  Every other objective (the covering density
    negated) rises on (0, 1/sqrt(n+1)), falls on (1/sqrt(n+1), 1), rises on
    (1, sqrt(n+1)) and falls beyond, so only the ends of delta_range and the
    breakpoints inside it are evaluated: an optimum at a kink (hexagonal and
    its dual, BCC, FCC) is exact.  Ties are within TIE_TOL of the best,
    DEDUPE_TOL apart; delta_star is the best, then the smallest.  Covering and
    the distance measure work in any n >= 2, the volume measure in n = 2, 3.

    The shape is proved for the distance measure and for covering, whose
    objectives go as packing_radius^n / delta and covering_radius^n /
    delta.  Packing: the outer branches go as delta^(n-1) and 1/delta, the
    middle one has the log-slope (n-1)(delta^2-1) / (delta (n-1+delta^2)).
    Covering, x = delta^2: the log-slope vanishes only where (2n-1)(n+1)x^2
    + (n^2+2)x - (n+1) = 0 (delta <= 1), x = n+1 (odd n, delta >= 1) or
    (n-1)x^2 - (n^2-2)x - (n+1) = 0 (even n, delta >= 1), each with exactly
    one positive root, 1/(n+1) or n+1.  The 2D volume measure has the
    exact slope density_derivative_2d on 0 < delta < 1, and takes the same
    value at delta and 1/delta.  Of its three branches two have an evident
    sign: pi s / (2 delta half_t2) > 0 below 1/sqrt(3), and a factor
    delta^2 - 1 < 0 above it.  The third, both segment families active,
    has the numerator (delta^2 - 1) t + 2 delta u s; that it is > 0 below
    1/sqrt(3) and < 0 above is checked, not proved, on 600 deltas x 11
    budgets below the covering overlap (tests/test_quality.py).  The 3D
    volume measure is checked, not proved: its slope changes sign inside
    no branch, beyond 1e-10, on 3,000 log-spaced deltas over [0.05, 20] at
    15 budgets below the least covering overlap, nor on 1,500 at 8 above
    it, off the plateau (tests/test_quality.py checks a coarser grid).
    """
    _validate_query(query)
    res = _plateau_optimum(query)
    if res is not None:
        return res
    lo, hi = query.delta_range
    candidates = [(d, _objective(query, d)) for d in sorted(
        {lo, hi, *(b for b in _breakpoints(query.n) if lo < b < hi)})]
    best = max(v for _, v in candidates)
    tied = [dv for dv in candidates if dv[1] >= best - TIE_TOL]
    delta_star = max(tied, key=lambda dv: (dv[1], -dv[0]))[0]
    return OptimizeResult(delta_star, _evaluate(query, delta_star),
                          _distinct(d for d, _ in tied), False, ())


def crossover_omega(n: int = 3, delta_a: float = 0.5, delta_b: float = 2.0,
                    omega_hi: float = 0.5, grid: int = 51) -> float:
    """Budget at which lattice a overtakes lattice b in packing quality.

    With k = (delta_b / delta_a)^(1/n), lattice b at radius k r has the
    density of lattice a at radius r.  The overlap is density minus
    union, so at the budget omega = vol_overlap(a, r) b packs denser
    than a exactly when g(r) = union(b, k r) - union(a, r) > 0: b then
    has less overlap than omega at k r, and its overlap increases in r.
    The crossover is the root r* of g, and the answer is
    vol_overlap(a, r*).

    g is scanned at `grid` evenly spaced radii from max(packing radius
    of a, packing radius of b / k), below which b has no overlap at k r
    and so leads, to max_radius_for_overlap(a, omega_hi), the call's
    one inversion.  The sign of g names the leader: b, a, or neither.
    Once r reaches both covering radii (b's divided by k) both unions
    are 1 and g is exactly 0: a tie, not a crossover.  The sign must
    change exactly once on the scan, strictly, from one lattice to the
    other; otherwise NoCrossoverError is raised, so a scan that ends in
    the tie raises even after a strict change.  ValueError is raised
    unless omega_hi is finite and > 0 and grid is an integer >= 2.  The
    ITP steps of `_itp` close the changing interval down to
    max(RADIUS_TOL, ulp) in r, and the root is read off the end where
    |g| is smaller.  n is 2 or 3, where the volume overlap has a closed
    form; other dimensions have none and raise NoClosedFormError.
    """
    grid = _check_int("grid", grid, 2)
    _check_delta(omega_hi, "omega_hi")
    lat_a = DistortedLattice(n, delta_a)
    lat_b = DistortedLattice(n, delta_b)
    k = (delta_b / delta_a) ** (1.0 / n)

    def g(r: float) -> float:
        return union_fraction(lat_b, k * r) - union_fraction(lat_a, r)

    start = max(packing_radius(lat_a), packing_radius(lat_b) / k)
    end = max_radius_for_overlap(lat_a, OverlapMeasure.VOLUME_BASED,
                                 omega_hi)
    radii = [start + (end - start) * i / (grid - 1) for i in range(grid)]
    values = [g(r) for r in radii]
    # the sign of g names the leader: b, a, or neither, a tie
    signs = [(v > 0.0) - (v < 0.0) for v in values]
    changes = [i for i in range(grid - 1) if signs[i] != signs[i + 1]]
    strict = sum(signs[i] == -signs[i + 1] for i in changes)
    if len(changes) != 1 or strict != 1:
        raise NoCrossoverError(
            f"expected exactly one sign change on [0, {omega_hi}], found "
            f"{strict} and {len(changes) - strict} to or from a tie")
    i = changes[0]
    # orient g so that it rises through the root, as _itp expects
    sign = 1.0 if values[i] < 0.0 else -1.0
    lo, f_lo, hi, f_hi = (radii[i], sign * values[i],
                          radii[i + 1], sign * values[i + 1])
    for lo, f_lo, hi, f_hi in _itp(lambda r: sign * g(r), lo, f_lo, hi, f_hi):
        pass
    return vol_overlap(lat_a, lo if -f_lo <= f_hi else hi)
