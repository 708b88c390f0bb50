"""Relaxed packing and covering quality, and their optimization over delta.

Both qualities follow the same two-step scheme: find the extremal radius
that satisfies a scalar constraint budget omega, then report the density
at that radius.  Packing maximizes density subject to an overlap bound;
covering minimizes density subject to a free-space bound.
"""

import enum
import math
import numbers
from typing import NamedTuple

from .lattice import (
    DELTA_MAX,
    DELTA_MIN,
    DistortedLattice,
    covering_radius,
    packing_radius,
    shortest_vector_norm,
)
from .measures import (
    NoClosedFormError,
    OverlapMeasure,
    density,
    free_space,
    overlap_value,
    union_fraction,
    vol_overlap,
)

__all__ = [
    "NoCrossoverError",
    "OptimizeResult",
    "QualityMode",
    "QualityQuery",
    "QualityResult",
    "crossover_omega",
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
# the reporting bar is 1e-7 in delta, but exactly tied peaks can sit at
# branch kinks where a delta error of g leaves a value error of
# slope * g; refining to 1e-11 keeps that error under TIE_TOL
DELTA_REFINE_TOL = 1e-11


class QualityMode(enum.Enum):
    PACKING = "packing"
    COVERING = "covering"


class NoCrossoverError(RuntimeError):
    """The density difference did not change sign exactly once."""


class QualityQuery(NamedTuple):
    """One optimization problem over the distortion parameter."""

    n: int
    mode: QualityMode
    measure: OverlapMeasure | None = None
    omega: float = 0.0
    delta_range: tuple[float, float] = (DELTA_MIN, DELTA_MAX)
    # log-spaced scan size; the branch breakpoints are added to the scan
    # and evaluated exactly, so the scan only has to bracket every local
    # optimum away from them
    scan_points: int = 40


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
    genuinely non-unique).  When the objective is flat at its optimum
    over whole intervals, `plateau` is set and `plateau_ranges` holds
    the refined intervals; delta_star is then the midpoint of the widest
    one.  Plateau edges are located to about 1e-6.
    """

    delta_star: float
    result: QualityResult
    ties: tuple[float, ...]
    plateau: bool
    plateau_ranges: tuple[tuple[float, float], ...]


def _validate_omega(measure: OverlapMeasure | None, omega: float):
    if not math.isfinite(omega) or omega < 0.0:
        raise ValueError(f"omega must be finite and >= 0, got {omega}")
    if measure is OverlapMeasure.DISTANCE_BASED and omega >= 1.0:
        raise ValueError("distance-based overlap never reaches 1; "
                         f"omega must be < 1, got {omega}")


def max_radius_for_overlap(lat: DistortedLattice,
                           measure: OverlapMeasure, omega: float) -> float:
    """Largest r whose overlap stays within the budget omega.

    Distance measure: exact inversion r = shortest/(2(1 - omega)).

    Volume measure: the overlap is zero up to the packing radius and
    strictly increasing beyond it, so f(r) = vol_overlap(r) - omega has
    one root.  Doubling from the packing radius brackets it in
    [lo, hi] = [2^(k-1), 2^k] packing_radius (k >= 1), and ITP
    (Oliveira & Takahashi, ACM TOMS 47, 2020; k1 = 0.2 / (hi - lo),
    k2 = 2, n0 = 1) shrinks the bracket: a regula falsi step, truncated
    towards the midpoint by k1 (hi - lo)^2 and projected into the
    interval that keeps the bisection worst case.  Every step keeps
    vol_overlap(lo) <= omega < vol_overlap(hi) and the loop stops at
    hi - lo <= max(RADIUS_TOL, ulp(hi)), returning lo: within RADIUS_TOL
    of the root, or its float neighbour where floats are spaced wider
    than that (radii above 2^13).  Where the overlap is smooth it
    converges superlinearly (about 12 evaluations instead of 40); it
    never evaluates more than ceil(log2((hi - lo) / RADIUS_TOL)) + 1
    times, one more than bisection of the same bracket.
    """
    _validate_omega(measure, omega)
    if measure is OverlapMeasure.DISTANCE_BASED:
        return shortest_vector_norm(lat) / (2.0 * (1.0 - omega))
    if measure is not OverlapMeasure.VOLUME_BASED:
        raise ValueError(f"unknown overlap measure {measure!r}")
    lo = packing_radius(lat)
    if omega == 0.0:
        return lo
    f_lo = -omega  # the overlap is exactly zero at the packing radius
    hi = 2.0 * lo
    f_hi = vol_overlap(lat, hi) - omega
    while f_hi <= 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = vol_overlap(lat, hi) - omega
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
        if not lo < x < hi:
            # falsi can round onto an end, whose overlap is known
            x = mid
        f_x = vol_overlap(lat, x) - omega
        if f_x <= 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        reach *= 0.5
    return lo


def _union_or_nan(lat: DistortedLattice, r: float) -> float:
    try:
        return union_fraction(lat, r)
    except NoClosedFormError:
        return math.nan


def qual_packing(lat: DistortedLattice, measure: OverlapMeasure,
                 omega: float) -> QualityResult:
    """Maximal density whose overlap stays within omega."""
    r = max_radius_for_overlap(lat, measure, omega)
    return QualityResult(
        delta=lat.delta,
        omega=omega,
        r=r,
        density=density(lat, r),
        union=_union_or_nan(lat, r),
        overlap=overlap_value(lat, r, measure),
        mode=QualityMode.PACKING.value,
        measure=measure.value,
    )


def qual_covering(lat: DistortedLattice, omega: float) -> QualityResult:
    """Minimal density whose free space stays within omega.

    The free-space constraint inverts exactly: r = covering/(1 + omega).
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


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _bisect_edge(f, inside: float, outside: float, level: float) -> float:
    """Point where f crosses below `level` between an inside and an
    outside sample.  Works for either edge orientation."""
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        if f(mid) >= level:
            inside = mid
        else:
            outside = mid
        if abs(inside - outside) < 1e-9:
            break
    return inside


def _contiguous_runs(indices: list[int]) -> list[list[int]]:
    runs: list[list[int]] = []
    for i in indices:
        if runs and i == runs[-1][-1] + 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def _breakpoints(n: int) -> tuple[float, float, float]:
    """Deltas where the objective changes branch: packing_radius at
    1/sqrt(n+1) and sqrt(n+1), covering_radius and the 3D catalog at 1."""
    return (1.0 / math.sqrt(n + 1.0), 1.0, math.sqrt(n + 1.0))


def _validate_query(query: QualityQuery):
    lo, hi = query.delta_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"delta_range must be finite, got {lo}, {hi}")
    if not (lo < hi):
        raise ValueError(f"delta_range must satisfy lo < hi, got {lo}, {hi}")
    if lo <= 0.0:
        raise ValueError(f"delta_range must be positive, got lo = {lo}")
    if (not isinstance(query.scan_points, numbers.Integral)
            or query.scan_points < 2):
        raise ValueError("scan_points must be an integer >= 2, "
                         f"got {query.scan_points!r}")
    if query.mode is QualityMode.PACKING:
        if query.measure is None:
            raise ValueError("packing mode requires an overlap measure")
        _validate_omega(query.measure, query.omega)
    elif query.mode is QualityMode.COVERING:
        _validate_omega(None, query.omega)
    else:
        raise ValueError(f"unknown mode {query.mode!r}")


def optimize_delta(query: QualityQuery) -> OptimizeResult:
    """Best delta for the query: max density (packing) or min (covering).

    The objective changes branch at three breakpoints, 1/sqrt(n+1), 1
    and sqrt(n+1), and its optima sit at them more often than not (the
    hexagonal lattice, FCC and BCC).  A log-spaced scan of
    `scan_points` deltas, with every breakpoint inside `delta_range`
    added, brackets the optima; each breakpoint is also an exact
    candidate.  Every local maximum of the scan is golden-section
    refined over its two neighbours to |d delta| < 1e-11.  A refined
    candidate that does not beat a breakpoint inside that bracket by
    more than 1e-9 is reported as the breakpoint itself, so an optimum
    at a kink comes out exact rather than refined down to noise.  All
    deltas whose objective ties the best within 1e-9 are reported,
    collapsed when closer than 1e-6.  Runs of three or more tied scan
    points mark a genuinely flat optimum; those are returned as plateau
    intervals with bisection-refined edges instead of single points.
    """
    _validate_query(query)
    lo, hi = query.delta_range
    f = lambda d: _objective(query, d)
    m = query.scan_points
    kinks = [b for b in _breakpoints(query.n) if lo <= b <= hi]
    xs = sorted({lo, hi, *kinks,
                 *(lo * (hi / lo) ** (i / (m - 1)) for i in range(1, m - 1))})
    fs = [f(x) for x in xs]
    vmax = max(fs)
    kink_at = {b: xs.index(b) for b in kinks}

    near = [i for i, v in enumerate(fs) if v >= vmax - TIE_TOL]
    runs = _contiguous_runs(near)
    plateau_mode = any(len(run) >= 3 for run in runs)

    candidates: list[tuple[float, float]] = []  # (delta, objective)
    refined: list[tuple[float, float, float, float]] = []  # bracket, peak
    ranges: list[tuple[float, float]] = []

    if plateau_mode:
        for run in runs:
            i0, i1 = run[0], run[-1]
            left = xs[i0] if i0 == 0 else _bisect_edge(
                f, xs[i0], xs[i0 - 1], vmax - TIE_TOL)
            right = xs[i1] if i1 == len(xs) - 1 else _bisect_edge(
                f, xs[i1], xs[i1 + 1], vmax - TIE_TOL)
            if right - left > DEDUPE_TOL:
                ranges.append((left, right))
                mid = 0.5 * (left + right)
                candidates.append((mid, f(mid)))
            else:
                # a near-max run too narrow to be flat is a point peak
                a = xs[max(i0 - 1, 0)]
                b = xs[min(i1 + 1, len(xs) - 1)]
                refined.append((a, b, *_golden_max(f, a, b,
                                                   DELTA_REFINE_TOL)))

    # refine every local maximum of the scan; a tied peak elsewhere can
    # sit below the scan maximum at grid resolution and still refine to
    # the same value
    plateau_idx = {i for run in runs for i in run} if plateau_mode else set()
    for i in range(len(xs)):
        if i in plateau_idx:
            continue
        left_ok = i == 0 or fs[i] >= fs[i - 1]
        right_ok = i == len(xs) - 1 or fs[i] >= fs[i + 1]
        if left_ok and right_ok:
            a = xs[max(i - 1, 0)]
            b = xs[min(i + 1, len(xs) - 1)]
            refined.append((a, b, *_golden_max(f, a, b, DELTA_REFINE_TOL)))

    # a refinement that does not beat a breakpoint in its bracket by more
    # than TIE_TOL reports the breakpoint: at a blunt kink the golden point
    # can settle on noise more than DEDUPE_TOL away and count as a second
    # tie
    for a, b, d, v in refined:
        snap = [(k, fs[i]) for k, i in kink_at.items()
                if a <= k <= b and v <= fs[i] + TIE_TOL]
        candidates.append(snap[0] if snap else (d, v))
    # a breakpoint inside a plateau is represented by that plateau
    candidates.extend((k, fs[i]) for k, i in kink_at.items()
                      if i not in plateau_idx)

    best = max(v for _, v in candidates)
    tied = sorted(d for d, v in candidates if v >= best - TIE_TOL)
    ties: list[float] = []
    for d in tied:
        if not ties or d - ties[-1] > DEDUPE_TOL:
            ties.append(d)

    ranges = [rg for rg in ranges
              if f(0.5 * (rg[0] + rg[1])) >= best - TIE_TOL]
    if ranges:
        widest = max(ranges, key=lambda rg: rg[1] - rg[0])
        delta_star = 0.5 * (widest[0] + widest[1])
    else:
        delta_star = max((dv for dv in candidates if dv[1] >= best - TIE_TOL),
                         key=lambda dv: (dv[1], -dv[0]))[0]
    return OptimizeResult(
        delta_star=delta_star,
        result=_evaluate(query, delta_star),
        ties=tuple(ties),
        plateau=bool(ranges),
        plateau_ranges=tuple(ranges),
    )


def crossover_omega(n: int = 3, delta_a: float = 0.5, delta_b: float = 2.0,
                    omega_hi: float = 0.5, tol: float = 1e-6,
                    grid: int = 51) -> float:
    """Budget at which lattice a overtakes lattice b in packing quality.

    Scans the volume-measure density difference qual(b) - qual(a) over
    [0, omega_hi] and requires exactly one sign change, then bisects it
    to `tol`.  Raises NoCrossoverError when the count is not one, and
    ValueError unless tol and omega_hi are finite and > 0 and grid is an
    integer >= 2.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not isinstance(grid, numbers.Integral) or grid < 2:
        raise ValueError(f"grid must be an integer >= 2, got {grid!r}")
    if not (math.isfinite(omega_hi) and omega_hi > 0.0):
        raise ValueError(f"omega_hi must be finite and > 0, got {omega_hi}")
    lat_a = DistortedLattice(n, delta_a)
    lat_b = DistortedLattice(n, delta_b)

    def diff(omega: float) -> float:
        return (qual_packing(lat_b, OverlapMeasure.VOLUME_BASED,
                             omega).density
                - qual_packing(lat_a, OverlapMeasure.VOLUME_BASED,
                               omega).density)

    omegas = [omega_hi * i / (grid - 1) for i in range(grid)]
    values = [diff(w) for w in omegas]
    flips = [i for i in range(len(values) - 1)
             if values[i] > 0.0 >= values[i + 1]
             or values[i] < 0.0 <= values[i + 1]]
    if len(flips) != 1:
        raise NoCrossoverError(
            f"expected exactly one sign change on [0, {omega_hi}], "
            f"found {len(flips)}")
    lo, hi = omegas[flips[0]], omegas[flips[0] + 1]
    flo = values[flips[0]]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = diff(mid)
        if (flo > 0.0) == (fmid > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
