"""Named verification suites: closed forms against known constants,
optimizer claims, and the Monte Carlo oracle.

Three suites: "theorems" (exact constants and argmax/argmin structure,
no sampling), "oracle" (closed-form union against seeded Monte Carlo on
grids spanning every branch of the 2D and 3D volume formulas), and
"all".  Every check is named, carries observed and expected strings, and
the report serializes to JSON.
"""

import math
from typing import NamedTuple

from .lattice import (
    DistortedLattice,
    _check_int,
    covering_radius,
    packing_radius,
)
from .geometry3d import dual_radii_3d
from .measures import OverlapMeasure, density, union_fraction
from .oracle import mc_union
from .quality import (
    NoCrossoverError,
    QualityMode,
    QualityQuery,
    crossover_omega,
    max_radius_for_overlap,
    optimize_delta,
    qual_covering,
    qual_packing,
)

__all__ = ["CheckResult", "VerifyReport", "run_suite", "SUITES"]

SUITES = ("all", "theorems", "oracle")

# (delta, r-placement) grids for the oracle suite.  r placements: "bXX"
# is a fraction of the packing radius, "tXX" interpolates packing to
# covering, "a02" sits just past covering.
GRID_DELTAS_2D = (0.2, 0.35, 0.5, 0.5773502691896258, 0.7, 0.85, 1.0,
                  1.2, 1.5, 1.9, 2.6, 4.0)
GRID_DELTAS_3D = (0.2, 0.35, 0.45, 0.5, 0.55, 0.6, 0.632, 0.65, 0.66,
                  0.7, 0.8, 0.9, 0.95, 1.0, 1.2, 1.5, 2.0, 3.0)
GRID_PLACEMENTS = ("b50", "b90", "t15", "t35", "t55", "t70", "t85",
                   "t95", "a02")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    observed: str
    expected: str

    def as_dict(self) -> dict:
        return self._asdict()


class VerifyReport(NamedTuple):
    suite: str
    passed: bool
    checks: tuple[CheckResult, ...]
    # oracle cells outside 3 se but inside 5 se that the suite verdict
    # excused as expected statistical excursions; see run_suite
    tolerated: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "tolerated": list(self.tolerated),
            "checks": [c.as_dict() for c in self.checks],
        }

    def failures(self) -> tuple[CheckResult, ...]:
        excused = set(self.tolerated)
        return tuple(c for c in self.checks
                     if not c.passed and c.name not in excused)


def _check_value(name: str, got: float, expect: float,
                 tol: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=abs(got - expect) <= tol,
        observed=f"{got:.12g}",
        expected=f"{expect:.12g} +- {tol:g}",
    )


def _constants_checks() -> list[CheckResult]:
    dist = OverlapMeasure.DISTANCE_BASED
    hexagonal = DistortedLattice(2, 1.0 / math.sqrt(3.0))
    fcc = DistortedLattice(3, 2.0)
    bcc = DistortedLattice(3, 0.5)
    return [
        _check_value("constant: hexagonal packing density",
                     qual_packing(hexagonal, dist, 0.0).density,
                     math.pi / math.sqrt(12.0), 1e-9),
        _check_value("constant: fcc packing density",
                     qual_packing(fcc, dist, 0.0).density,
                     math.pi / math.sqrt(18.0), 1e-9),
        _check_value("constant: hexagonal covering density",
                     qual_covering(hexagonal, 0.0).density,
                     2.0 * math.pi / math.sqrt(27.0), 1e-9),
        _check_value("constant: bcc covering density",
                     qual_covering(bcc, 0.0).density,
                     5.0 * math.sqrt(5.0) * math.pi / 24.0, 1e-9),
    ]


def _argopt_check(name: str, query: QualityQuery, expect: float,
                  tol: float = 1e-6) -> CheckResult:
    res = optimize_delta(query)
    hit = any(abs(t - expect) <= tol for t in res.ties) or any(
        lo - tol <= expect <= hi + tol for lo, hi in res.plateau_ranges)
    observed = f"delta*={res.delta_star:.9g}"
    if len(res.ties) > 1:
        observed += " ties=" + ",".join(f"{t:.9g}" for t in res.ties)
    if res.plateau:
        observed += " plateau=" + ",".join(
            f"[{lo:.6g},{hi:.6g}]" for lo, hi in res.plateau_ranges)
    return CheckResult(name=name, passed=hit, observed=observed,
                       expected=f"attains {expect:.9g} +- {tol:g}")


def _theorem_checks() -> list[CheckResult]:
    checks = _constants_checks()
    dist = OverlapMeasure.DISTANCE_BASED
    vol = OverlapMeasure.VOLUME_BASED
    for n in (2, 3, 4, 5):
        for omega in (0.0, 0.25, 0.5, 0.75):
            checks.append(_argopt_check(
                f"argmax packing dist n={n} omega={omega}",
                QualityQuery(n=n, mode=QualityMode.PACKING, measure=dist,
                             omega=omega),
                math.sqrt(n + 1.0)))
            checks.append(_argopt_check(
                f"argmin covering n={n} omega={omega}",
                QualityQuery(n=n, mode=QualityMode.COVERING, omega=omega),
                1.0 / math.sqrt(n + 1.0)))
    for omega in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0):
        # 1/sqrt 3 is a breakpoint candidate, so the sharp optima at
        # omega 0.05 to 0.2 come out exact and the plateaus at 0.5 and 1
        # hold it; the 1e-5 bar is wider than they need and stays so the
        # report's expected strings stay the same
        checks.append(_argopt_check(
            f"argmax packing vol n=2 omega={omega}",
            QualityQuery(n=2, mode=QualityMode.PACKING, measure=vol,
                         omega=omega, delta_range=(0.05, 1.0)),
            1.0 / math.sqrt(3.0), tol=1e-5))
    try:
        omega_star = crossover_omega()
        checks.append(CheckResult(
            name="crossover budget bcc vs fcc",
            passed=0.08 <= omega_star <= 0.12,
            observed=f"{omega_star:.6g}",
            expected="in [0.08, 0.12]"))
        densities = []
        for delta in (0.5, 2.0):
            lat = DistortedLattice(3, delta)
            dens = density(lat, max_radius_for_overlap(lat, vol, omega_star))
            densities.append(dens)
            checks.append(CheckResult(
                name=f"density at crossover delta={delta}",
                passed=1.01 <= dens <= 1.05,
                observed=f"{dens:.6g}",
                expected="in [1.01, 1.05]"))
        # the crossover is the budget at which both pack equally densely
        gap = abs(densities[0] - densities[1]) / max(densities)
        checks.append(CheckResult(
            name="densities agree at crossover",
            passed=gap <= 1e-9,
            observed=f"relative gap {gap:.3g}",
            expected="relative gap <= 1e-09"))
    except NoCrossoverError as exc:
        checks.append(CheckResult(
            name="crossover budget bcc vs fcc", passed=False,
            observed=str(exc), expected="exactly one sign change"))
    return checks


def grid_radii(lat: DistortedLattice) -> list[tuple[str, float]]:
    """The oracle-suite radius placements for one lattice."""
    pack, cov = packing_radius(lat), covering_radius(lat)
    out = []
    for tag in GRID_PLACEMENTS:
        kind, pct = tag[0], float(tag[1:]) / 100.0
        if kind == "b":
            out.append((tag, pack * pct))
        elif kind == "t":
            out.append((tag, pack + pct * (cov - pack)))
        else:
            out.append((tag, cov * (1.0 + pct)))
    if lat.n == 3 and lat.delta > 1.0:
        dr = dual_radii_3d(lat.delta)
        out.append(("band", 0.5 * (dr.s1 + dr.s2)))
    return out


def _excursion_allowance(cells: int) -> int:
    # a two-sided 3 se gate trips on 0.27% of correct cells, so over a
    # few hundred cells a correct implementation still shows a handful;
    # allow the Poisson mean plus four standard deviations of them
    mu = 0.0027 * cells
    return max(2, math.ceil(mu + 4.0 * math.sqrt(mu)))


def _oracle_cells() -> list[tuple[DistortedLattice, str, float]]:
    """The oracle suite's (lattice, placement, radius) cells, in order."""
    return [(lat, tag, r)
            for n, deltas in ((2, GRID_DELTAS_2D), (3, GRID_DELTAS_3D))
            for lat in (DistortedLattice(n, delta) for delta in deltas)
            for tag, r in grid_radii(lat)]


def _oracle_checks(cells, samples: int, seed: int,
                   par: int | None) -> tuple[list[CheckResult], list[str]]:
    checks: list[CheckResult] = []
    tolerable: list[str] = []
    for case, (lat, tag, r) in enumerate(cells):
        closed = union_fraction(lat, r)
        est = mc_union(lat, r, samples=samples, seed=seed + case, par=par)
        # the empirical standard error vanishes when every sample lands
        # covered; fall back to the binomial error implied by the
        # closed-form probability
        sigma = max(est.std_error, math.sqrt(
            max(closed * (1.0 - closed), 0.0) / samples))
        bound = 3.0 * sigma + 1e-15
        diff = abs(closed - est.mean)
        name = f"oracle union n={lat.n} delta={lat.delta:.10g} r={tag}"
        if bound < diff <= 5.0 * sigma + 1e-15:
            tolerable.append(name)
        checks.append(CheckResult(
            name=name,
            passed=diff <= bound,
            observed=f"closed={closed:.9g} mc={est.mean:.9g} "
                     f"diff={diff:.3g}",
            expected=f"|diff| <= {bound:.3g} (3 se at {samples})"))
    return checks, tolerable


def run_suite(suite: str = "all", samples: int = 1_000_000, seed: int = 0,
              par: int | None = None) -> VerifyReport:
    """Run one named suite and aggregate the results.

    Every check is recorded at its stated bound.  The suite verdict for
    oracle cells excuses the statistically expected number of cells in
    the 3 to 5 standard-error band (their names land in ``tolerated``);
    any cell beyond 5 standard errors, or more band cells than the
    allowance, fails the suite outright.

    samples (>= 1), seed (>= 0) and par (>= 1, or None for one thread)
    are the oracle's, and every suite refuses them unless they are
    integers in range, the theorems suite too, which draws no samples.
    Oracle cell i draws from seed + i, so a suite that runs the oracle
    refuses a seed within its cell count of 2^128, Philox's key range.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    samples = _check_int("samples", samples, 1)
    cells = _oracle_cells() if suite in ("all", "oracle") else []
    seed = _check_int("seed", seed, 0, (1 << 128) - max(len(cells) - 1, 0))
    if par is not None:
        par = _check_int("par", par, 1)
    checks: list[CheckResult] = []
    tolerated: tuple[str, ...] = ()
    if suite in ("all", "theorems"):
        checks.extend(_theorem_checks())
    if suite in ("all", "oracle"):
        oracle, tolerable = _oracle_checks(cells, samples, seed, par)
        checks.extend(oracle)
        if len(tolerable) <= _excursion_allowance(len(oracle)):
            tolerated = tuple(tolerable)
    excused = set(tolerated)
    return VerifyReport(
        suite=suite,
        passed=all(c.passed or c.name in excused for c in checks),
        checks=tuple(checks),
        tolerated=tolerated,
    )
