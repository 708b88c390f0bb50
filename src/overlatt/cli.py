"""Command-line interface: evaluation, sweeps, optimization, verification.

Subcommands: radii, measure, quality, sweep, verify.  All numeric output
uses 17 significant digits with a C-locale decimal point, CSV blocks
start with a `# overlatt v<semver>` header line, and any run with the
same flags and seed is byte-identical.  Exit codes: 0 success, 1
verification failure, 2 usage or domain error.
"""

import argparse
import json
import math
import sys

from . import __version__
from .geometry2d import critical_radii_2d
from .geometry3d import build_cap_arrangement, critical_radii_3d, dual_radii_3d
from .lattice import (
    DELTA_MAX,
    DELTA_MIN,
    DistortedLattice,
    covering_radius,
    packing_radius,
    shortest_vector_norm,
)
from .measures import (
    MeasureReport,
    NoClosedFormError,
    OverlapMeasure,
    UndefinedRatioError,
    density,
    dist_overlap,
    free_space,
    measure_report,
)
from .oracle import mc_union
from .quality import (
    QualityMode,
    QualityQuery,
    QualityResult,
    optimize_delta,
    qual_covering,
    qual_packing,
)
from .verify import SUITES, run_suite

__all__ = ["main"]

MEASURES = tuple(m.value for m in OverlapMeasure)


def _finite(x: float) -> float:
    """x, unless it is +-inf, a result that left the float range (NaN
    passes: it marks a union without a closed form)."""
    if math.isinf(x):
        raise OverflowError(f"a result is {x}")
    return x


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{_finite(x):.17g}"
    return str(x)


def _json_safe(x):
    if isinstance(x, float) and math.isnan(_finite(x)):
        return None
    return x


def _emit(lines: list[str], out: str | None):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _rows_csv(fields, rows) -> list[str]:
    lines = [f"# overlatt v{__version__}", ",".join(fields)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return lines


def _rows_json(command: str, fields, rows) -> list[str]:
    payload = {
        "version": __version__,
        "command": command,
        "rows": [{k: _json_safe(v) for k, v in zip(fields, row)}
                 for row in rows],
    }
    return [json.dumps(payload, indent=2, sort_keys=False)]


def _emit_rows(args, command: str, fields, rows):
    if args.format == "json":
        _emit(_rows_json(command, fields, rows), args.out)
    else:
        _emit(_rows_csv(fields, rows), args.out)


def _given(args, *names) -> dict:
    """The flags among names that were given (not None), by name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _refuse_unread(args, reader: str, *names):
    """ValueError naming the flags among names that were given, although
    reader reads none of them."""
    given = ", ".join("--" + name.replace("_", "-")
                      for name in _given(args, *names))
    if given:
        raise ValueError(f"{reader} reads no {given}")


def _geomspace(lo: float, hi: float, steps: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (steps - 1)) for i in range(steps)]


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _fig_deltas(steps: int) -> list[float]:
    return _geomspace(0.05, 20.0, steps)


# preset -> (mode, measure, default steps, axes); axes(steps) gives the
# deltas and omegas of the sweep, and --steps resizes the swept one
PRESETS = {
    "fig1-left": ("packing", "dist", 200,
                  lambda steps: (_fig_deltas(steps), [0.5])),
    "fig1-right": ("covering", None, 200,
                   lambda steps: (_fig_deltas(steps), [0.5])),
    "fig3": ("packing", "vol", 60,
             lambda steps: (_fig_deltas(steps), _linspace(0.0, 1.0, 21))),
    "fig3-middle": ("packing", "vol", 200,
                    lambda steps: (_fig_deltas(steps), [0.05, 0.1, 0.3])),
    "fig3-right": ("packing", "vol", 101,
                   lambda steps: ([0.5, 1.0, 2.0],
                                  _linspace(0.0, 0.5, steps))),
}


def cmd_radii(args) -> int:
    lat = DistortedLattice(args.dim, args.delta)
    lines = [f"# overlatt v{__version__}",
             f"dim {args.dim}",
             f"delta {_fmt(args.delta)}",
             f"packing_radius {_fmt(packing_radius(lat))}",
             f"covering_radius {_fmt(covering_radius(lat))}",
             f"shortest_vector {_fmt(shortest_vector_norm(lat))}"]
    if args.dim == 2:
        # the cell at delta > 1 is an isometric delta-scaling of the cell
        # at 1/delta, so the catalog transfers by scaling
        rad = critical_radii_2d(min(args.delta, 1.0 / args.delta))
        scale = max(args.delta, 1.0)
        lines.append(f"r1 {_fmt(scale * rad.r1)} x4 edges")
        lines.append(f"r2 {_fmt(scale * rad.r2)} x2 edges")
        lines.append(f"r3 {_fmt(scale * rad.r3)} vertices")
    elif args.dim == 3:
        if args.delta <= 1.0:
            rad = critical_radii_3d(args.delta)
            for name in ("r1", "r2", "r3", "r4", "r5", "r6"):
                lines.append(f"{name} {_fmt(getattr(rad, name))}")
        else:
            dual = dual_radii_3d(args.delta)
            lines.append(f"s1 {_fmt(dual.s1)}")
            lines.append(f"s2 {_fmt(dual.s2)}")
        arr = build_cap_arrangement(args.delta)
        for label, multiset in (("faces", arr.plane_distance_multiset()),
                                ("vertices", arr.vertex_distance_multiset())):
            # multiset keys are grouped at 1e-9, so print 10 digits
            parts = [f"{float(d):.10g} x{c}"
                     for d, c in sorted(multiset.items())]
            lines.append(f"{label} " + ", ".join(parts))
        lines.append(f"edges {len(arr.edges)}")
        if arr.degenerate:
            lines.append("degenerate true")
    _emit(lines, args.out)
    return 0


def cmd_measure(args) -> int:
    lat = DistortedLattice(args.dim, args.delta)
    est = None
    if args.oracle:
        est = mc_union(lat, args.r, **_given(args, "samples", "seed", "par"))
    else:
        _refuse_unread(args, "measure without --oracle", "samples", "seed",
                       "par")
    try:
        rep = measure_report(lat, args.r)
    except NoClosedFormError:
        if est is None:
            raise ValueError(
                f"no exact union form in dimension {args.dim}; rerun "
                "with --oracle [--samples N --seed S]") from None
        # the estimate stands in for the union
        dens = density(lat, args.r)
        rep = MeasureReport(
            delta=args.delta, n=args.dim, r=args.r, density=dens,
            union=est.mean, dist_overlap=dist_overlap(lat, args.r),
            vol_overlap=dens - est.mean, free_space=free_space(lat, args.r))
    fields, row = list(MeasureReport._fields), tuple(rep)
    if est is not None:
        fields += ["mc_union", "mc_se", "samples", "seed"]
        row += (est.mean, est.std_error, est.samples, est.seed)
    _emit_rows(args, "measure", fields, [row])
    return 0


def _quality_row(n: int, delta: float, mode: str, measure: str | None,
                 omega: float) -> QualityResult:
    lat = DistortedLattice(n, delta)
    if mode == "packing":
        return qual_packing(lat, OverlapMeasure(measure), omega)
    return qual_covering(lat, omega)


def cmd_quality(args) -> int:
    if args.mode == "packing" and args.measure is None:
        raise ValueError("packing mode requires --measure dist|vol")
    if args.mode == "covering":
        _refuse_unread(args, "covering mode", "measure")
    if args.optimize:
        query = QualityQuery(
            n=args.dim,
            mode=QualityMode(args.mode),
            measure=OverlapMeasure(args.measure) if args.measure else None,
            omega=args.omega,
            delta_range=(
                DELTA_MIN if args.delta_lo is None else args.delta_lo,
                DELTA_MAX if args.delta_hi is None else args.delta_hi),
        )
        res = optimize_delta(query)
        fields = list(res.result._fields) + ["ties", "plateau"]
        ties = ";".join(_fmt(t) for t in res.ties)
        plateau = ";".join(f"{_fmt(lo)}..{_fmt(hi)}"
                           for lo, hi in res.plateau_ranges)
        rows = [tuple(res.result) + (ties, plateau)]
        _emit_rows(args, "quality-optimize", fields, rows)
        return 0
    _refuse_unread(args, "quality without --optimize", "delta_lo",
                   "delta_hi")
    if args.delta is None:
        raise ValueError("--delta is required unless --optimize is given")
    res = _quality_row(args.dim, args.delta, args.mode, args.measure,
                       args.omega)
    _emit_rows(args, "quality", res._fields, [tuple(res)])
    return 0


def cmd_sweep(args) -> int:
    if args.preset:
        # a preset sets its own axes, mode and measure
        _refuse_unread(args, "sweep --preset", "lo", "hi", "delta", "omega",
                       "mode", "measure")
        mode, measure, steps, axes = PRESETS[args.preset]
        steps = steps if args.steps is None else args.steps
        dim = 3 if args.dim is None else args.dim
    else:
        # r rows are the five measures; delta and omega span --lo..--hi
        _refuse_unread(args, f"sweep --variable {args.variable}",
                       *(("mode", "measure", "omega") if args.variable == "r"
                         else (args.variable,)))
        if args.mode == "covering":
            _refuse_unread(args, "covering mode", "measure")
        if args.mode == "packing" and args.measure is None:
            raise ValueError("packing mode requires --measure dist|vol")
        lo, hi, steps, dim = args.lo, args.hi, args.steps, args.dim
        mode, measure = args.mode, args.measure
        if lo is None or hi is None or not lo < hi:
            raise ValueError(f"sweep needs --lo < --hi, got {lo}, {hi}")
        if dim is None:
            raise ValueError("sweep needs --dim")
        if args.variable == "delta":
            if lo <= 0.0:
                raise ValueError(f"sweeping delta needs --lo > 0, got {lo}")
            omega = 0.0 if args.omega is None else args.omega
            axes = lambda steps: (_geomspace(lo, hi, steps), [omega])
        elif args.delta is None:
            raise ValueError(f"sweeping {args.variable} needs --delta")
        elif args.variable == "omega":
            axes = lambda steps: ([args.delta], _linspace(lo, hi, steps))
    if steps is None or steps < 2:
        raise ValueError(f"sweep needs --steps >= 2, got {steps}")
    if args.variable == "r":
        lat = DistortedLattice(dim, args.delta)
        rows = [tuple(measure_report(lat, r))
                for r in _linspace(args.lo, args.hi, steps)]
        _emit_rows(args, "sweep:r", MeasureReport._fields, rows)
        return 0
    if mode is None:
        raise ValueError("sweeping delta or omega needs --mode")
    deltas, omegas = axes(steps)
    rows = [tuple(_quality_row(dim, delta, mode, measure, omega))
            for delta in deltas for omega in omegas]
    _emit_rows(args, f"sweep:{args.preset or args.variable}",
               QualityResult._fields, rows)
    return 0


def cmd_verify(args) -> int:
    if args.suite == "theorems":
        _refuse_unread(args, "verify --suite theorems", "samples", "seed",
                       "par")
    report = run_suite(args.suite, **_given(args, "samples", "seed", "par"))
    payload = report.as_dict()
    payload["version"] = __version__
    _emit([json.dumps(payload, indent=2)], args.out)
    for name in report.tolerated:
        print(f"TOLERATED {name}: outside 3 se, within 5 se",
              file=sys.stderr)
    if not report.passed:
        for check in report.failures():
            print(f"FAIL {check.name}: observed {check.observed}, "
                  f"expected {check.expected}", file=sys.stderr)
        return 1
    return 0


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="write to file (default "
                   "stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlatt",
        description="Sphere arrangement measures and quality optimization "
                    "on diagonally distorted integer lattices.")
    parser.add_argument("--version", action="version",
                        version=f"overlatt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radii", help="packing, covering, and critical "
                       "radii of one lattice")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_radii)

    p = sub.add_parser("measure", help="all five measures at one "
                       "(lattice, radius)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="add Monte Carlo columns (required for dim > 3)")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--par", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("quality", help="relaxed packing/covering quality "
                       "at one delta, or optimized over delta")
    p.add_argument("--mode", choices=("packing", "covering"),
                   required=True)
    p.add_argument("--measure", choices=MEASURES, default=None)
    p.add_argument("--dim", type=int, required=True)
    at = p.add_mutually_exclusive_group()
    at.add_argument("--delta", type=float, default=None)
    at.add_argument("--optimize", action="store_true",
                    help="search delta in [--delta-lo, --delta-hi]")
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--delta-lo", type=float, default=None)
    p.add_argument("--delta-hi", type=float, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("sweep", help="emit rows over a swept variable or "
                       "a figure preset")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=tuple(PRESETS), default=None)
    source.add_argument("--variable", choices=("delta", "omega", "r"),
                        default=None)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--mode", choices=("packing", "covering"), default=None)
    p.add_argument("--measure", choices=MEASURES, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a verification suite, exit "
                       "nonzero on failure")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--par", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OverflowError as exc:
        # float ** raises OverflowError(34, 'Numerical result out of range')
        print(f"error: a value leaves the float range ({exc.args[-1]})",
              file=sys.stderr)
        return 2
    except (ValueError, NoClosedFormError, UndefinedRatioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
