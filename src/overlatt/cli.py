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
from collections import namedtuple

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
            rad, names = critical_radii_3d(args.delta), "r1 r2 r3 r4 r5 r6"
        else:
            rad, names = dual_radii_3d(args.delta), "s1 s2"
        lines += [f"{n} {_fmt(getattr(rad, n))}" for n in names.split()]
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
    try:
        # before any sampling, so a bad radius costs no samples
        rep = measure_report(lat, args.r)
    except NoClosedFormError:
        if not args.oracle:
            raise ValueError(
                f"no exact union form in dimension {args.dim}; rerun "
                "with --oracle [--samples N --seed S]") from None
        rep = None
    fields, row = list(MeasureReport._fields), ()
    if args.oracle:
        est = mc_union(lat, args.r, **_given(args, "samples", "seed", "par"))
        fields += ["mc_union", "mc_se", "samples", "seed"]
        row = (est.mean, est.std_error, est.samples, est.seed)
    if rep is None:
        # the estimate stands in for the union
        dens = density(lat, args.r)
        rep = MeasureReport(
            delta=args.delta, n=args.dim, r=args.r, density=dens,
            union=est.mean, dist_overlap=dist_overlap(lat, args.r),
            vol_overlap=dens - est.mean, free_space=free_space(lat, args.r))
    _emit_rows(args, "measure", fields, [tuple(rep) + row])
    return 0


def _quality_row(n: int, delta: float, mode: str, measure: str | None,
                 omega: float) -> QualityResult:
    lat = DistortedLattice(n, delta)
    if mode == "packing":
        return qual_packing(lat, OverlapMeasure(measure), omega)
    return qual_covering(lat, omega)


def cmd_quality(args) -> int:
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
    res = _quality_row(args.dim, args.delta, args.mode, args.measure,
                       args.omega)
    _emit_rows(args, "quality", res._fields, [tuple(res)])
    return 0


def cmd_sweep(args) -> int:
    if args.preset:
        mode, measure, steps, axes = PRESETS[args.preset]
        steps = steps if args.steps is None else args.steps
        dim = 3 if args.dim is None else args.dim
    else:
        # r rows are the five measures; delta and omega span --lo..--hi
        lo, hi, steps, dim = args.lo, args.hi, args.steps, args.dim
        mode, measure = args.mode, args.measure
        if not lo < hi:
            raise ValueError(f"sweep needs --lo < --hi, got {lo}, {hi}")
        if args.variable == "delta":
            if lo <= 0.0:
                raise ValueError(f"sweeping delta needs --lo > 0, got {lo}")
            omega = 0.0 if args.omega is None else args.omega
            axes = lambda steps: (_geomspace(lo, hi, steps), [omega])
        elif args.variable == "omega":
            axes = lambda steps: ([args.delta], _linspace(lo, hi, steps))
    if steps < 2:
        raise ValueError(f"sweep needs --steps >= 2, got {steps}")
    if args.variable == "r":
        lat = DistortedLattice(dim, args.delta)
        rows = [tuple(measure_report(lat, r))
                for r in _linspace(args.lo, args.hi, steps)]
        _emit_rows(args, "sweep:r", MeasureReport._fields, rows)
        return 0
    deltas, omegas = axes(steps)
    rows = [tuple(_quality_row(dim, delta, mode, measure, omega))
            for delta in deltas for omega in omegas]
    _emit_rows(args, f"sweep:{args.preset or args.variable}",
               QualityResult._fields, rows)
    return 0


def cmd_verify(args) -> int:
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


# A subcommand. flags: its options' argparse keywords, in --help order.
# case(args): a command line's case. cases: per case, the options it
# needs and [the others it reads]. group: exclusive, required if pick_one.
Command = namedtuple("Command", "run help flags case cases group pick_one",
                     defaults=(lambda args: "", {"": ""}, (), False))

_INT, _FLOAT = {"type": int}, {"type": float}
_REQ_INT, _REQ_FLOAT = {**_INT, "required": True}, {**_FLOAT, "required": True}
_MODE = {"choices": ("packing", "covering")}
_MEASURE = {"choices": tuple(m.value for m in OverlapMeasure)}
_ROWS = {"--out": {"help": "write to file (default stdout)"},
         "--format": {"choices": ("csv", "json"), "default": "csv"}}
_MC = {"--samples": _INT, "--seed": _INT, "--par": _INT}
_SPAN, _READS_MC = "--lo --hi --steps --dim", "[--samples] [--seed] [--par]"

COMMANDS = {
    "radii": Command(
        cmd_radii, "packing, covering, and critical radii of one lattice",
        {"--dim": _REQ_INT, "--delta": _REQ_FLOAT, "--out": {}}),
    "measure": Command(
        cmd_measure, "all five measures at one (lattice, radius)",
        {"--dim": _REQ_INT, "--delta": _REQ_FLOAT, "--r": _REQ_FLOAT,
         "--oracle": {"action": "store_true", "help": "add Monte Carlo "
                      "columns (required for dim > 3)"}, **_MC, **_ROWS},
        lambda args: ("with" if args.oracle else "without") + " --oracle",
        {"with --oracle": _READS_MC, "without --oracle": ""}),
    "quality": Command(
        cmd_quality, "relaxed packing/covering quality at one delta, or "
        "optimized over delta",
        {"--mode": {**_MODE, "required": True}, "--measure": _MEASURE,
         "--dim": _REQ_INT, "--delta": _FLOAT,
         "--optimize": {"action": "store_true", "help": "search delta in "
                        "[--delta-lo, --delta-hi]"},
         "--omega": {**_FLOAT, "default": 0.0}, "--delta-lo": _FLOAT,
         "--delta-hi": _FLOAT, **_ROWS},
        lambda args: f"--mode {args.mode}" + " --optimize" * args.optimize,
        {"--mode packing": "--measure --delta",
         "--mode packing --optimize": "--measure [--delta-lo] [--delta-hi]",
         "--mode covering": "--delta",
         "--mode covering --optimize": "[--delta-lo] [--delta-hi]"},
        ("--delta", "--optimize")),
    "sweep": Command(
        cmd_sweep, "emit rows over a swept variable or a figure preset",
        {"--preset": {"choices": tuple(PRESETS)},
         "--variable": {"choices": ("delta", "omega", "r")},
         "--lo": _FLOAT, "--hi": _FLOAT, "--steps": _INT, "--dim": _INT,
         "--delta": _FLOAT, "--omega": _FLOAT, "--mode": _MODE,
         "--measure": _MEASURE, **_ROWS},
        lambda args: "--preset" if args.preset else (
            f"--variable {args.variable}" + f" --mode {args.mode}"
            * (args.variable != "r" and args.mode is not None)),
        {"--preset": "[--steps] [--dim]",  # it sets axes, mode and measure
         "--variable r": f"{_SPAN} --delta",
         "--variable delta": f"{_SPAN} --mode [--omega] [--measure]",
         "--variable delta --mode packing": f"{_SPAN} --measure [--omega]",
         "--variable delta --mode covering": f"{_SPAN} [--omega]",
         "--variable omega": f"{_SPAN} --delta --mode [--measure]",
         "--variable omega --mode packing": f"{_SPAN} --delta --measure",
         "--variable omega --mode covering": f"{_SPAN} --delta"},
        ("--preset", "--variable"), True),
    "verify": Command(
        cmd_verify, "run a verification suite, exit nonzero on failure",
        {"--suite": {"choices": SUITES, "default": "all"}, **_MC, "--out": {}},
        lambda args: f"--suite {args.suite}",
        {"--suite all": _READS_MC, "--suite theorems": "",
         "--suite oracle": _READS_MC}),
}


def _check_flags(args):
    """ValueError naming each option that the case of args needs and
    lacks, or else each given one it does not read: a case reads the
    options in its name and its list, and those that no case lists."""
    command = COMMANDS[args.command]
    case = command.case(args)
    lists = {name: listed.replace("[", "").replace("]", "").split()
             for name, listed in command.cases.items()}
    reads = {*case.split(), *lists[case],
             *set(command.flags).difference(*lists.values())}
    given = [flag for flag in command.flags
             if getattr(args, flag[2:].replace("-", "_")) is not None]
    missing = [flag for flag in command.cases[case].split()
               if flag[0] != "[" and flag not in given]
    unread = [flag for flag in given if flag not in reads]
    if missing or unread:
        verb, flags = ("needs", missing) if missing else ("reads no", unread)
        raise ValueError(f"{args.command} {case} {verb} {', '.join(flags)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlatt",
        description="Sphere arrangement measures and quality optimization "
                    "on diagonally distorted integer lattices.")
    parser.add_argument("--version", action="version",
                        version=f"overlatt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        group = (p.add_mutually_exclusive_group(required=command.pick_one)
                 if command.group else p)
        for flag, kw in command.flags.items():
            (group if flag in command.group else p).add_argument(flag, **kw)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return COMMANDS[args.command].run(args)
    except OverflowError as exc:
        # float ** raises OverflowError(34, 'Numerical result out of range')
        print(f"error: a value leaves the float range ({exc.args[-1]})",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
