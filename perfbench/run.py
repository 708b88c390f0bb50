"""Benchmark of the overlatt package: one seeded workload per run.

    python3 perfbench/run.py --workload theorems --seed 0 --seconds 50 \
        --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  With ``--trace 0`` it times the workload untraced and prints
the end-to-end metrics; with ``--trace 1`` it runs the workload once
untraced and once with spans at every call site of every layer, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it, starting with ``env``, records the backend, thread
counts, versions, commit, seed and sample counts.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from layertrace import Tracer, package_modules

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7
# size of the reference computation: about 0.5 s on a 2-core Xeon VM;
# its columns are 64 KiB, so it adds under 1 MB to a workload's peak RSS
REF_SEED = 20140102
REF_ROWS = 1 << 13
REF_REPS = 320
REF_RADIUS = 0.6
# glibc mallopt parameters and the thresholds fix_allocator sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

# layer function -> counters reported per traced pass, as metrics named
# <layer>.<function>.<counter> (the _kernels layer is named kernels)
PER_FUNCTION = {
    "geometry3d.build_cap_arrangement": ("calls", "self_s"),
    "geometry3d.cap_triple_intersection_volume": ("calls", "self_s"),
    "geometry3d.cap_pair_intersection_volume": ("calls", "self_s"),
    "geometry3d.voronoi_ball_volume_3d": ("calls", "self_s"),
    "geometry2d.voronoi_ball_area": ("calls", "self_s"),
    "quality.max_radius_for_overlap": ("calls",),
    "quality.optimize_delta": ("self_s",),
    "quality.crossover_omega": ("self_s",),
    "measures.union_fraction": ("calls", "self_s"),
    "oracle.mc_union": ("self_s",),
    "_kernels.count_covered": ("calls", "self_s", "rows"),
    "lattice.coverage_offsets": ("calls", "self_s"),
    "verify.run_suite": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "rows": "count"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("theorems", "oracle_grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input; for the benchmark's own tests")
    return p.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout read from .git, or 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fix_allocator() -> bool:
    """Give glibc's malloc fixed thresholds in this process.

    By default glibc raises its mmap threshold as large blocks are
    freed, and where it ends up depends on the order of the frees.  At
    the same inputs, oracle suite passes made 0.26M page faults (0.5 s
    of system time in a 5.5 s pass) in one process and 0.5M to 0.8M
    (1.0 to 1.6 s) in another.  Fixed thresholds keep every block below
    32 MiB on the heap, so no process pays for page faults after its
    first pass.  Returns False where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def measure_setup(warmup: str, reps: int) -> list[float]:
    """Times, each in a fresh interpreter, of `import overlatt` plus one
    warm-up call, timed inside the child."""
    code = ("from time import perf_counter\n"
            "t0 = perf_counter()\n"
            "import overlatt as ov\n"
            f"{warmup}\n"
            "print(perf_counter() - t0)\n")
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=os.environ.copy(), capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def clear_caches():
    """Empty every lru_cache of the package."""
    for mod in package_modules().values():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def reference_work() -> int:
    """A fixed numpy computation, the yardstick of `wall_rel`.

    It repeats the Monte Carlo path on a fixed 3D lattice: draw points,
    map them through a basis, wrap them into the cell and count those
    within REF_RADIUS of one of the 27 nearest lattice points, retiring
    covered points as the kernel does.  It calls nothing in the package,
    so a change to the package leaves it as it is."""
    import numpy as np
    rng = np.random.default_rng(REF_SEED)
    basis = np.array([[1.0, 0.2, 0.1], [0.0, 1.1, 0.3], [0.0, 0.0, 0.9]])
    grid = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
                     for k in (-1, 0, 1)], dtype=np.float64)
    offsets = grid[np.argsort((grid * grid).sum(axis=1), kind="stable")]
    r2 = REF_RADIUS * REF_RADIUS
    hits = 0
    for _ in range(REF_REPS):
        q = rng.random((REF_ROWS, 3)) @ basis
        q -= np.floor(q + 0.5)
        alive = np.arange(REF_ROWS)
        for off in offsets:
            d = q[alive, 0] - off[0]
            s = d * d
            for t in (1, 2):
                d = q[alive, t] - off[t]
                s = s + d * d
            hit = s <= r2
            hits += int(hit.sum())
            alive = alive[~hit]
    return hits


def time_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class Loop:
    """Whole passes over the inputs for about `seconds` (at least one
    pass), recording pass and call times and all checks.

    Every pass starts with empty caches, so passes repeat the same work
    and a run's passes are interchangeable samples.  The reference
    computation is timed before the first pass and after every pass; a
    new pass starts only while a pass and a reference still fit."""

    def __init__(self, wl, inputs, seconds: float):
        self.pass_s: list[float] = []
        self.ref_s: list[float] = []
        self.call_s: list[float] = []
        self.checks: list[tuple[str, bool]] = []
        self.samples = 0
        start = perf_counter()
        self.ref_s.append(time_reference())
        while True:
            clear_caches()
            t_pass = perf_counter()
            for item in inputs:
                t_call = perf_counter()
                res = wl.call(item)
                self.call_s.append(perf_counter() - t_call)
                self.checks.extend(wl.check(item, res))
                self.samples += wl.samples(item, res)
            self.pass_s.append(perf_counter() - t_pass)
            self.ref_s.append(time_reference())
            step = statistics.median(
                p + r for p, r in zip(self.pass_s, self.ref_s[1:]))
            if perf_counter() - start + step > seconds:
                break
        self.elapsed = perf_counter() - start

    def _steady(self, values: list[float]) -> float:
        """Median over the passes.  The first pass of a process runs up
        to a fifth slower (memory growth, first calls), so it only counts
        when it is the only pass."""
        return statistics.median(values[1:] or values)

    @property
    def wall_s(self) -> float:
        return self._steady(self.pass_s)

    @property
    def rel(self) -> list[float]:
        """Each pass's time over the mean of the reference times taken
        just before and just after it."""
        return [p / ((a + b) / 2.0)
                for p, a, b in zip(self.pass_s, self.ref_s, self.ref_s[1:])]

    @property
    def wall_rel(self) -> float:
        return self._steady(self.rel)


def layer_metrics(tracer, traced: Loop, plain: Loop, cache_info):
    per_pass = len(traced.pass_s)
    out = {}
    for key, counters in PER_FUNCTION.items():
        stat = tracer.total(key)
        for counter in counters:
            out[f"{key.lstrip('_')}.{counter}"] = (
                getattr(stat, counter) / per_pass, UNITS[counter])
    triple = tracer.total("geometry3d.cap_triple_intersection_volume")
    out["geometry3d.cap_triple_intersection_volume.nonzero_ratio"] = (
        triple.nonzero / triple.calls if triple.calls else 0.0, "ratio")
    hits, misses = cache_info.hits, cache_info.misses
    out["geometry3d.arrangement_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["quality.vol_overlap.calls"] = (
        tracer.site("measures.vol_overlap", "quality").calls / per_pass,
        "count")
    out["lattice.offset_rows"] = (
        tracer.total("lattice.coverage_offsets").max_rows, "count")
    mc = tracer.total("oracle.mc_union")
    out["oracle.chunks"] = (mc.chunks / per_pass, "count")
    out["oracle.mc_union.msamples_per_s"] = (
        mc.samples / mc.total_s / 1e6 if mc.total_s > 0 else 0.0,
        "Msamples/s")
    for layer, self_s in tracer.layer_self_s().items():
        out[f"layer.{layer.lstrip('_')}.self_s"] = (self_s / per_pass, "s")
    out["trace.wall_s"] = (traced.wall_s, "s")
    out["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    out["trace.passes"] = (per_pass, "count")
    return out


def run(args, malloc_fixed: bool) -> int:
    # deferred: these import numpy, which reads OPENBLAS_NUM_THREADS once
    import workloads
    import overlatt as ov

    if not Path(ov.__file__).resolve().is_relative_to(SRC):
        print(f"error: overlatt imported from {ov.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs, params = wl.make_inputs(args.seed, args.tiny)
    checks: list[tuple[str, bool]] = []
    metrics: dict[str, tuple[float, str]] = {}

    if args.trace:
        half = args.seconds / 2.0
        exec(wl.warmup, {"ov": ov})
        reference_work()
        plain = Loop(wl, inputs, half)
        with Tracer() as tracer:
            traced = Loop(wl, inputs, half)
        # Loop cleared the caches, so these counts cover the last pass
        cache_info = ov.geometry3d._build_arrangement.cache_info()
        silent = tracer.silent_sites(wl.expected_sites)
        if silent:
            print("error: call sites never fired on workload "
                  f"{wl.name}: {', '.join(silent)}", file=sys.stderr)
            return 3
        metrics = layer_metrics(tracer, traced, plain, cache_info)
        checks = plain.checks + traced.checks
        loop = plain
        shares = sorted(((name, value) for name, (value, _) in metrics.items()
                         if name.startswith("layer.")), key=lambda kv: -kv[1])
        print("self time per traced pass: " + ", ".join(
            f"{name} {value:.3f} s" for name, value in shares))
    else:
        # set-up is timed on both sides of the timed loop, so that its
        # median spans the run rather than one moment of machine load
        reps = 1 if args.tiny else SETUP_REPS
        setup = measure_setup(wl.warmup, (reps + 1) // 2)
        exec(wl.warmup, {"ov": ov})
        reference_work()
        loop = Loop(wl, inputs, args.seconds)
        setup += measure_setup(wl.warmup, reps // 2)
        checks = list(loop.checks)
        metrics["wall_rel"] = (loop.wall_rel, "ref")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB")
        print(f"wall_rel is the median of {len(loop.pass_s)} passes")
        print(f"wall_s {loop.wall_s} s, reference "
              f"{statistics.median(loop.ref_s)} s")
        print(f"query_p50_s {statistics.median(loop.call_s)} s "
              f"over {len(loop.call_s)} calls")
        if loop.samples:
            print(f"msamples_per_s {loop.samples / loop.elapsed / 1e6} "
                  "Msamples/s")

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    print(f"failed_frac {len(failed) / len(checks)} "
          f"({len(failed)} of {len(checks)} checks)")

    import numpy
    import scipy
    env = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "kernel_backend": ov._kernels.BACKEND,
        "our_threads": 1,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc_fixed": malloc_fixed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "overlatt": ov.__version__,
        "commit": git_commit(),
        "call_s": loop.call_s,
        "pass_s": loop.pass_s,
        "ref_s": loop.ref_s,
        **params,
    }
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "overlatt" / "__init__.py").is_file():
        print(f"error: no overlatt sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: the (N x n) @ (n x n) basis map oversubscribes the
    # cores when the Monte Carlo threads each spawn their own
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    return run(args, fix_allocator())


if __name__ == "__main__":
    raise SystemExit(main())
