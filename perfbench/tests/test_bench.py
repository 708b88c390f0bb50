"""Tests of the benchmark's own code: the call-site tracer and the runner.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import overlatt  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from layertrace import Tracer, layer_functions, package_modules  # noqa: E402


def _bindings_of(fn):
    return [(site, attr) for site, mod in package_modules().items()
            for attr, value in vars(mod).items() if value is fn]


def test_every_layer_contributes_functions():
    layers = {key.split(".", 1)[0] for key in layer_functions()}
    assert layers == set(layertrace.LAYERS)


def test_installer_rebinds_every_importing_namespace():
    originals = layer_functions()
    sites = {key: _bindings_of(fn) for key, fn in originals.items()}
    # names bound by `from .x import f` are separate call sites
    assert ("verify", "mc_union") in sites["oracle.mc_union"]
    assert ("measures", "mc_union") in sites["oracle.mc_union"]
    assert ("quality", "vol_overlap") in sites["measures.vol_overlap"]
    assert ("overlatt", "optimize_delta") in sites["quality.optimize_delta"]
    with Tracer() as tracer:
        for key, fn in originals.items():
            assert _bindings_of(fn) == [], f"{key} still bound unwrapped"
        installed = {(key, site) for key, site in tracer.stats}
        for key, bound in sites.items():
            for site, _ in bound:
                assert (key, site) in installed
    for key, fn in originals.items():
        assert _bindings_of(fn) == sites[key], f"{key} not restored"


def test_call_sites_count_separately_and_nest():
    lat = overlatt.DistortedLattice(3, 1.3)
    with Tracer() as tracer:
        overlatt.vol_overlap(lat, 0.75)
        overlatt.measures.vol_overlap(lat, 0.75)
        overlatt.quality.max_radius_for_overlap(
            lat, overlatt.OverlapMeasure.VOLUME_BASED, 0.05)
    top = tracer.site("measures.vol_overlap", "overlatt")
    assert top.calls == 1
    assert tracer.site("measures.vol_overlap", "measures").calls == 1
    steps = tracer.site("measures.vol_overlap", "quality").calls
    assert steps > 10
    assert tracer.total("measures.vol_overlap").calls == steps + 2
    # the union evaluation is a child span: the caller's self time
    # excludes it, and self time never exceeds the inclusive time
    union = tracer.total("measures.union_fraction")
    assert union.calls == steps + 2
    for stat in tracer.stats.values():
        assert -1e-6 <= stat.self_s <= stat.total_s + 1e-9


def test_worker_thread_spans_are_children_of_the_caller():
    lat = overlatt.DistortedLattice(3, 0.8)
    samples = 3 * overlatt.oracle.CHUNK // 2
    with Tracer() as tracer:
        overlatt.mc_union(lat, 0.6, samples=samples, seed=0, par=2)
    mc = tracer.total("oracle.mc_union")
    kernel = tracer.total("_kernels.count_covered")
    assert mc.calls == 1 and mc.chunks == 2 and mc.samples == samples
    assert kernel.calls == 2 and kernel.rows == samples
    # the parent loses its own-thread children (offset table, thread
    # count) and the union of the chunk intervals, which covers at least
    # the longer chunk and at most both
    others = sum(s.total_s for (key, _), s in tracer.stats.items()
                 if key not in ("oracle.mc_union", "_kernels.count_covered"))
    lost = mc.total_s - mc.self_s
    assert kernel.total_s / 2 - 1e-6 <= lost
    assert lost <= kernel.total_s + others + 1e-6


def test_concurrent_spans_lose_no_update():
    fn = overlatt.lattice.packing_radius
    lat = overlatt.DistortedLattice(3, 0.8)
    per_thread, threads = 2000, 4
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tracer:
            wrapped = overlatt.lattice.packing_radius
            assert wrapped is not fn
            workers = [threading.Thread(
                target=lambda: [wrapped(lat) for _ in range(per_thread)])
                for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    assert tracer.site("lattice.packing_radius", "lattice").calls \
        == per_thread * threads


def test_silent_sites_are_reported():
    with Tracer() as tracer:
        overlatt.measures.union_fraction(overlatt.DistortedLattice(2, 0.7),
                                         0.4)
    assert tracer.silent_sites([("measures.union_fraction", "measures")]) \
        == []
    silent = tracer.silent_sites([("oracle.mc_union", "verify"),
                                  ("oracle.mc_union", "nowhere")])
    assert len(silent) == 2


def test_pass_times_are_divided_by_the_references_around_them():
    loop = object.__new__(run.Loop)
    loop.pass_s = [9.0, 4.0, 6.0, 5.0]
    loop.ref_s = [0.5, 0.5, 0.3, 0.3, 0.2]
    assert loop.rel == pytest.approx([18.0, 10.0, 20.0, 20.0])
    # the first pass is left out once later passes exist
    assert loop.wall_rel == pytest.approx(20.0)
    assert loop.wall_s == pytest.approx(5.0)


def _run_bench(workload, trace, cwd=ROOT):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert time.monotonic() - t0 < 170
    return proc


def _expected_metrics(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", ["theorems", "oracle_grid"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _expected_metrics("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    env = json.loads(lines[-2 - len(expected)].split(" ", 1)[1])
    assert env["kernel_backend"] == overlatt._kernels.BACKEND
    assert env["blas_threads"] == "1" and env["seed"] == 3
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "layertrace.py"):
        (tmp_path / "perfbench" / f).write_text((BENCH / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorems",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
