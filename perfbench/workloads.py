"""The two seeded workloads of the overlatt benchmark.

Each workload turns a seed into a list of inputs, calls one public
``overlatt`` function per input, and checks every result.  Calls go
through module attributes (``ov.run_suite``), never through names
bound at import time, so the traced run sees them at the ``overlatt``
call site.  BENCHMARK.json says why each workload is there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import overlatt as ov

ORACLE_SAMPLES = 120_000


@dataclass
class Workload:
    name: str
    # seed, tiny -> (inputs, parameters recorded in the environment block)
    make_inputs: Callable[[int, bool], tuple[list, dict]]
    call: Callable[[Any], Any]
    # (input, result) -> [(check name, passed)]
    check: Callable[[Any, Any], list]
    # Monte Carlo samples drawn by one call, from its input and result
    samples: Callable[[Any, Any], int] = lambda item, result: 0
    # statement run after `import overlatt as ov`: timed in fresh
    # interpreters for setup_s, and run untimed before the timed loop;
    # its input lies outside every input the workload draws
    warmup: str = ""
    # (layer function, call site) pairs the traced run must see fire
    expected_sites: tuple = field(default_factory=tuple)


def _suite_check(item, report):
    return [(f"suite {report.suite} passed", report.passed)]


def _oracle_inputs(seed: int, tiny: bool):
    samples = 20_000 if tiny else ORACLE_SAMPLES
    return [(seed, samples)], {"samples_per_cell": samples, "par": 1}


_3D_WARMUP = ("ov.qual_packing(ov.DistortedLattice(3, 1.37), "
              "ov.OverlapMeasure.VOLUME_BASED, 0.3)")

WORKLOADS = {
    "theorems": Workload(
        name="theorems",
        make_inputs=lambda seed, tiny: ([None], {}),
        call=lambda item: ov.run_suite("theorems"),
        check=_suite_check,
        warmup=_3D_WARMUP,
        expected_sites=(
            ("verify.run_suite", "overlatt"),
            ("quality.crossover_omega", "verify"),
            ("quality.optimize_delta", "verify"),
            ("quality.max_radius_for_overlap", "quality"),
            ("measures.vol_overlap", "quality"),
            ("geometry2d.voronoi_ball_area", "measures"),
            ("geometry3d.voronoi_ball_volume_3d", "measures"),
            ("geometry3d.build_cap_arrangement", "geometry3d"),
            ("geometry3d.cap_pair_intersection_volume", "geometry3d"),
            ("geometry3d.cap_triple_intersection_volume", "geometry3d"),
        ),
    ),
    "oracle_grid": Workload(
        name="oracle_grid",
        make_inputs=_oracle_inputs,
        call=lambda item: ov.run_suite("oracle", samples=item[1],
                                       seed=item[0], par=1),
        check=_suite_check,
        samples=lambda item, report: item[1] * len(report.checks),
        warmup="ov.mc_union(ov.DistortedLattice(3, 1.37), 0.7, "
               "samples=65536, seed=1)",
        expected_sites=(
            ("verify.run_suite", "overlatt"),
            ("oracle.mc_union", "verify"),
            ("measures.union_fraction", "verify"),
            ("lattice.coverage_offsets", "oracle"),
            ("_kernels.count_covered", "_kernels"),
            ("geometry2d.voronoi_ball_area", "measures"),
            ("geometry3d.voronoi_ball_volume_3d", "measures"),
        ),
    ),
}
