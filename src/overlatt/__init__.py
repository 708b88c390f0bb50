"""Sphere arrangements on diagonally distorted integer lattices.

Closed-form density, union and overlap measures in 2D and 3D, relaxed
packing and covering quality optimization over the distortion, and a
Monte Carlo oracle that cross-checks every closed form.
"""

from .lattice import (
    DistortedLattice,
    named_lattice,
    unit_ball_volume,
    packing_radius,
    covering_radius,
    shortest_vector_norm,
    nearest_lattice_point,
)
from .oracle import McEstimate, mc_union, mc_vol_overlap, mc_volume_region
from .geometry2d import (
    CriticalRadii2D,
    covering_overlap_2d,
    critical_radii_2d,
    vol_overlap_2d,
    voronoi_ball_area,
)
from .geometry3d import (
    CapArrangement,
    CriticalRadii3D,
    DualRadii3D,
    build_cap_arrangement,
    cap_pair_intersection_volume,
    cap_triple_intersection_volume,
    critical_radii_3d,
    dual_radii_3d,
    ordering_regime,
    spherical_cap_volume,
    vol_overlap_3d,
    voronoi_ball_volume_3d,
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
    union_fraction,
    vol_overlap,
)
from .quality import (
    NoCrossoverError,
    OptimizeResult,
    OutOfBranchError,
    QualityMode,
    QualityQuery,
    QualityResult,
    crossover_omega,
    density_derivative_2d,
    max_radius_for_overlap,
    optimize_delta,
    qual_covering,
    qual_packing,
)
from .verify import CheckResult, VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "DistortedLattice",
    "named_lattice",
    "unit_ball_volume",
    "packing_radius",
    "covering_radius",
    "shortest_vector_norm",
    "nearest_lattice_point",
    "McEstimate",
    "mc_union",
    "mc_vol_overlap",
    "mc_volume_region",
    "CriticalRadii2D",
    "critical_radii_2d",
    "voronoi_ball_area",
    "vol_overlap_2d",
    "covering_overlap_2d",
    "CriticalRadii3D",
    "DualRadii3D",
    "CapArrangement",
    "build_cap_arrangement",
    "critical_radii_3d",
    "dual_radii_3d",
    "ordering_regime",
    "spherical_cap_volume",
    "cap_pair_intersection_volume",
    "cap_triple_intersection_volume",
    "voronoi_ball_volume_3d",
    "vol_overlap_3d",
    "MeasureReport",
    "NoClosedFormError",
    "OverlapMeasure",
    "UndefinedRatioError",
    "density",
    "dist_overlap",
    "free_space",
    "measure_report",
    "union_fraction",
    "vol_overlap",
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
    "CheckResult",
    "VerifyReport",
    "run_suite",
    "__version__",
]
