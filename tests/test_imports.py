"""The package's layering (which modules each module imports from) and its
public names."""

import ast
import types
from pathlib import Path

import overlatt

SRC = Path(overlatt.__file__).resolve().parent

# module -> the package modules it may import from; cli and the package
# __init__ sit on top and may import any of them
ALLOWED = {
    "_kernels": set(),
    "lattice": {"_kernels"},
    "oracle": {"_kernels", "lattice"},
    "geometry2d": {"lattice"},
    "geometry3d": {"lattice"},
    "measures": {"lattice", "geometry2d", "geometry3d"},
    "quality": {"lattice", "geometry2d", "measures"},
    "verify": {"lattice", "geometry3d", "measures", "oracle", "quality"},
}
TOP = {"cli", "__init__"}

# (module, imported module, name) bound but never used, because
# perfbench/tests/test_bench.py checks its tracer on that binding
UNUSED_BINDINGS = {("measures", "oracle", "mc_union")}


def _package_imports(tree: ast.Module):
    """(module, name) for each name a relative import binds, at module
    level or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                # from . import x binds the module x
                yield node.module or alias.name, alias.name


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(ALLOWED) | TOP


def test_imports_follow_the_layers():
    for module, allowed in ALLOWED.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for source, name in _package_imports(tree):
            if (module, source, name) in UNUSED_BINDINGS:
                assert name not in used, f"{module} uses {source}.{name}"
            else:
                assert source in allowed, \
                    f"{module} imports {name} from {source}"


# the package's public names; a change to the exports changes this set
PUBLIC = {
    "CapArrangement", "CheckResult", "CriticalRadii2D", "CriticalRadii3D",
    "DistortedLattice", "DualRadii3D", "McEstimate", "MeasureReport",
    "NoClosedFormError", "NoCrossoverError", "OptimizeResult",
    "OutOfBranchError", "OverlapMeasure", "QualityMode", "QualityQuery",
    "QualityResult", "UndefinedRatioError", "VerifyReport", "__version__",
    "build_cap_arrangement", "cap_pair_intersection_volume",
    "cap_triple_intersection_volume", "covering_overlap_2d",
    "covering_radius", "critical_radii_2d", "critical_radii_3d",
    "crossover_omega", "density", "density_derivative_2d", "dist_overlap",
    "dual_radii_3d", "free_space", "max_radius_for_overlap", "mc_union",
    "mc_vol_overlap", "mc_volume_region", "measure_report", "named_lattice",
    "nearest_lattice_point", "optimize_delta", "ordering_regime",
    "packing_radius", "qual_covering", "qual_packing", "run_suite",
    "shortest_vector_norm", "spherical_cap_volume", "union_fraction",
    "unit_ball_volume", "vol_overlap", "vol_overlap_2d", "vol_overlap_3d",
    "voronoi_ball_area", "voronoi_ball_volume_3d",
}


def test_public_names_are_pinned():
    assert len(overlatt.__all__) == len(set(overlatt.__all__))
    assert set(overlatt.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(overlatt, name), name
    # every other public name the package binds is one of its modules
    for name in set(vars(overlatt)) - PUBLIC:
        assert name.startswith("_") or isinstance(
            getattr(overlatt, name), types.ModuleType), name
