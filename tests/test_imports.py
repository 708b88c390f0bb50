"""The package's layering: which modules each module imports from."""

import ast
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
    "quality": {"lattice", "measures"},
    "verify": {"lattice", "geometry3d", "measures", "oracle", "quality"},
}
TOP = {"cli", "__init__"}

# (module, imported module) edges that point up the layers, allowed in a
# function body only, where the import runs once both modules are loaded:
# geometry2d.density_derivative_2d needs the volume inversion,
# quality.max_radius_for_overlap, and the OverlapMeasure it takes
UPWARD_IN_FUNCTIONS = {("geometry2d", "measures"), ("geometry2d", "quality")}

# (module, imported module, name) bound but never used, because
# perfbench/tests/test_bench.py checks its tracer on that binding
UNUSED_BINDINGS = {("measures", "oracle", "mc_union")}


def _package_imports(tree: ast.Module):
    """(module, name, at module level) for each name a relative import
    binds, at module level or inside a function."""
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import x
                    yield alias.name, alias.name, id(node) in top
                else:
                    yield node.module, alias.name, id(node) in top


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(ALLOWED) | TOP


def test_imports_follow_the_layers():
    upward = set()
    for module, allowed in ALLOWED.items():
        tree = ast.parse((SRC / f"{module}.py").read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for source, name, top in _package_imports(tree):
            if (module, source, name) in UNUSED_BINDINGS:
                assert name not in used, f"{module} uses {source}.{name}"
            elif source not in allowed:
                assert not top and (module, source) in UPWARD_IN_FUNCTIONS, \
                    f"{module} imports {name} from {source}"
                upward.add((module, source))
    assert upward == UPWARD_IN_FUNCTIONS
