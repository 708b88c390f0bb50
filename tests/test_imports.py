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
