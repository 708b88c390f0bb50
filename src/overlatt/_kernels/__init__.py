"""Counting kernels for the Monte Carlo estimators.

Two interchangeable backends: a Cython extension, used when it is built
and importable, and a numpy fallback.  Both implement the same fixed
evaluation order (squares accumulated coordinate by coordinate,
contraction disabled in the extension), so their counts agree bit for
bit and results never depend on which one got picked.
"""

try:
    from . import _mc_cy as _impl
    BACKEND = "cython"
except ImportError:
    from . import _mc_np as _impl
    BACKEND = "numpy"

count_covered = _impl.count_covered
count_beyond_all_planes = _impl.count_beyond_all_planes

__all__ = ["count_covered", "count_beyond_all_planes", "BACKEND"]
