"""Per-layer spans for the overlatt benchmark, installed from outside.

The package is never edited.  A ``Tracer`` wraps the public functions of
each layer module and rebinds every module attribute in the ``overlatt``
namespace that holds one of them.  ``from .x import f`` gives each
importing module its own binding, so every such binding is a separate
call site with its own counters; ``verify.mc_union`` and
``measures.mc_union`` are two call sites of ``oracle.mc_union``.

Each call records a span.  Spans nest through a per-thread stack, and a
span's self time is its duration minus the part its child spans cover.
Spans opened in a worker thread that has no open span of its own (the
Monte Carlo chunks) count as children of the innermost span open in the
thread that installed the tracer; their intervals may overlap, so the
parent subtracts the length of their union.  Spans are aggregated as
they close, so memory stays flat over millions of calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from time import perf_counter

LAYERS = ("lattice", "_kernels", "oracle", "geometry2d", "geometry3d",
          "measures", "quality", "verify")
PACKAGE = "overlatt"


def package_modules() -> dict[str, object]:
    """Loaded modules of the package, keyed by name without the prefix
    (the package itself is keyed ``overlatt``)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None:
            continue
        if name == PACKAGE:
            out[PACKAGE] = mod
        elif name.startswith(PACKAGE + "."):
            out[name[len(PACKAGE) + 1:]] = mod
    return out


def layer_functions() -> dict[str, object]:
    """Public functions of every layer, keyed ``<layer>.<name>``.

    A layer's public names are its ``__all__`` when it has one, else its
    names without a leading underscore.  Classes are skipped, and so is a
    function that the layer only re-exports from a module outside it.
    """
    mods = package_modules()
    out = {}
    for layer in LAYERS:
        mod = mods.get(layer)
        if mod is None:
            raise RuntimeError(f"layer module {PACKAGE}.{layer} is not loaded")
        names = getattr(mod, "__all__", None)
        if names is None:
            names = [n for n in vars(mod) if not n.startswith("_")]
        prefix = f"{PACKAGE}.{layer}"
        for name in names:
            fn = getattr(mod, name, None)
            if fn is None or inspect.isclass(fn) or not callable(fn):
                continue
            owner = getattr(fn, "__module__", "") or ""
            if owner == prefix or owner.startswith(prefix + "."):
                out[f"{layer}.{name}"] = fn
    return out


class SiteStats:
    """Counters of one call site."""

    __slots__ = ("calls", "total_s", "self_s", "nonzero", "rows", "max_rows",
                 "samples", "chunks")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.nonzero = 0
        self.rows = 0
        self.max_rows = 0
        self.samples = 0
        self.chunks = 0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _observe_nonzero(stat, args, kwargs, result):
    if result > 0.0:
        stat.nonzero += 1


def _observe_kernel_rows(stat, args, kwargs, result):
    stat.rows += len(args[0]) if args else len(kwargs["q"])


def _observe_offset_rows(stat, args, kwargs, result):
    stat.max_rows = max(stat.max_rows, len(result[0]))


def _observe_samples(stat, args, kwargs, result):
    stat.samples += result.samples
    chunk = sys.modules[f"{PACKAGE}.oracle"].CHUNK
    stat.chunks += -(-result.samples // chunk)


# extra counters taken from a call's arguments or result
OBSERVERS = {
    "geometry3d.cap_triple_intersection_volume": _observe_nonzero,
    "_kernels.count_covered": _observe_kernel_rows,
    "lattice.coverage_offsets": _observe_offset_rows,
    "oracle.mc_union": _observe_samples,
}


class Tracer:
    """Installs span-recording wrappers at every call site of every layer
    function and removes them again.  Use as a context manager."""

    def __init__(self):
        self.stats: dict[tuple[str, str], SiteStats] = {}
        self._bindings: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home_stack: list | None = None

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        self._home_stack = self._local.stack
        by_id = {id(fn): key for key, fn in layer_functions().items()}
        for site, mod in package_modules().items():
            for attr, value in list(vars(mod).items()):
                key = by_id.get(id(value))
                if key is None:
                    continue
                stat = self.stats.setdefault((key, site), SiteStats())
                wrapper = self._wrap(value, stat, OBSERVERS.get(key))
                self._bindings.append((mod, attr, value))
                setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._bindings):
            setattr(mod, attr, value)
        self._bindings.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, stat: SiteStats, observe):
        tracer, local, lock = self, self._local, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            orphan = not stack and stack is not tracer._home_stack
            frame = [0.0, None]  # child time, child intervals from workers
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if frame[1]:
                    own -= _union_length(frame[1])
                with lock:
                    stat.calls += 1
                    stat.total_s += dur
                    stat.self_s += own
                    if observe is not None and result is not None:
                        observe(stat, args, kwargs, result)
                    if stack:
                        stack[-1][0] += dur
                    elif orphan and tracer._home_stack:
                        parent = tracer._home_stack[-1]
                        if parent[1] is None:
                            parent[1] = []
                        parent[1].append((t0, t1))

        return wrapper

    def site(self, key: str, site: str) -> SiteStats:
        return self.stats.get((key, site)) or SiteStats()

    def total(self, key: str) -> SiteStats:
        """Counters of one layer function summed over its call sites."""
        out = SiteStats()
        for (k, _), s in self.stats.items():
            if k != key:
                continue
            out.calls += s.calls
            out.total_s += s.total_s
            out.self_s += s.self_s
            out.nonzero += s.nonzero
            out.rows += s.rows
            out.max_rows = max(out.max_rows, s.max_rows)
            out.samples += s.samples
            out.chunks += s.chunks
        return out

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (key, _), s in self.stats.items():
            out[key.split(".", 1)[0]] += s.self_s
        return out

    def silent_sites(self, expected) -> list[str]:
        """Expected (key, site) pairs that are not installed or never fired."""
        return [f"{site}.{key.split('.', 1)[1]} (of {key})"
                for key, site in expected
                if self.site(key, site).calls == 0]
