"""Span tracing of the ihg layers, installed from outside the engine.

``Tracer.install()`` wraps the public functions and methods of every
``ihg`` module, plus sympy's ``PolyElement.__divmod__`` and
``PolyElement.gcd`` where the coefficient layer meets the ground ring, and
``uninstall()`` puts the originals back.  Nothing is wrapped while the
end-to-end metrics are measured.

A span is one call of a wrapped function.  Spans are aggregated in memory
as they close, per span name and per (parent, child) edge, and written
out when the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

from sympy.polys.rings import PolyElement

import ihg

MODULES = (
    "symbols", "coefficients", "exterior", "geometry", "cohomology",
    "linalg", "metrics", "deformation", "kuranishi", "catalog", "dsl",
)

# dunders that carry engine work; the rest (hash, repr, dataclass
# boilerplate) would only add wrapper cost
DUNDERS = frozenset({
    "__init__", "__post_init__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__neg__", "__pow__", "__eq__",
})

GROUND = "sympy"
DIVMOD = f"{GROUND}:PolyElement.__divmod__"


def _wanted(name: str) -> bool:
    return not name.startswith("_") or name in DUNDERS


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # span -> [calls, self_s, total_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, span) -> [calls, total_s]
        self.divmod_hits = 0
        self.matrix_cells = 0
        self.linalg_max_dim = 0
        self.ideal_sizes: dict[str, int] = {}
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------------

    def _close(self, frame, elapsed: float) -> None:
        name, child = frame
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += elapsed - child
        rec[2] += elapsed
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        edge = self.edges.setdefault((parent[0] if parent else "", name), [0, 0.0])
        edge[0] += 1
        edge[1] += elapsed

    @contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself, such as one query."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._close(frame, elapsed)

    def _wrap(self, fn, name: str):
        stack, clock, close = self._stack, time.perf_counter, self._close
        observe = self._observer(name)

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(frame, elapsed)
            if observe is not None:
                observe(args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        return span

    # -- counters read at the layer boundaries -----------------------------------

    def _observer(self, name: str):
        if name == DIVMOD:
            def hit(args, result):
                if not result[1]:
                    self.divmod_hits += 1
            return hit
        if name == "cohomology:SectorComplex.matrix":
            def cells(args, result):
                if result:
                    self.matrix_cells += len(result) * len(result[0])
            return cells
        if name.startswith("linalg:"):
            def dims(args, result):
                for arg in args:
                    if isinstance(arg, list) and arg and isinstance(arg[0], list):
                        self.linalg_max_dim = max(
                            self.linalg_max_dim, len(arg), len(arg[0]))
            return dims
        if name == "kuranishi:kuranishi_build":
            def ideal(args, result):
                self.ideal_sizes[result.geom.name] = len(result.ideal)
            return ideal
        return None

    # -- installation --------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, function, span name) for every traced callable."""
        out = []
        for short in MODULES:
            mod = importlib.import_module(f"ihg.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    out.append((mod, attr, obj, f"{short}:{obj.__qualname__}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    for cattr, member in vars(obj).items():
                        fn = member.__func__ if isinstance(member, staticmethod) else member
                        if not (inspect.isfunction(fn) and _wanted(cattr)):
                            continue
                        # skip dataclass-generated methods, which have no source file
                        if fn.__code__.co_filename != mod.__file__:
                            continue
                        out.append((obj, cattr, member, f"{short}:{fn.__qualname__}"))
        for attr in ("__divmod__", "gcd"):
            fn = vars(PolyElement)[attr]
            out.append((PolyElement, attr, fn, f"{GROUND}:PolyElement.{attr}"))
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for owner, attr, member, name in self._targets():
            if isinstance(member, staticmethod):
                fn = member.__func__
                wrapper = staticmethod(wrappers.setdefault(id(fn), self._wrap(fn, name)))
            else:
                wrapper = wrappers.setdefault(id(member), self._wrap(member, name))
            self._saved.append((owner, attr, member))
            setattr(owner, attr, wrapper)
        # names imported into other modules (and the package namespace)
        # still point at the originals; rebind them too
        for mod in [ihg] + [importlib.import_module(f"ihg.{s}") for s in MODULES]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "matrix_cells": self.matrix_cells,
        }

    def to_json(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "self_s": s, "total_s": t}
                for name, (c, s, t) in sorted(self.stats.items())
            },
            "edges": [
                {"parent": p, "span": n, "calls": c, "total_s": t}
                for (p, n), (c, t) in sorted(self.edges.items())
            ],
            "divmod_hits": self.divmod_hits,
            "matrix_cells": self.matrix_cells,
            "linalg_max_dim": self.linalg_max_dim,
            "ideal_sizes": self.ideal_sizes,
        }
