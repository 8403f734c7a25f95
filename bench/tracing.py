"""Spans around the calls into each layer of taylorlab, recorded from outside.

`install` replaces every binding of a traced function with a wrapper: the
module attribute, each `from .x import f` copy in another module's
namespace, and module-level dicts that hold the function (the runner
table in `checks`).  Patching only the defining module would miss calls
made through those copies.

A span is (name, parent span, start, end).  Spans are kept in flat arrays
while the verdict runs and turned into per-name totals afterwards, so the
wrapper itself does as little as possible.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy

# Program layers: every public function defined in these modules is traced.
LAYER_MODULES = (
    "operators",
    "fourier",
    "evolution",
    "spectral",
    "normal_form",
    "checks",
    "report",
    "svg",
    "background",
    "config",
)

# Public methods traced as functions of their module.
METHODS = (("evolution", "ModePropagator", "exponential"),)

# Dense numpy/scipy kernels, traced under one "linalg.<name>" each whichever
# library the call goes to.
LINALG_FUNCTIONS = (
    "expm", "eig", "eigvals", "eigh", "eigvalsh", "svd", "solve", "inv", "qr", "lstsq",
)
LINALG_MODULE_PREFIXES = ("numpy.linalg", "scipy.linalg")


class Tracer:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n3 = array("q")
        self._stack: list[int] = []
        self.applies = 0

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, n3=None, counts_applies: bool = False):
        nid = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.n3.append(n3(args) if n3 is not None else 0)
            self.end.append(0.0)
            stack.append(idx)
            if counts_applies and args and callable(args[0]):
                args = (self._counting(args[0]),) + args[1:]
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def _counting(self, op):
        def counted(*args, **kwargs):
            self.applies += 1
            return op(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and calls with
        no linalg.expm span below them; Σ n³ over the outermost linalg spans;
        and the functional applications counted inside assemble_matrix.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        expm_id = self._name_ids.get("linalg.expm", -2)
        has_expm = [False] * n
        linalg_ids = {i for i, nm in enumerate(self.names) if nm.startswith("linalg.")}
        dense_n3 = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            if self.name_id[i] == expm_id:
                q = p
                while q >= 0 and not has_expm[q]:
                    has_expm[q] = True
                    q = self.parent[q]
            if self.name_id[i] in linalg_ids:
                q = p
                while q >= 0 and self.name_id[q] not in linalg_ids:
                    q = self.parent[q]
                if q < 0:
                    dense_n3 += self.n3[i]
        per_name: dict[str, dict] = {}
        for i in range(n):
            row = per_name.setdefault(
                self.names[self.name_id[i]],
                {"calls": 0, "s": 0.0, "self_s": 0.0, "calls_without_expm": 0},
            )
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            if not has_expm[i]:
                row["calls_without_expm"] += 1
        return {"per_name": per_name, "dense_n3": dense_n3, "applies": self.applies}


def _dense_n3(args) -> int:
    """m·n·min(m, n) of the first matrix argument (times any batch size):
    the cubic cost of the factorization, computed from the shape."""
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) < 2:
        return 0
    m, n = int(shape[-2]), int(shape[-1])
    batch = 1
    for d in shape[:-2]:
        batch *= int(d)
    return batch * m * n * min(m, n)


def _targets(package: str) -> dict[int, tuple[str, object, dict]]:
    """id(original) -> (span name, original, wrap options)."""
    out = {}
    for short in LAYER_MODULES:
        mod = sys.modules.get(f"{package}.{short}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:  # imported from elsewhere
                continue
            opts = {"counts_applies": (short, attr) == ("operators", "assemble_matrix")}
            out[id(obj)] = (f"{short}.{attr}", obj, opts)
    for mod_name in list(sys.modules):
        if not mod_name.startswith(LINALG_MODULE_PREFIXES):
            continue
        mod = sys.modules[mod_name]
        for attr in LINALG_FUNCTIONS:
            obj = getattr(mod, attr, None)
            # numpy's Python-level functions call gufuncs of the same name;
            # those are the inside of one kernel call, not another call
            if callable(obj) and not isinstance(obj, numpy.ufunc) and id(obj) not in out:
                out[id(obj)] = (f"linalg.{attr}", obj, {"n3": _dense_n3})
    return out


def install(tracer: Tracer, package: str = "taylorlab"):
    """Wrap every binding of every traced function; return an undo callable."""
    targets = _targets(package)
    wrappers = {key: tracer.wrap(name, fn, **opts) for key, (name, fn, opts) in targets.items()}
    undo = []

    def rebind(key, value, setter):
        wrapper = wrappers.get(id(value))
        if wrapper is not None:
            setter(key, wrapper)
            undo.append((setter, key, value))

    prefixes = (package + ".",) + LINALG_MODULE_PREFIXES
    scoped = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefixes))
    ]
    for mod in scoped:
        program = mod.__name__.startswith(package)
        for key, value in list(vars(mod).items()):
            rebind(key, value, functools.partial(setattr, mod))
            if program and isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    rebind(dkey, dvalue, value.__setitem__)
    for short, cls_name, meth in METHODS:
        cls = getattr(sys.modules.get(f"{package}.{short}"), cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if inspect.isfunction(fn):
            setattr(cls, meth, tracer.wrap(f"{short}.{meth}", fn))
            undo.append((functools.partial(setattr, cls), meth, fn))

    def uninstall():
        for setter, key, value in reversed(undo):
            setter(key, value)

    return uninstall
