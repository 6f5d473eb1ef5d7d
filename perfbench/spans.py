"""Span recorder for the traced benchmark run.

The program under test is not edited: `install` replaces each public
function of every knotforge layer module with a recording wrapper, at
every module attribute that is bound to it (for example `count_roots` in
`exactpoly`, `knots`, `serialize` and `pade`, and `knots.crossings` also as
`serialize.compute_crossings`).  `uninstall` puts the originals back.

A span is (name, start, end, parent, op id).  Spans are kept in flat
arrays while the run measures and are summarised or written out only after
it ends.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional

PACKAGE = "knotforge"
LAYERS = ("cli", "serialize", "knots", "pade", "stieltjes", "chebyshev", "exactpoly", "svg")

# Methods traced besides the module-level functions.  `__init__` is
# reported under the class name; `len_max` records the chain length.
METHODS = {"exactpoly.SturmChain": ("__init__", "variations", "count")}
PROBES = {"exactpoly.SturmChain": ("len_max", lambda args: len(args[0].chain))}


class Recorder:
    """In-memory span store.  Wrapped calls record only while an op is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: Optional[int] = None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op if self._op is not None else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, kind: str, op_id: int) -> int:
        """Open the root span of one benchmark op; wrapped calls nest under it."""
        self._op = op_id
        return self.open(self.name_id(f"op.{kind}"))

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self._op = None

    def observe_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def wrap(self, target: str, fn: Callable, probe=None) -> Callable:
        nid = self.name_id(target)

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if probe is not None:
                self.observe_max(f"{target}.{probe[0]}", probe[1](args))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target)
        traced.__qualname__ = getattr(fn, "__qualname__", target)
        traced.__doc__ = fn.__doc__
        return traced

    def write(self, path: str) -> None:
        """Write every span, column-wise, as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Installation:
    """The wrappers put in place by `install`, and what they replaced."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _package_modules() -> list[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(rec: Recorder) -> Installation:
    """Wrap the public functions of every layer at every binding in the package."""
    inst = Installation()
    replace: dict[int, Callable] = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            inst.absent.append(layer)
            continue
        for attr, obj in sorted(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj)):
                continue
            target = f"{layer}.{attr}"
            replace[id(obj)] = rec.wrap(target, obj)
    for cls_target, methods in METHODS.items():
        layer, cls_name = cls_target.split(".")
        cls = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), cls_name, None)
        if not inspect.isclass(cls):
            inst.absent.append(cls_target)
            continue
        for meth in methods:
            fn = cls.__dict__.get(meth)
            target = cls_target if meth == "__init__" else f"{cls_target}.{meth}"
            if not inspect.isfunction(fn):
                inst.absent.append(target)
                continue
            probe = PROBES.get(target)
            inst._undo.append((cls, meth, fn))
            setattr(cls, meth, rec.wrap(target, fn, probe))
    for module in _package_modules():
        for attr, obj in list(vars(module).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                inst._undo.append((module, attr, obj))
                setattr(module, attr, wrapper)
    return inst


# -- summaries ------------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    return [
        (end[i] - start[i]) - covered_length(children.get(i, ()), start[i], end[i])
        for i in range(len(start))
    ]


def outermost(name, parent) -> list[bool]:
    """True for spans with no ancestor of the same name (recursion counted once)."""
    out = []
    for i, nid in enumerate(name):
        p = parent[i]
        while p >= 0 and name[p] != nid:
            p = parent[p]
        out.append(p < 0)
    return out


def summarize(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-pass `.s` (inclusive), `.self_s`, `.calls` per span name, and
    `<layer>.self_s` summed over every span of that layer."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    outer = outermost(rec.name, rec.parent)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, nid in enumerate(rec.name):
        name = rec.names[nid]
        calls[name] += 1
        self_s[name] += selfs[i]
        if outer[i]:
            incl[name] += rec.end[i] - rec.start[i]
    out: dict[str, float] = {}
    layer_self: dict[str, float] = defaultdict(float)
    for name in rec.names:
        out[f"{name}.s"] = incl[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
        out[f"{name}.calls"] = calls[name] / passes
        layer_self[name.split(".")[0]] += self_s[name] / passes
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["op.self_s"] = layer_self.get("op", 0.0)
    for key, value in rec.maxima.items():
        out[key] = value
    return out
