"""In-memory spans around restriction_lab's public functions.

``install`` replaces each traced function by a wrapper wherever its
callers look it up: every ``restriction_lab`` module attribute bound to
the original object, or the class attribute for a method.  The program's
own files are left as they are.  A span is (name, start, end, parent);
spans are kept in flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute path) of every traced callable
TARGETS = [
    ("restriction_lab.curves", "DerivativeOracle.__call__"),
    ("restriction_lab.curves", "affine_weight"),
    ("restriction_lab.quadrature", "integrate_refine"),
    ("restriction_lab.quadrature", "box_rule"),
    ("restriction_lab.quadrature", "gl_nodes"),
    ("restriction_lab.vandermonde", "psi_mean_tail_ratio"),
    ("restriction_lab.vandermonde", "psi"),
    ("restriction_lab.jacobian", "jacobian_direct"),
    ("restriction_lab.jacobian", "jacobian_integral"),
    ("restriction_lab.jacobian", "sigma_ratio"),
    ("restriction_lab.conditions", "build_flattened"),
    ("restriction_lab.conditions", "estimate_A"),
    ("restriction_lab.conditions", "check_phicond"),
    ("restriction_lab.geometry", "lambda_measure"),
    ("restriction_lab.geometry", "Parallelepiped.contains"),
    ("restriction_lab.geometry", "sm_measure"),
    ("restriction_lab.probe", "restrict"),
    ("restriction_lab.probe", "empirical_ratio"),
    ("restriction_lab.runner", "write_report"),
]

PASS = "bench.pass"


def _rows(x) -> int:
    """Number of points in an array of points (last axis = coordinates)."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def wrap(self, name: str, fn, count=None):
        """Wrapper of ``fn`` that records one span per call.  ``count`` is
        called as count(args, kwargs, result) after the call."""
        nid = self._id(name)
        clock = time.perf_counter
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        open_ = self._open

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
            if count is not None:
                count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._open.pop()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (total
        minus the time covered by direct child spans)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=dur - child,
                          minlength=len(self.names))
        return {n: {"calls": float(calls[i]), "s": float(total[i]),
                    "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def _sm_counts(tracer: Tracer):
    def count(args, kwargs, rep):
        tracer.add("geometry.sm_measure.samples",
                   float(rep.parameters["mc_samples"]))
        tracer.add("geometry.sm_measure.hits", float(rep.witnesses[0]["hits"]))
    return count


def install(tracer: Tracer) -> None:
    """Wrap every target and every registry operation."""
    import restriction_lab.registry as registry

    modules = [m for n, m in list(sys.modules.items())
               if n == "restriction_lab" or n.startswith("restriction_lab.")]
    for mod_name, path in TARGETS:
        owner = sys.modules[mod_name]
        short = (mod_name.rsplit(".", 1)[1] + "."
                 + path.removesuffix(".__call__"))
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(owner, cls_name)
            counter = None
            if meth == "__call__":
                counter = (lambda a, k, o: tracer.add(
                    "curves.DerivativeOracle.points", float(np.size(a[1]))))
            elif meth == "contains":
                counter = (lambda a, k, o: tracer.add(
                    "geometry.Parallelepiped.contains.points",
                    float(_rows(a[1]))))
            setattr(cls, meth, tracer.wrap(short, getattr(cls, meth), counter))
            continue
        original = getattr(owner, path)
        counter = _sm_counts(tracer) if path == "sm_measure" else None
        wrapped = tracer.wrap(short, original, counter)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapped)
    for op, entry in list(registry.REGISTRY.items()):
        registry.REGISTRY[op] = type(entry)(
            name=entry.name, summary=entry.summary,
            fn=tracer.wrap(f"registry.{op}", entry.fn))
