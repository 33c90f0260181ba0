"""In-memory span tracer that wraps the program's public entry points.

The program is not modified: the ``patch_*`` methods replace class
attributes (``PairCopula.hinv`` ...) and every module global bound to a
traced function (``vinetail.cli.eta_numeric``, ``vinetail.eta.eta_numeric``
...) with wrappers; ``workloads.install_tracing`` lists them.  A wrapper records a span only while an op is open, so the
benchmark's own correctness checks, which call the same functions, are not
traced.  Spans are kept in flat arrays (name, start, end, parent, op) and
written out when the run ends.

Standard library only.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "vines", "copulas", "gauges", "eta", "simulate", "empirical")
ROOT = "bench.op"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        if self._op >= 0:
            self.counters[key] += value

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self.open(self.name_id(ROOT))

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self._op = -1

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, after=None):
        """Wrap fn in a span.  name is a span name or a function of the call
        arguments returning one; after(tracer, args, result) adds counts."""
        tracer = self
        pick = name if callable(name) else None
        nid = None if pick else self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer.open(nid if pick is None else tracer.name_id(pick(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def patch_attr(self, owner, attr, name, after=None, kind=None):
        """Replace a class attribute; kind is "classmethod" for those."""
        original = owner.__dict__[attr]
        if kind == "classmethod":
            replacement = classmethod(self.wrap(original.__func__, name, after))
        else:
            replacement = self.wrap(original, name, after)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def patch_factory(self, owner, attr, name):
        """Replace a method that returns a callable so that the callable it
        returns is traced (used for ``Gauge.scalar_evaluator``)."""
        original = owner.__dict__[attr]
        wrap = self.wrap

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return wrap(original(*args, **kwargs), name)

        setattr(owner, attr, factory)
        self._undo.append((owner, attr, original))

    def patch_function(self, modules, fn, name, after=None):
        """Replace every module global in `modules` that is bound to fn."""
        traced = self.wrap(fn, name, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as gzip CSV: name,start,end,parent,op (times in seconds)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n")


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so covered time is never counted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


def summarise(tracer: Tracer) -> dict:
    """Per-name span counts, inclusive and self seconds, and nesting counts."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    names = tracer.names
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    nested = defaultdict(int)  # (child name, parent name) -> count
    for i, nid in enumerate(tracer.name):
        st = stats[names[nid]]
        st["calls"] += 1
        st["total_s"] += tracer.end[i] - tracer.start[i]
        st["self_s"] += selfs[i]
        p = tracer.parent[i]
        if p >= 0:
            nested[(names[nid], names[tracer.name[p]])] += 1
    return {"spans": dict(stats), "nested": dict(nested), "n_spans": len(selfs)}

