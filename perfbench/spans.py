"""Span tracing of public package functions, installed from outside.

``Tracer`` swaps every binding of each named function across the loaded
``coverage_inekf`` modules for a timing wrapper, so calls made through
``from ... import name`` copies and through ``module.name`` both record a
span.  Spans (name, start, end, parent) stay in flat arrays in memory until
the run ends.  A name that no longer resolves to a function is reported as
absent and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "coverage_inekf"


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it covered by its children.

    ``parent`` holds the index of the enclosing span, or -1 for a root.
    Overlapping children are merged so no instant is subtracted twice.
    """
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    parent = np.asarray(parent, int)
    covered = np.zeros(start.size)
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    run_parent, run_lo, run_hi = -1, 0.0, 0.0
    for i in order:
        p = parent[i]
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
        if hi <= lo:
            continue
        if p != run_parent or lo > run_hi:
            if run_parent >= 0:
                covered[run_parent] += run_hi - run_lo
            run_parent, run_lo, run_hi = p, lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_parent >= 0:
        covered[run_parent] += run_hi - run_lo
    return end - start - covered


class Tracer:
    """Context manager that records spans for ``targets`` ("module.function").

    It may be entered repeatedly; spans accumulate across entries.
    ``flags`` maps a target to a predicate on its return value; the number
    of calls for which it holds is reported as ``flagged``.
    """

    def __init__(self, targets, flags=None):
        self.targets = list(targets)
        self.flags = dict(flags or {})
        self.absent: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flagged = dict.fromkeys(self.targets, 0)
        self._stack = [-1]
        self._patches = []

    def _wrap(self, fn, idx, target):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, flag, clock = self._stack, self.flags.get(target), time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if flag is not None and flag(out):
                self.flagged[target] += 1
            return out

        return traced

    def __enter__(self):
        self.absent = []
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for idx, target in enumerate(self.targets):
            mod_name, fn_name = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                module = None
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(target)
                continue
            wrapper = self._wrap(fn, idx, target)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.targets),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
        }

    def summary(self, wall_s: float) -> dict[str, dict[str, float]]:
        """calls, self_s, us_per_call (inclusive) and share of ``wall_s``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        n = len(self.targets)
        calls = np.bincount(a["name_id"], minlength=n)
        total = np.bincount(a["name_id"], weights=dur, minlength=n)
        own_s = np.bincount(a["name_id"], weights=own, minlength=n)
        out = {}
        for i, target in enumerate(self.targets):
            out[target] = {
                "calls": int(calls[i]),
                "self_s": float(own_s[i]),
                "us_per_call": float(total[i] / calls[i] * 1e6) if calls[i] else 0.0,
                "share": float(own_s[i] / wall_s) if wall_s > 0 else 0.0,
            }
        return out

    def root_time(self) -> float:
        """Seconds spent inside top-level spans."""
        a = self.arrays()
        roots = a["parent"] < 0
        return float((a["end"][roots] - a["start"][roots]).sum())
