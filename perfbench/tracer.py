"""Outside-in span tracer for the ramcell modules.

The tracer wraps functions from outside the program: for each target it
replaces every name under which a loaded ``ramcell`` module binds the
function (``cell.ik``, ``cure.time_profile``, ``cli._write`` ...), so
calls made through ``from .x import f`` bindings are seen too.  Each call
becomes one span (name, start, end, parent) kept in memory; inclusive
time, self time (inclusive minus child spans) and call counts are summed
per bucket (``setup`` or ``pass``).  ``uninstall`` restores the
originals.

A target that no longer exists is recorded in ``missing`` and reported
as not measured.  A counter that cannot read its arguments is recorded
in ``uncounted``; neither aborts the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    span: str                  # span name, "<module>.<function>"
    module: str                # e.g. "ramcell.cell"
    attr: str                  # "plan_trajectory" or "Class.method"
    counter: Callable | None = None   # counter(tracer, bound_args, result)


@dataclass
class Bucket:
    incl: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self.originals: dict[str, Callable] = {}
        self.spans: list[tuple] = []       # (name, t0, t1, parent_index, bucket)
        self.buckets: dict[str, Bucket] = defaultdict(Bucket)
        self.bucket = "setup"
        self._stack: list[list] = []       # open spans: [child_time, index]
        self._patches: list[tuple] = []    # (owner, attr, raw original)

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        self.missing = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                owner, raw = _resolve(module, target.attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.span)
                continue
            if isinstance(raw, staticmethod):
                fn = raw.__func__
                wrapped = staticmethod(self._wrap(target, fn))
            elif inspect.isfunction(raw):
                fn = raw
                wrapped = self._wrap(target, fn)
            else:
                self.missing.append(target.span)
                continue
            self.originals[target.span] = fn
            if owner is not module:
                setattr(owner, target.attr.rsplit(".", 1)[1], wrapped)
                self._patches.append((owner, target.attr.rsplit(".", 1)[1], raw))
                continue
            for mod in _ramcell_modules():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)
                        self._patches.append((mod, name, fn))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches = []

    # -- recording --------------------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        signature = inspect.signature(fn) if target.counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(target, fn, signature, args, kwargs)
        return traced

    def _call(self, target, fn, signature, args, kwargs):
        stats = self.buckets[self.bucket]
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            stats.incl[target.span] += dur
            stats.self_s[target.span] += dur - frame[0]
            stats.calls[target.span] += 1
            self.spans[frame[1]] = (target.span, t0, t1,
                                    parent[1] if parent else -1, self.bucket)
            if parent is not None:
                parent[0] += dur
        if signature is not None:
            b0 = time.perf_counter()
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                target.counter(self, bound.arguments, result)
            except Exception:  # a counter must never fail the traced call
                self.uncounted.add(target.span)
            if parent is not None:
                # bookkeeping is nobody's self time; it shows as unattributed
                parent[0] += time.perf_counter() - b0
        return result

    def count(self, key: str, value: float) -> None:
        self.buckets[self.bucket].counts[key] += value

    def dump(self) -> dict:
        return {
            "missing": self.missing,
            "uncounted": sorted(self.uncounted),
            "spans": [list(s) for s in self.spans if s is not None],
        }


def _resolve(module, attr: str):
    if "." not in attr:
        return module, vars(module)[attr]
    cls_name, meth = attr.split(".", 1)
    cls = getattr(module, cls_name)
    return cls, vars(cls)[meth]


def _ramcell_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ramcell" or name.startswith("ramcell."))]
