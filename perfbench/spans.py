"""In-process span tracer that wraps public functions of the program from outside.

Each wrapped function records its call count, total time and self time
(its span minus the part of that span its child spans cover).  Span stacks
are thread-local.  A span that starts on a worker thread with an empty
stack is adopted by the innermost open span of the thread that installed
the tracer, which is the thread that handed the work to the pool; adopted
children may overlap each other, so they are subtracted as a union of
intervals.  Spans are folded into per-name totals as they end, because the
hot geometry kernels are called millions of times per command.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time


class _Frame:
    __slots__ = ("child_s", "adopted")

    def __init__(self):
        self.child_s = 0.0
        self.adopted = []  # (start, end) of spans adopted from worker threads


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = self._local.stack = []
        self._lock = threading.Lock()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.missing: list[str] = []
        self.counters: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, on_result=None):
        """Return fn wrapped so that every call records a span under name."""
        self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            adopter = None
            if not stack and threading.get_ident() != self._owner and self._owner_stack:
                adopter = self._owner_stack[-1]
            frame = _Frame()
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                covered = frame.child_s
                if frame.adopted:
                    covered += _union_length(frame.adopted, t0, t1)
                if stack:
                    stack[-1].child_s += dur
                elif adopter is not None:
                    adopter.adopted.append((t0, t1))
                with self._lock:
                    entry = self.stats[name]
                    entry[0] += 1
                    entry[1] += dur
                    entry[2] += max(dur - covered, 0.0)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def install(self, package: str, specs) -> None:
        """Wrap each (name, module, attribute[, on_result]) in every module that holds it.

        A function is replaced wherever a module of the package binds it, so
        calls through `from x import f` copies are traced too.  An attribute
        that no longer exists is recorded in `missing` instead of raising.
        """
        for spec in specs:
            name, module_name, attr = spec[:3]
            on_result = spec[3] if len(spec) > 3 else None
            try:
                fn = getattr(importlib.import_module(module_name), attr, None)
            except ImportError:
                fn = None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapped = self.span(name, fn, on_result)
            modules = [
                m
                for key, m in list(sys.modules.items())
                if m is not None and (key == package or key.startswith(package + "."))
            ]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def report(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }
