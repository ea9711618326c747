"""Span tracer that wraps library functions from outside the library.

Each target is named ``<module>.<function>`` after a module of the
``lowrankmf`` package.  Installing the tracer replaces *every* binding of
the target's function object in every loaded ``lowrankmf`` module (a
function imported with ``from .core import objective`` is bound in each
importing module, and all of those bindings are rebound), so calls made
between library modules are seen.  Uninstalling restores the originals.

Each call records a span (name, start, end, parent).  Self time is the
span's duration minus the durations of its direct children.  A target
that no longer exists is reported as absent instead of failing, so the
traced run survives refactors of the library.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "lowrankmf"


class Tracer:
    """Records spans for wrapped functions while installed and active."""

    def __init__(self, targets, on_return=None):
        self.targets = list(targets)
        # name -> callable(result, counters) run after each traced call.
        self.on_return = dict(on_return or {})
        self.absent: list[str] = []
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.active = True

    def install(self) -> None:
        found = []
        for target in self.targets:
            module_name, _, func_name = target.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            original = getattr(module, func_name, None)
            if callable(original):
                found.append((target, original))
            else:
                self.absent.append(target)
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for target, original in found:
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run a block (for example the correctness checks) untraced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        hook = self.on_return.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(result, self.counters)
            return result

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``self_s`` (duration minus children) and ``calls``."""
        return self_times(self.spans)


def self_times(spans) -> dict[str, dict[str, float]]:
    """Aggregate closed spans into self time and call count per name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - child[i]
        entry["calls"] += 1
    return out
