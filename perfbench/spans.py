"""Outside-in tracing: wrap the package's public functions, record spans.

A span is (name, start, end, parent, count): `parent` is the index of the
enclosing span (-1 at the top) and `count` is the work the call was handed
(rows, pairs), when a counter is registered for that function. Spans stay
in memory until the caller writes them out.

Wrappers are installed on every loaded `ecgmatch` module that holds the
original function object, so a name imported with `from .data import
encode_subset` is wrapped as well as the attribute on its home module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


PACKAGE = "ecgmatch"


class Tracer:
    """Records spans timed with `clock`, a function returning seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        """A wrapper that records one span per call and returns fn's result unchanged.

        `counter` maps the call's bound arguments (by parameter name) to the
        span's count.
        """
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = counter(signature.bind(*args, **kwargs).arguments) if counter else 0
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, count]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()

        return wrapper

    def install(self, targets: dict) -> None:
        """Wrap each "module.function" in `targets` (name -> counter or None)."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, counter in targets.items():
            module_name, attr = name.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def to_json(self) -> list:
        return [[name, start, end, parent] for name, start, end, parent, _ in self.spans]


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per function name: calls, summed count, total_s (outermost calls only), self_s."""
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        name, start, end, parent, count = span
        entry = stats[name]
        entry["calls"] += 1
        entry["count"] += count
        entry["self_s"] += selfs[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["total_s"] += end - start
    return dict(stats)
