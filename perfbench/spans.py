"""In-memory span tracer that wraps currikit's public functions from outside.

``Tracer.install`` replaces each named function with a timing wrapper in
every currikit module (or class) that holds a reference to it, so a call is
traced however the caller looked it up: ``cli`` imports ``load_jsonl`` by
name and ``difficulty`` imports ``train`` and ``predict`` by name, and
patching only the defining module would miss those calls. ``uninstall``
puts every original back. Spans stay in memory until the caller writes them
out; the package code is never changed.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# hook(args, kwargs, result) -> {counter name: value}; value is added to the
# counter, or kept as a maximum when the counter name is in Tracer.maxima.
Hook = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous and single-threaded, so children are nested
    inside their parent and never overlap each other.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    agg: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = agg.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return agg


@dataclass
class Tracer:
    maxima: frozenset = frozenset()
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _count(self, values: dict) -> None:
        for key, value in values.items():
            if key in self.maxima:
                self.counters[key] = max(self.counters.get(key, value), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0,
                              stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = time.perf_counter()
            if hook is not None:
                self._count(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: list[tuple[str, object, str, Hook | None]]) -> None:
        """``targets`` holds (span name, owner, attribute, hook); the owner is
        the defining module or class. Every currikit module attribute that is
        the same function object is patched too."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "currikit" or n.startswith("currikit."))]
        for name, owner, attr, hook in targets:
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, hook)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def write(self, path: Path) -> None:
        """Spans as JSONL, one {name, start, end, parent} object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(vars(s)) + "\n")
