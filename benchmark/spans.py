"""Span bookkeeping for the traced benchmark run (standard library only).

The tracer wraps functions from outside the program: every module-level
name and class attribute bound to a wrapped function is rebound to one
wrapper, so a function imported into several modules (``from .x import
f``) records the same span name whichever binding the caller used.

A span is ``[name_id, start, end, parent, command, counters]``. ``parent``
is the index of the innermost span open when this one started (-1 for a
root) and ``command`` is the tracer's ``command`` attribute at that time.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, COMMAND, COUNTERS = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self.command = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``hook(args, kwargs, add)`` runs inside the span before the call and
        returns the (possibly replaced) ``(args, kwargs)``; ``add(key, k)``
        adds ``k`` to the span's counter ``key``.
        """
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            if hook is not None:
                record[COUNTERS] = counters = {}

                def add(key, k=1):
                    counters[key] = counters.get(key, 0) + k

                args, kwargs = hook(args, kwargs, add)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def patch(self, modules, owner, attr: str, name: str, hook=None) -> None:
        """Wrap ``owner.attr`` and rebind every alias of it in ``modules``.

        ``owner`` is a module or a class; class attributes are patched on the
        class itself, which every importer shares.
        """
        original = owner.__dict__[attr]
        wrapper = self.wrap(name, original, hook)
        targets = [(owner, attr)]
        for module in modules:
            if module is owner:
                continue
            targets.extend((module, key) for key, value in vars(module).items()
                           if value is original)
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    def restore(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
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


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - _covered(children.get(i, []), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def summarize(names: list[str], spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s and the summed counters."""
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for span, own in zip(spans, self_times(spans)):
        row = table[names[span[NAME]]]
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
        for key, k in (span[COUNTERS] or {}).items():
            row[key] = row.get(key, 0) + k
    return table


def count_under(names: list[str], spans: list[list], child: str, ancestor: str) -> int:
    """Number of ``child`` spans that have an ``ancestor`` span above them."""
    child_id, ancestor_id = names.index(child), names.index(ancestor)
    total = 0
    for span in spans:
        if span[NAME] != child_id:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor_id:
            parent = spans[parent][PARENT]
        total += parent >= 0
    return total
