"""Self-test of the benchmark's span bookkeeping.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import spans  # noqa: E402


class FakeClock:
    """A clock that moves only when the code under test sleeps."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def make_modules(sleep):
    """Two modules; ``b`` imports ``leaf`` and ``middle`` from ``a`` by name."""
    a = types.ModuleType("fake.a")
    b = types.ModuleType("fake.b")
    a.sleep = b.sleep = sleep
    exec(
        "def leaf():\n"
        "    sleep(1.0)\n"
        "def middle():\n"
        "    sleep(2.0)\n"
        "    leaf()\n"
        "    sleep(0.5)\n"
        "    leaf()\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        sleep(0.25)\n"
        "        leaf()\n",
        a.__dict__,
    )
    b.leaf, b.middle, b.Box = a.leaf, a.middle, a.Box
    exec(
        "def outer():\n"
        "    sleep(3.0)\n"
        "    middle()\n"
        "    leaf()\n"
        "    Box()\n",
        b.__dict__,
    )
    return a, b


def traced_tree(clock, sleep):
    a, b = make_modules(sleep)
    originals = (a.leaf, a.middle, a.Box.__init__, b.outer)
    tracer = spans.Tracer(clock=clock)
    modules = [a, b]
    tracer.patch(modules, a, "leaf", "a.leaf")
    tracer.patch(modules, a, "middle", "a.middle")
    tracer.patch(modules, a.Box, "__init__", "a.Box.init")
    tracer.patch(modules, b, "outer", "b.outer")
    tracer.command = 7
    b.outer()
    return tracer, a, b, originals


def by_name(tracer):
    out: dict[str, list[int]] = {}
    for i, span in enumerate(tracer.spans):
        out.setdefault(tracer.names[span[spans.NAME]], []).append(i)
    return out


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tracer, *_ = traced_tree(clock, clock.sleep)
    table = spans.summarize(tracer.names, tracer.spans)

    assert table["b.outer"]["total_s"] == pytest.approx(3.0 + 4.5 + 1.0 + 1.25)
    assert table["b.outer"]["self_s"] == pytest.approx(3.0)
    assert table["a.middle"]["total_s"] == pytest.approx(4.5)
    assert table["a.middle"]["self_s"] == pytest.approx(2.5)
    assert table["a.Box.init"]["self_s"] == pytest.approx(0.25)
    assert table["a.leaf"]["calls"] == 4
    assert table["a.leaf"]["self_s"] == pytest.approx(4.0)
    # every instant inside the root is attributed to exactly one span
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(table["b.outer"]["total_s"])


def test_parent_links_across_rebound_names():
    clock = FakeClock()
    tracer, a, b, _ = traced_tree(clock, clock.sleep)
    idx = by_name(tracer)
    (outer,) = idx["b.outer"]
    (middle,) = idx["a.middle"]
    (box,) = idx["a.Box.init"]
    parents = [tracer.spans[i][spans.PARENT] for i in idx["a.leaf"]]
    # two calls through a's binding inside middle, one through b's alias in
    # outer, one through a's binding inside the class method
    assert parents == [middle, middle, outer, box]
    assert tracer.spans[middle][spans.PARENT] == outer
    assert tracer.spans[outer][spans.PARENT] == -1
    assert {span[spans.COMMAND] for span in tracer.spans} == {7}
    assert spans.count_under(tracer.names, tracer.spans, "a.leaf", "a.middle") == 2
    assert spans.count_under(tracer.names, tracer.spans, "a.leaf", "b.outer") == 4


def test_patch_rebinds_every_alias_and_restore_undoes_it():
    clock = FakeClock()
    tracer, a, b, originals = traced_tree(clock, clock.sleep)
    assert a.leaf is b.leaf and a.leaf is not originals[0]
    assert a.Box is b.Box and a.Box.__init__ is not originals[2]
    tracer.restore()
    assert (a.leaf, a.middle, a.Box.__init__, b.outer) == originals
    assert b.leaf is originals[0] and b.middle is originals[1]


def test_counters_from_hooks():
    clock = FakeClock()
    a, _ = make_modules(clock.sleep)
    exec("def integrate(f, n):\n    return sum(f(i) for i in range(n))\n", a.__dict__)
    tracer = spans.Tracer(clock=clock)

    def hook(args, kwargs, add):
        f = args[0]

        def counted(x):
            add("nodes")
            return f(x)

        return (counted,) + args[1:], kwargs

    tracer.patch([a], a, "integrate", "a.integrate", hook)
    assert a.integrate(lambda x: 2 * x, 5) == 20
    a.integrate(lambda x: x, 3)
    row = spans.summarize(tracer.names, tracer.spans)["a.integrate"]
    assert row["calls"] == 2 and row["nodes"] == 8


def test_overlapping_children_are_counted_once():
    # coverage is the union of the child intervals, clipped to the parent
    recorded = [
        [0, 0.0, 10.0, -1, None, None],
        [1, 1.0, 4.0, 0, None, None],
        [1, 3.0, 5.0, 0, None, None],
        [1, 9.0, 12.0, 0, None, None],
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_real_sleeps():
    tracer, *_ = traced_tree(time.perf_counter, lambda d: time.sleep(d / 100.0))
    table = spans.summarize(tracer.names, tracer.spans)
    # known sleeps of 30 ms and 25 ms in the outer and middle bodies
    assert 0.030 <= table["b.outer"]["self_s"] < 0.030 + 0.05
    assert 0.025 <= table["a.middle"]["self_s"] < 0.025 + 0.05
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(
        table["b.outer"]["total_s"], rel=1e-9)
