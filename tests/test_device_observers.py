"""One indexed device event stream shared by every observer.

The analyzer, the inference collector and the flight recorder all join
``NvmDevice.observers`` through the same attach path. Whatever order
they are attached in, each must see the identical ``(index, kind,
offset, length)`` stream, and each index must be the one at which an
armed :class:`CrashPlan` fires. (Before the shared list, attaching the
analyzer after the flight recorder silently unhooked the recorder.)
"""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.analysis import RegionMap, attach_analyzer
from repro.core import MgspConfig, MgspFilesystem
from repro.errors import CrashRequested
from repro.infer.events import attach_collector
from repro.nvm.crash import CrashPlan, count_events
from repro.obs.flight import attach_flight
from repro.sim.trace import ObservedRecorder

ATTACH = {
    "analyzer": lambda fs: attach_analyzer(fs, perf=False),
    "collector": lambda fs: attach_collector(fs, regions=RegionMap.from_layout(fs.volume.layout)),
    "flight": lambda fs: attach_flight(fs, capacity=0),
}


def _record(observer):
    """Capture the events the device publishes to *observer*."""
    seen = []
    inner = observer.on_event

    def on_event(index, kind, offset, length, detail):
        seen.append((index, kind, offset, length))
        inner(index, kind, offset, length, detail)

    observer.on_event = on_event
    return seen


def _scenario(order=(), plan=None):
    """Attach observers in *order*, then one 4 KB write plus fsync."""
    fs = MgspFilesystem(device_size=8 << 20, config=MgspConfig(degree=16))
    observers = {name: ATTACH[name](fs) for name in order}
    handle = fs.create("a", capacity=1 << 16)
    fs.device.drain()
    fs.device.crash_plan = plan
    try:
        handle.write(0, b"x" * 4096)
        handle.fsync()
    except CrashRequested:
        pass
    return fs, observers


@pytest.mark.parametrize("order", list(permutations(ATTACH)), ids="-".join)
def test_attach_order_does_not_matter(order):
    fs = MgspFilesystem(device_size=8 << 20, config=MgspConfig(degree=16))
    observers = {name: ATTACH[name](fs) for name in order}
    assert fs.device.observers == [observers[name] for name in order]
    assert isinstance(fs.recorder, ObservedRecorder)
    assert not isinstance(fs.recorder.inner, ObservedRecorder)  # wrapped once

    handle = fs.create("a", capacity=1 << 16)
    fs.device.drain()
    base = fs.device.stats.snapshot()
    analyzer_seen = _record(observers["analyzer"])
    handle.write(0, b"x" * 4096)
    handle.fsync()

    collected = [(e.index, e.kind, e.offset, e.length) for e in observers["collector"].events]
    flown = [
        (e[1], "fence", 0, 0) if e[0] == "fence" else (e[1], e[0], e[3], e[4])
        for e in observers["flight"].events_list()
        if e[0] in ("store", "flush", "fence")
    ]
    assert analyzer_seen == collected == flown
    assert [e[0] for e in collected] == list(range(fs.device.event_index))
    assert fs.device.event_index == count_events(fs.device, since=base) > 0
    assert observers["analyzer"].errors == []
    # op boundaries reach every observer through the one wrapper
    op_begins = [e for e in observers["flight"].events_list() if e[0] == "op-begin"]
    assert observers["collector"].op_seq + 1 == len(op_begins) > 0


def test_stream_indices_are_crash_points():
    """``CrashPlan(crash_after=i)`` fires just before published event i,
    on an event of the same kind."""
    _, observers = _scenario(order=("collector",))
    stream = [(e.index, e.kind) for e in observers["collector"].events]
    assert stream
    for index, kind in stream:
        plan = CrashPlan(index)
        crashed, _ = _scenario(plan=plan)
        assert plan.fired and plan.fired_kind == kind
        assert crashed.device.event_index == index
    plan = CrashPlan(len(stream))
    _scenario(plan=plan)
    assert not plan.fired
