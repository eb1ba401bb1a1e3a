"""Persistence-event collection for invariant inference.

The collector is one of the device's ``observers``, beside the
:class:`repro.analysis.analyzer.TraceAnalyzer`. Each event it records
carries the device's own ``event_index``, which counts one index per
store / clwb call / fence and restarts at the post-setup drain, exactly
like crashsweep's census. A collected event's ``index`` therefore *is*
the crashsweep ``crash_after`` index — the falsifier can hand it
straight to ``CrashPlan`` and hit the corresponding moment exactly.

Unlike the analyzer (which checks rules online and forgets), the
collector keeps the whole event list, tagged with the region each
offset falls in and the operation it happened under, so the miner can
replay durability offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.nvm.device import DeviceObserver
from repro.sim.trace import attach_observer

#: event kinds, matching the census accounting exactly
STORE = "store"
FLUSH = "flush"
FENCE = "fence"


@dataclass(frozen=True)
class PersistEvent:
    """One indexed persistence event.

    ``index`` is crashsweep-parity: ``CrashPlan(crash_after=index)``
    fires on this event (events ``0..index-1`` completed before it).
    """

    index: int
    kind: str  # STORE | FLUSH | FENCE
    offset: int
    length: int
    store_kind: str  # "store" | "nt" | "atomic" | "" (flush/fence)
    region: str
    op: Optional[str]  # op kind, None outside any op bracket
    op_seq: int  # 0-based completed-op counter; -1 before the first op


@dataclass
class Trace:
    """One passing run's event stream."""

    workload: str
    config_name: str
    events: List[PersistEvent]
    ops: int
    saturated: bool


class EventCollector(DeviceObserver):
    """Device observer that records every persistence event with its
    device index and region/op context."""

    def __init__(self, regions=None, max_events: Optional[int] = None) -> None:
        self.regions = regions
        self.max_events = max_events
        self.events: List[PersistEvent] = []
        self.saturated = False
        self.op: Optional[str] = None
        self.op_seq = -1

    def on_event(self, index: int, kind: str, offset: int, length: int, detail) -> None:
        if self.max_events is not None and index >= self.max_events:
            self.saturated = True
            return
        if kind == FENCE:
            store_kind, region = "", ""
        else:
            store_kind = detail if kind == STORE else ""
            region = "device" if self.regions is None else self.regions.classify(offset)
        self.events.append(
            PersistEvent(index, kind, offset, length, store_kind, region, self.op, self.op_seq)
        )

    def on_drain(self) -> None:
        """Setup boundary: everything before the drain is pre-history
        (the device index and crashsweep's census restart here too)."""
        self.events.clear()
        self.saturated = False

    def on_op_begin(self, name: str) -> None:
        self.op_seq += 1
        self.op = name

    def on_op_end(self, name: str) -> None:
        self.op = None


def attach_collector(system, regions=None, max_events: Optional[int] = None) -> EventCollector:
    """Instrument a workload system (file system or ``RawSystem``) with a
    collector; pass as ``SweepWorkload.run(..., instrument=...)`` body."""
    collector = EventCollector(regions=regions, max_events=max_events)
    return attach_observer(system, collector)
