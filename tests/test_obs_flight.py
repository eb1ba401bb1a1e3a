"""Flight recorder: determinism gate, ring semantics, device indices.

The load-bearing property is **non-perturbation**: attaching the
recorder (and telemetry) to a workload must leave crash images,
``DeviceStats``, and sweep verdicts byte-identical to a bare run —
the flight recorder is always-on-capable precisely because turning it
on changes nothing observable.
"""

from __future__ import annotations

import pytest

from repro.crashsweep.workloads import get_workload
from repro.nvm.crash import CrashPlan, count_events
from repro.nvm.device import NvmDevice
from repro.obs.flight import (
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
    attach_flight,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import attach_telemetry


def _run(workload_name, config, crash_after=None, flight_capacity=None):
    workload = get_workload(workload_name)
    holder = {}

    def instrument(system):
        holder["telemetry"] = attach_telemetry(system, registry=MetricsRegistry())
        holder["flight"] = attach_flight(system, capacity=flight_capacity)

    plan = CrashPlan(crash_after) if crash_after is not None else None
    outcome = workload.run(
        config, plan, instrument=instrument if flight_capacity is not None else None
    )
    return outcome, holder.get("flight")


def test_null_flight_is_inert():
    assert NULL_FLIGHT.enabled is False
    assert isinstance(NULL_FLIGHT, NullFlightRecorder)
    NULL_FLIGHT.mark("x")
    NULL_FLIGHT.on_event(0, "fence", 0, 0, None)
    assert NULL_FLIGHT.events_list() == []
    assert NULL_FLIGHT.snapshot()["events"] == []


def test_flight_attach_is_non_perturbing():
    """Images, stats, and verdicts identical with and without the recorder."""
    bare, _ = _run("fio-randwrite", "sync", crash_after=700)
    wired, flight = _run("fio-randwrite", "sync", crash_after=700, flight_capacity=128)
    assert flight.recorded > 0
    assert vars(bare.fs.device.stats) == vars(wired.fs.device.stats)
    kept = sorted(bare.fs.device.unfenced_words())
    assert kept == sorted(wired.fs.device.unfenced_words())
    assert bytes(bare.fs.device.crash_image(persist_words=kept)) == bytes(
        wired.fs.device.crash_image(persist_words=kept)
    )
    assert bare.crashed and wired.crashed


def test_event_index_parity_with_crashsweep():
    """Ring indices are crash indices: the recorder counts exactly the
    events the sweep enumerates (census baseline = post-setup drain)."""
    outcome, flight = _run("fio-randwrite", "sync", flight_capacity=64)
    device = outcome.fs.device
    assert device.event_index == count_events(device, since=outcome.stats_base)
    # the bounded ring keeps the tail; indices in it are replayable --at Ns
    tail = [e for e in flight.events_list() if e[0] in ("store", "flush", "fence")]
    indices = [e[1] for e in tail]
    assert indices == list(range(device.event_index - len(tail), device.event_index))


def test_bounded_ring_drops_head():
    flight = FlightRecorder(capacity=4)
    for i in range(10):
        flight.mark(f"m{i}")
    snap = flight.snapshot()
    assert snap["capacity"] == 4
    assert len(snap["events"]) == 4
    assert snap["recorded"] == 10
    assert snap["dropped"] == 6
    assert snap["events"][-1][2] == "m9"


def test_unbounded_ring_keeps_everything():
    flight = FlightRecorder(capacity=0)
    for i in range(100):
        flight.mark(str(i))
    assert flight.dropped == 0
    assert len(flight.events_list()) == 100


def test_held_locks_and_span_stack():
    device = NvmDevice(1 << 20)
    flight = FlightRecorder(capacity=0)
    device.observers.append(flight)
    flight.on_lock("inode:3", "X")
    flight.on_span_open("op.write", 0.0)
    device.store(4096, b"\0" * 64)
    assert flight.held_locks_snapshot() == [["inode:3", "X"]]
    store = [e for e in flight.events_list() if e[0] == "store"][0]
    assert store[7] == ("op.write",)  # open spans ride on the event
    flight.on_unlock("inode:3")
    assert flight.held_locks_snapshot() == []


def test_drain_resets_ring_and_index():
    device = NvmDevice(1 << 20)
    flight = FlightRecorder(capacity=8)
    device.observers.append(flight)
    device.store(0, b"\0" * 8)
    device.fence()
    assert [e[1] for e in flight.events_list()] == [0, 1]
    device.drain()
    assert device.event_index == 0
    assert flight.events_list() == []
    device.fence()
    assert [e[1] for e in flight.events_list()] == [0]


@pytest.mark.parametrize("config", ["sync", "async"])
def test_snapshot_deterministic(config):
    _, one = _run("txn-mixed", config, flight_capacity=64)
    _, two = _run("txn-mixed", config, flight_capacity=64)
    assert one.snapshot() == two.snapshot()
