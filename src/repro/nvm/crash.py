"""Crash injection.

A :class:`CrashPlan` attached to a device counts persistence events
(stores, flushes, fences) and raises :class:`~repro.errors.CrashRequested`
when the configured event index is reached. Tests catch the exception,
compose a crash image, and run recovery against it.

:func:`count_events` enumerates the crash points a workload exposes and
is exact: it is derived from the same per-call counters the plan's
``on_event`` hook fires in (``stores``/``flush_calls``/``fences``), so a
sweep over ``crash_after in range(count_events(...))`` visits every
event once — including the events emitted per element inside the two
batched device entry points, ``nt_store_v`` and ``store_word_v``: with
a plan armed, each runs as a loop of its single-op primitives
(``nt_store``, or ``atomic_store_u64`` + ``flush``).

:func:`compose_image` turns a crashed device plus a :class:`CrashPolicy`
into a concrete post-crash image. ``RANDOM`` composition is driven by an
explicit seed so any sampled image can be reproduced exactly from the
``(workload, crash_after, policy, seed)`` tuple a sweep reports.
"""

from __future__ import annotations

import enum
import random
from typing import Optional, Set

from repro.errors import CrashRequested


class CrashPolicy(enum.Enum):
    """How unfenced words behave at the crash point."""

    DROP_ALL = "drop_all"  # nothing unfenced persists (lazy cache)
    KEEP_ALL = "keep_all"  # every dirty line was evicted just in time
    RANDOM = "random"  # each word flips a coin


class CrashPlan:
    """Fire a crash after the N-th persistence event of the chosen kinds."""

    def __init__(
        self,
        crash_after: int,
        kinds: Optional[Set[str]] = None,
    ) -> None:
        if crash_after < 0:
            raise ValueError("crash_after must be >= 0")
        self.crash_after = crash_after
        self.kinds = kinds or {"store", "flush", "fence"}
        self.count = 0
        self.fired = False
        self.fired_kind: Optional[str] = None

    def on_event(self, kind: str) -> None:
        if self.fired or kind not in self.kinds:
            return
        self.count += 1
        if self.count > self.crash_after:
            self.fired = True
            self.fired_kind = kind
            raise CrashRequested(f"crash injected after {self.crash_after} events")


#: A plan that counts every event but never fires: attach it during a
#: census run so the workload takes the *same* device code paths as an
#: armed run (some batched entry points specialize on ``crash_plan is
#: None``) while ``plan.count`` records the exact number of crash points.
def counting_plan(kinds: Optional[Set[str]] = None) -> CrashPlan:
    return CrashPlan(crash_after=(1 << 62), kinds=kinds)


def count_events(device, kinds: Optional[Set[str]] = None, since=None) -> int:
    """Number of persistence events a workload generated, derived from
    the device's counters; used to enumerate crash points.

    ``flush`` events are counted with ``stats.flush_calls`` — one per
    clwb *call*, exactly how :meth:`CrashPlan.on_event` fires (the old
    ``flushed_lines`` proxy over- or under-counted whenever a flush
    covered several lines or hit only clean ones). With ``since`` (a
    ``DeviceStats`` snapshot) only events after the snapshot count.
    """
    kinds = kinds or {"store", "flush", "fence"}
    stats = device.stats if since is None else device.stats.delta(since)
    total = 0
    if "store" in kinds:
        total += stats.stores
    if "flush" in kinds:
        total += stats.flush_calls
    if "fence" in kinds:
        total += stats.fences
    return total


def compose_image(
    device,
    policy: CrashPolicy,
    seed: int = 0,
    persist_probability: float = 0.5,
) -> bytes:
    """Compose the post-crash image of *device* under *policy*.

    ``RANDOM`` uses ``random.Random(seed)`` — never ambient randomness —
    so the image is a pure function of (device state, policy, seed) and
    a failing sweep sample can be replayed from its reported seed.
    """
    if policy is CrashPolicy.DROP_ALL:
        return device.crash_image(persist_words=())
    if policy is CrashPolicy.KEEP_ALL:
        return device.crash_image(persist_words=device.unfenced_words())
    return device.crash_image(rng=random.Random(seed), persist_probability=persist_probability)
