"""Crash-point enumeration: census a workload, then pick what to sweep.

The census runs the workload once with a *counting* plan armed — a
:class:`~repro.nvm.crash.CrashPlan` that observes every persistence
event but never fires — so the run takes exactly the device code paths
an armed run takes (some vectorized entry points specialize on
``crash_plan is None``). Two independent tallies must agree:

- ``events``: the device's ``event_index`` at the end of the run — the
  index every device observer reports, restarted by the post-setup
  drain the plan is armed after;
- ``derived``: :func:`~repro.nvm.crash.count_events` over the
  ``DeviceStats`` delta since the plan was armed.

A mismatch means enumerated crash points diverge from events that can
actually fire — crash indices silently skipped or double-counted — and
the sweep reports it as a violation in its own right.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.nvm.crash import count_events, counting_plan

from repro.crashsweep.workloads import SweepWorkload


@dataclass
class Census:
    workload: str
    config_name: str
    events: int
    derived: int

    @property
    def parity_ok(self) -> bool:
        return self.events == self.derived


def take_census(workload: SweepWorkload, config_name: str) -> Census:
    """Run *workload* to completion and count its crash points."""
    outcome = workload.run(config_name, counting_plan())
    if outcome.crashed:  # pragma: no cover - counting plans cannot fire
        raise RuntimeError("census plan fired")
    device = outcome.fs.device
    return Census(
        workload=workload.name,
        config_name=config_name,
        events=device.event_index,
        derived=count_events(device, since=outcome.stats_base),
    )


def sample_points(events: int, budget: int, seed: int) -> List[int]:
    """Crash indices to sweep: exhaustive up to *budget*, otherwise a
    seeded stratified sample (one point per equal-width stratum, so
    coverage stays spread across the whole run instead of clustering)."""
    if events <= 0:
        return []
    if budget <= 0 or events <= budget:
        return list(range(events))
    rng = random.Random(seed)
    points = []
    for i in range(budget):
        lo = (i * events) // budget
        hi = ((i + 1) * events) // budget
        if hi > lo:
            points.append(rng.randrange(lo, hi))
    return sorted(set(points))
