"""The three benchmark workloads.

Each workload splits one *round* into ``setup(seed)`` and
``measure(state)``. A round is a pure function of the seed on the virtual
clock: ``measure`` returns, besides its host-clock samples, an ``exact``
dict of virtual metrics and counters that must be identical for every
round of the same seed (the determinism check in :mod:`run`).

Inputs are generated from the seed in ``setup``; the program only ever
receives the generated operations. Each size fixes how many untraced
``rounds`` (and traced ``traced_rounds``) a run makes, so the host-time
estimators never depend on how fast the rounds happen to run; ``setups``,
where given, times that many set-ups in all (the rounds' own, then
set-up-only repetitions).
"""

from __future__ import annotations

import hashlib
import importlib
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

from repro.core import MgspConfig, MgspFilesystem
from repro.crashsweep.workloads import CONFIGS, WORKLOADS
from repro.nvm import crash as nvm_crash
from repro.obs.registry import percentile
from repro.service.scheduler import DeficitRoundRobin
from repro.service.service import MgspService, ServiceConfig, tenant_requests
from repro.sim.engine import ReplayEngine

MB = 1 << 20

# ``repro.crashsweep`` re-exports a function named ``sweep``, which
# shadows the submodule as a package attribute.
sweep_census = importlib.import_module("repro.crashsweep.census")
sweep_mod = importlib.import_module("repro.crashsweep.sweep")


def _digest(obj) -> str:
    """Stable digest of a value's repr (``hash`` of str is salted per process)."""
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:16]


@dataclass
class RoundResult:
    """One measured round."""

    #: host seconds of the measured phase
    wall_s: float
    #: host seconds per op (fio op / request / crash point), in the
    #: seed-fixed order of the ops
    op_s: List[float]
    #: host seconds of the measured work outside any op, by phase
    other_s: List[float]
    attempted: int
    failed: int
    #: virtual metrics and exact counters; identical for every round of a seed
    exact: Dict[str, object]
    failures: List[str] = field(default_factory=list)


def _virt_split(traces) -> tuple:
    """(io ns, compute ns) summed over the segments of *traces*."""
    io = compute = 0.0
    for trace in traces:
        for seg in trace.segments:
            if seg[0] == "io":
                io += seg[1]
            elif seg[0] == "compute":
                compute += seg[1]
    return io, compute


def _device_counters(prefix: str, delta) -> Dict[str, int]:
    return {f"{prefix}{name}": value for name, value in sorted(vars(delta).items())}


class ReplayCapture:
    """Keeps every :class:`~repro.sim.engine.ReplayResult` the engine
    returns while installed, so the service round can report
    ``ReplayResult.threads`` without the service exposing it.

    It adds one list append per replay call and changes nothing else.
    """

    def __init__(self) -> None:
        self.results: List[object] = []
        self._original = None

    def __enter__(self) -> "ReplayCapture":
        original = ReplayEngine.run
        results = self.results

        def run(engine, *args, **kwargs):
            result = original(engine, *args, **kwargs)
            results.append(result)
            return result

        self._original = original
        ReplayEngine.run = run
        return self

    def __exit__(self, *exc) -> None:
        ReplayEngine.run = self._original


# --------------------------------------------------------------------------
# fio-mgsp-mixed
# --------------------------------------------------------------------------


class FioMixed:
    """FIO random read/write on MGSP as the figures configure it."""

    name = "fio-mgsp-mixed"
    #: block sizes and their shares: sub-leaf, leaf and one level up the
    #: degree-64 radix tree, so fine, leaf and coarse logging all run
    BLOCKS = ((128, 45), (4096, 45), (256 << 10, 10))
    SIZES = {
        "full": dict(device=64 * MB, file=16 * MB, ops=4000, rounds=36, traced_rounds=3),
        "tiny": dict(device=8 * MB, file=1 * MB, ops=60, rounds=2, traced_rounds=1),
    }

    def __init__(self, size: str = "full") -> None:
        self.size = self.SIZES[size]

    def inputs(self, seed: int):
        """(prefill bytes, payload pool, op list). Block sizes and the
        read/write split are dealt from shuffled decks, so every seed
        has exactly the stated mix and only order and offsets vary."""
        rng = random.Random(seed)
        nops = self.size["ops"]
        fsize = self.size["file"]
        prefill = rng.randbytes(fsize)
        pool = rng.randbytes(512 << 10)
        blocks = []
        for bs, share in self.BLOCKS:
            blocks += [bs] * (nops * share // 100)
        blocks += [self.BLOCKS[0][0]] * (nops - len(blocks))
        kinds = ["write", "read"] * (nops // 2) + ["write"] * (nops % 2)
        rng.shuffle(blocks)
        rng.shuffle(kinds)
        ops = []
        for kind, bs in zip(kinds, blocks):
            off = rng.randrange(fsize // bs) * bs
            src = rng.randrange(len(pool) - bs + 1)
            ops.append((kind, off, bs, src))
        return prefill, pool, ops

    def setup(self, seed: int):
        prefill, pool, ops = self.inputs(seed)
        fs = MgspFilesystem(device_size=self.size["device"], config=MgspConfig())
        handle = fs.create("fio.dat", capacity=len(prefill))
        # The figures' prefill: the file's content already exists on the
        # medium (a plain file), so it is stored directly, not logged.
        device, base, _cap = handle.mmap_view()
        chunk = MB
        for pos in range(0, len(prefill), chunk):
            device.store(base + pos, prefill[pos : pos + chunk])
        device.drain()
        fs.volume.set_size(handle.inode, len(prefill))
        fs.take_traces()
        return dict(
            fs=fs, handle=handle, shadow=bytearray(prefill), pool=pool, ops=ops
        )

    def measure(self, state) -> RoundResult:
        fs, handle, shadow, pool = state["fs"], state["handle"], state["shadow"], state["pool"]
        ops = state["ops"]
        dev_base = fs.device.stats.snapshot()
        api_base = fs.api.snapshot()
        op_s: List[float] = []
        traces: List[list] = []
        failures: List[str] = []
        clock = perf_counter
        start = clock()
        # An op is the API call(s) plus handing its cost traces over, as
        # the figures' FIO runner does after every op.
        for i, (kind, off, bs, src) in enumerate(ops):
            data = None
            payload = pool[src : src + bs]
            t0 = clock()
            try:
                if kind == "write":
                    handle.write(off, payload)
                    handle.fsync()
                else:
                    data = handle.read(off, bs)
            except Exception as exc:  # any raised error is a failed op
                failures.append(f"op {i}: {kind} [{off}, +{bs}) raised {exc!r}")
            traces.append(fs.take_traces())
            op_s.append(clock() - t0)
            if kind == "write":
                shadow[off : off + bs] = payload
            elif data is not None and data != shadow[off : off + bs]:
                failures.append(f"op {i}: read [{off}, +{bs}) differs from the shadow copy")
        wall = clock() - start

        lock_ns = fs.timing.lock_ns
        durations = [sum(t.duration_ns(lock_ns) for t in op) for op in traces]
        io_ns, compute_ns = _virt_split(t for op in traces for t in op)
        dev = fs.device.stats.delta(dev_base)
        api = fs.api.delta(api_base)
        total_bytes = api.bytes_written + api.bytes_read
        exact = {
            "virt_mb_s": (total_bytes / MB) / (sum(durations) * 1e-9),
            "virt_op_ns_p50": percentile(durations, 50),
            "virt_op_ns_p99": percentile(durations, 99),
            "write_amp": dev.stored_bytes / api.bytes_written,
            "sim.virt_io_ns": io_ns / len(ops),
            "sim.virt_compute_ns": compute_ns / len(ops),
            "virt_op_ns_digest": _digest(durations),
            "fsapi.api_bytes_written": api.bytes_written,
            "fsapi.api_bytes_read": api.bytes_read,
            "core.fast_hits": handle.fast_hits,
            "core.fast_misses": handle.fast_misses,
            "core.mst_hits": handle.mst_hits,
            "core.mst_misses": handle.mst_misses,
            "failures": len(failures),
        }
        exact.update(_device_counters("nvm.", dev))
        return RoundResult(
            wall_s=wall,
            op_s=op_s,
            other_s=[],
            attempted=len(ops),
            failed=len(failures),
            exact=exact,
            failures=failures,
        )


# --------------------------------------------------------------------------
# service-1000t
# --------------------------------------------------------------------------


class TimedDrr(DeficitRoundRobin):
    """The service's DRR queue, stamping the host clock each time it
    hands out a request and once when it runs dry: the gap between
    stamps is the host time the shard spent executing that request."""

    def __init__(self, quantum: int, marks: List[float]) -> None:
        super().__init__(quantum)
        self.marks = marks

    def drain(self):
        marks = self.marks
        for item in super().drain():
            marks.append(perf_counter())
            yield item
        marks.append(perf_counter())


class Service1000:
    """1000 tenants, open-loop virtual arrivals, 2 shards, defaults."""

    name = "service-1000t"
    SIZES = {
        "full": dict(tenants=1000, shards=2, ops=4, device=64 * MB, rounds=24, traced_rounds=3),
        "tiny": dict(tenants=12, shards=2, ops=4, device=8 * MB, rounds=2, traced_rounds=1),
    }
    BS = 1024
    READ_RATIO = 0.3
    MEAN_GAP_NS = 2_000.0

    def __init__(self, size: str = "full") -> None:
        self.size = self.SIZES[size]

    def setup(self, seed: int):
        size = self.size
        config = ServiceConfig(shards=size["shards"], device_size=size["device"])
        service = MgspService(config)
        marks = [[] for _ in range(config.shards)]
        service.schedulers = [TimedDrr(config.drr_quantum, m) for m in marks]
        names = [f"t{idx:04d}" for idx in range(size["tenants"])]
        for name in names:
            service.register(name)
        # Each tenant's file already holds data (a plain pre-existing
        # file, stored directly as the fio prefill is), so every read
        # moves real bytes instead of stopping at an empty file's end.
        content = random.Random(seed).randbytes(config.file_capacity)
        for session in service.sessions.values():
            device, base, _cap = session.handle.mmap_view()
            device.store(base, content)
        for fs in service.shards:
            fs.device.drain()
        for session in service.sessions.values():
            service.shards[session.shard].volume.set_size(session.handle.inode, len(content))
        for fs in service.shards:
            fs.take_traces()
        offered = []
        for idx, name in enumerate(names):
            for request in tenant_requests(
                idx,
                size["ops"],
                self.BS,
                config.file_capacity,
                seed,
                mean_gap_ns=self.MEAN_GAP_NS,
                read_ratio=self.READ_RATIO,
            ):
                offered.append((request.arrival_ns, idx, name, request))
        offered.sort(key=lambda item: (item[0], item[1]))
        return dict(service=service, offered=offered, marks=marks)

    def measure(self, state) -> RoundResult:
        service, offered, marks = state["service"], state["offered"], state["marks"]
        shards = service.shards
        dev_base = [fs.device.stats.snapshot() for fs in shards]
        api_base = [fs.api.snapshot() for fs in shards]
        failures: List[str] = []
        admitted_bytes = 0
        admitted = 0
        report = None
        with ReplayCapture() as capture:
            start = submitted = perf_counter()
            try:
                for _, _, name, request in offered:
                    if service.submit(name, request):
                        admitted += 1
                        admitted_bytes += request.nbytes
                submitted = perf_counter()
                report = service.run()
            except Exception as exc:  # a tenant error aborts the run
                failures.append(f"service run raised {exc!r}")
            end = perf_counter()

        op_s = [b - a for m in marks for a, b in zip(m, m[1:])]
        # submit phase, and run() outside the dispatches (replay, report)
        other_s = [submitted - start, end - submitted - sum(op_s)]
        errors = len(service.error_bundles)
        if report is None:
            return RoundResult(end - start, op_s, other_s, len(offered), len(offered),
                               {"aborted": True}, failures)

        rejected = report.rejected
        if report.admitted + report.rejected != len(offered):
            failures.append(
                f"admitted {report.admitted} + rejected {report.rejected} "
                f"!= offered {len(offered)}"
            )
        if report.admitted != admitted:
            failures.append(f"service admitted {report.admitted}, submit said {admitted}")
        if report.total_bytes != admitted_bytes:
            failures.append(
                f"bytes accounted {report.total_bytes} != bytes admitted {admitted_bytes}"
            )
        if len(op_s) != admitted:
            failures.append(f"{len(op_s)} requests dispatched, {admitted} admitted")
        api = [fs.api.delta(base) for fs, base in zip(shards, api_base)]
        api_written = sum(a.bytes_written for a in api)
        api_read = sum(a.bytes_read for a in api)
        sessions = list(service.sessions.values())
        if api_written != sum(s.bytes_written for s in sessions):
            failures.append("API bytes written disagree with per-tenant accounting")
        # The service books a read's requested size; the API returns
        # fewer bytes when the read runs past the tenant's end of file.
        short_read_bytes = sum(s.bytes_read for s in sessions) - api_read
        if short_read_bytes < 0:
            failures.append("API returned more read bytes than tenants requested")

        devs = [fs.device.stats.delta(base) for fs, base in zip(shards, dev_base)]
        dev = devs[0]
        for extra in devs[1:]:
            dev = type(dev)(**{k: getattr(dev, k) + getattr(extra, k) for k in vars(dev)})
        io_ns, compute_ns = _virt_split(t for s in sessions for t in s.traces)
        replays = capture.results
        threads = [t for r in replays for t in r.threads]
        exact = {
            # bytes the API really moved (not the service's own total,
            # which counts short reads at their requested size)
            "virt_mb_s": ((api_written + api_read) / MB) / (report.makespan_ns * 1e-9),
            "write_amp": dev.stored_bytes / api_written,
            "sim.virt_io_ns": io_ns / len(offered),
            "sim.virt_compute_ns": compute_ns / len(offered),
            "sim.replay.calls": len(replays),
            "sim.replay.channel_wait_ns": sum(t.lock_wait_ns for t in threads),
            "sim.replay.blocked_acquires": sum(t.blocked_acquires for t in threads),
            "sim.replay.makespan_ns": report.makespan_ns,
            "service.offered": len(offered),
            "service.admitted": report.admitted,
            "service.rejected": rejected,
            "service.errors": errors,
            "service.short_read_bytes": short_read_bytes,
            "fsapi.api_bytes_written": api_written,
            "fsapi.api_bytes_read": api_read,
            "core.fast_hits": sum(s.handle.fast_hits for s in sessions),
            "core.fast_misses": sum(s.handle.fast_misses for s in sessions),
            "core.mst_hits": sum(s.handle.mst_hits for s in sessions),
            "core.mst_misses": sum(s.handle.mst_misses for s in sessions),
            "failures": len(failures),
        }
        exact.update(_device_counters("nvm.", dev))
        return RoundResult(
            wall_s=end - start,
            op_s=op_s,
            other_s=other_s,
            attempted=len(offered),
            failed=rejected + errors + len(failures),
            exact=exact,
            failures=failures,
        )


# --------------------------------------------------------------------------
# crashsweep-all
# --------------------------------------------------------------------------


class CrashsweepAll:
    """The ``python -m repro.crashsweep`` matrix, point by point."""

    name = "crashsweep-all"
    SIZES = {
        # set-up is timed on more repetitions than the few rounds
        "full": dict(budget=8, rounds=4, traced_rounds=1, setups=12),
        "tiny": dict(budget=1, rounds=2, traced_rounds=1),
    }

    def __init__(self, size: str = "full") -> None:
        self.size = self.SIZES[size]

    def setup(self, seed: int):
        """Census every (workload, config) unit the sweep CLI schedules
        and sample its crash points (the sweep's enumeration step)."""
        plan = []
        for name in sorted(WORKLOADS):
            workload = WORKLOADS[name]
            for config in sorted(CONFIGS):
                if config not in workload.supported_configs:
                    continue
                census = sweep_census.take_census(workload, config)
                points = sweep_census.sample_points(census.events, self.size["budget"], seed)
                plan.append((workload, config, census, points))
        return dict(plan=plan, seed=seed)

    def measure(self, state) -> RoundResult:
        """Per point: re-run to the crash, then compose and check one
        image per policy -- the loop of
        :func:`repro.crashsweep.sweep.sweep_unit`, timed per point. The
        failure minimizer is not run: a failing image already fails the
        benchmark."""
        seed = state["seed"]
        policies = sweep_mod.POLICIES
        op_s: List[float] = []
        failures: List[str] = []
        attempted = failed = 0
        counters = dict(units=0, points=0, images=0, events=0, unfenced_words=0,
                        violations=0, unfired=0, parity_failures=0)
        per_unit = []
        clock = perf_counter
        start = clock()
        for workload, config, census, points in state["plan"]:
            counters["units"] += 1
            counters["events"] += census.events
            attempted += 1
            if not census.parity_ok:
                failed += 1
                counters["parity_failures"] += 1
                failures.append(
                    f"{workload.name}/{config}: census parity {census.events} != {census.derived}"
                )
            unit_violations = 0
            for point in points:
                t0 = clock()
                outcome = workload.run(config, nvm_crash.CrashPlan(point))
                verdicts = []
                if outcome.crashed:
                    device = outcome.fs.device
                    image_seed = sweep_mod.point_seed(seed, point)
                    for policy in policies:
                        image = nvm_crash.compose_image(
                            device, policy, seed=image_seed,
                            persist_probability=sweep_mod.PERSIST_PROBABILITY,
                        )
                        verdicts.append(
                            workload.check(image, config, outcome.oracles, idempotence=True)
                        )
                op_s.append(clock() - t0)
                counters["points"] += 1
                attempted += len(policies)
                if not outcome.crashed:
                    counters["unfired"] += 1
                    failed += len(policies)
                    failures.append(f"{workload.name}/{config}: point {point} never fired")
                    continue
                counters["images"] += len(verdicts)
                counters["unfenced_words"] += len(outcome.fs.device.unfenced_words())
                for policy, violations in zip(policies, verdicts):
                    if violations:
                        failed += 1
                        unit_violations += 1
                        failures.append(
                            f"{workload.name}/{config}: point {point} {policy.value}: "
                            f"{violations[0]}"
                        )
            counters["violations"] += unit_violations
            per_unit.append((workload.name, config, census.events, tuple(points), unit_violations))
        wall = clock() - start
        exact = {f"crashsweep.{k}": v for k, v in counters.items()}
        exact["crashsweep.unit_digest"] = _digest(per_unit)
        exact["failures"] = len(failures)
        return RoundResult(
            wall_s=wall,
            op_s=op_s,
            other_s=[],
            attempted=attempted,
            failed=failed,
            exact=exact,
            failures=failures,
        )


WORKLOAD_CLASSES = {cls.name: cls for cls in (FioMixed, Service1000, CrashsweepAll)}
