"""The simulated NVM DIMM: store buffer + traffic counters + crash hooks."""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import OutOfRangeError, TornWriteError
from repro.nvm.cache import StoreBuffer
from repro.nvm.crash import CrashPlan
from repro.nvm.timing import OptaneTiming, TimingModel


@dataclass
class DeviceStats:
    """Raw traffic counters, the ground truth for Table II.

    ``stored_bytes`` counts every byte handed to the device's write path
    (the paper's "write size received at the PMDK library").
    """

    stored_bytes: int = 0
    loaded_bytes: int = 0
    flushed_lines: int = 0
    #: clwb *calls* (one per flushed range, even when every covered line
    #: is clean) — the unit :meth:`CrashPlan.on_event` fires in, unlike
    #: ``flushed_lines`` which is a cost metric.
    flush_calls: int = 0
    fences: int = 0
    stores: int = 0
    loads: int = 0
    #: wasted persistence ops (perf diagnostics, not correctness):
    #: a clwb call that covered only clean lines, and an sfence issued
    #: with nothing pending — both cost Optane bandwidth/latency for no
    #: durability gain. Surfaced by ``repro.analysis`` reports.
    redundant_flushes: int = 0
    redundant_fences: int = 0

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(**vars(self))

    def delta(self, since: "DeviceStats") -> "DeviceStats":
        return DeviceStats(
            **{f.name: getattr(self, f.name) - getattr(since, f.name) for f in fields(self)}
        )


class DeviceObserver:
    """No-op base for entries of ``NvmDevice.observers``.

    The device publishes every persistence event to each observer, in
    attach order, right after the event is applied::

        on_event(index, kind, offset, length, detail)

    ``kind`` is ``"store"``, ``"flush"`` or ``"fence"``; ``detail`` is
    the store kind (``"store"``/``"nt"``/``"atomic"``) for a store, the
    number of lines queued for a flush, and ``None`` for a fence (whose
    offset and length are 0). ``index`` is the device's event index, so
    ``CrashPlan(crash_after=index)`` fires just before that event.
    ``on_drain`` follows :meth:`NvmDevice.drain`. The op and lock hooks
    are fed by :class:`repro.sim.trace.ObservedRecorder`.
    """

    def on_event(self, index: int, kind: str, offset: int, length: int, detail) -> None:
        pass

    def on_drain(self) -> None:
        pass

    def on_op_begin(self, name: str) -> None:
        pass

    def on_op_end(self, name: str) -> None:
        pass

    def on_lock(self, key, mode) -> None:
        pass

    def on_unlock(self, key) -> None:
        pass


class NvmDevice:
    """Byte-addressable persistent device with explicit persistence ops.

    A ``tracer`` (duck-typed, see :class:`repro.sim.trace.TraceRecorder`)
    may be attached; every media operation reports its cost segment so
    file-system code does not have to price device traffic by hand.

    Every store, clwb call and fence consumes one ``event_index`` (per
    element inside the vectorized entry points) and is published to the
    ``observers`` (see :class:`DeviceObserver`). :meth:`drain` resets
    the index, so after the post-setup drain it counts crash points
    exactly as :class:`CrashPlan` does.
    """

    def __init__(
        self,
        size: int,
        timing: Optional[TimingModel] = None,
        name: str = "pmem0",
        buffer: Optional[StoreBuffer] = None,
    ) -> None:
        self.size = size
        self.name = name
        self.timing = timing or OptaneTiming()
        self.buffer = StoreBuffer(size) if buffer is None else buffer
        self.stats = DeviceStats()
        self.tracer = None  # duck-typed: io_write / io_read / io_flush / io_fence
        self.observers: List[DeviceObserver] = []
        self.event_index = 0
        self.crash_plan: Optional[CrashPlan] = None

    def _publish(self, kind: str, offset: int, length: int, detail) -> None:
        """Send the event just applied (and counted) to every observer."""
        index = self.event_index - 1
        for observer in self.observers:
            observer.on_event(index, kind, offset, length, detail)

    # -- persistence primitives -------------------------------------------

    def store(self, offset: int, data: bytes) -> None:
        """Cached store: visible immediately, durable only after persist."""
        if self.crash_plan is not None:
            self.crash_plan.on_event("store")
        self.buffer.store(offset, data)
        self.stats.stores += 1
        self.stats.stored_bytes += len(data)
        self.event_index += 1
        if self.tracer is not None:
            self.tracer.io_cached(len(data))
        if self.observers:
            self._publish("store", offset, len(data), "store")

    def nt_store(self, offset: int, data: bytes) -> None:
        """Non-temporal store: bypasses the cache (store + clwb in one);
        still requires a fence to be ordered-durable."""
        if self.crash_plan is not None:
            self.crash_plan.on_event("store")
        # analysis: allow(unfenced-nt-store) -- this *is* the primitive; ordering is the caller's contract
        flushed = self.buffer.nt_store(offset, data)
        self.stats.stores += 1
        self.stats.stored_bytes += len(data)
        self.stats.flushed_lines += flushed
        self.event_index += 1
        if self.tracer is not None:
            self.tracer.io_write(len(data))
        if self.observers:
            self._publish("store", offset, len(data), "nt")

    # -- scatter-gather entry points ---------------------------------------
    #
    # MGSP batches two things: non-temporal data stores into its logs
    # (nt_store_v) and 8-byte metadata commits (store_word_v). One Python
    # call issues the whole list, but accounting stays per logical op:
    # every element counts exactly what the equivalent loop of single-op
    # calls would (stats, event indices, crash-plan events, tracer
    # segments), so the batching only removes interpreter overhead. Each
    # batch has two branches. With no crash plan armed and no observer
    # attached (both act per event, between elements) it makes one bulk
    # buffer call and then feeds a tracer the per-element segments in
    # order; a tracer only prices segments. Otherwise, and whenever the
    # bulk call rejects an element, it runs the single-op loop itself,
    # the one reference path: a crash fired inside the batch, or a bad
    # element, leaves the device exactly where the unbatched sequence
    # would.

    def nt_store_v(self, writes: Sequence[Tuple[int, bytes]]) -> None:
        """Vectorized :meth:`nt_store` of (offset, data) pairs.

        With no crash plan or observer attached the whole batch is one
        bulk buffer call, and a tracer then gets one ``io_write`` per
        element. The bulk call validates *before* mutating, so on a bad
        element we fall through to the :meth:`nt_store` loop: same
        prefix applied, same counters, same tracer segments, same
        exception.
        """
        if self.crash_plan is None and not self.observers:
            try:
                # analysis: allow(unfenced-nt-store) -- this *is* the primitive; ordering is the caller's contract
                total, lines = self.buffer.nt_store_v(writes)
            except OutOfRangeError:
                pass  # replay per-element below for exact partial state
            else:
                stats = self.stats
                stats.stores += len(writes)
                stats.stored_bytes += total
                stats.flushed_lines += lines
                self.event_index += len(writes)
                tracer = self.tracer
                if tracer is not None:
                    io_write = tracer.io_write
                    for _offset, data in writes:
                        io_write(len(data))
                return
        for offset, data in writes:
            self.nt_store(offset, data)

    def store_word_v(self, words: Sequence[Tuple[int, int]]) -> None:
        """Vectorized ``atomic_store_u64 + flush`` of (offset, value)
        pairs — the metadata-word commit pattern.

        With no crash plan or observer attached the pair is fused
        through the buffer's non-temporal word store: the net effect on
        working/dirty/pending/touched state, on DeviceStats and on the
        event index (two per word) is provably the same (the
        just-stored line is always dirty, so the flush always queues
        exactly that one line), and a tracer gets the two-step segments,
        ``io_cached(8)`` then ``io_flush(1)``, per word. The fused call
        validates *before* mutating, so on a bad word we fall through to
        the two-step loop: same prefix applied, same counters, same
        tracer segments, same exception.
        """
        if self.crash_plan is None and not self.observers:
            try:
                # analysis: allow(unfenced-nt-store) -- this *is* the primitive; ordering is the caller's contract
                self.buffer.nt_store_words(words)
            except (TornWriteError, OutOfRangeError):
                pass  # replay per-element below for exact partial state
            else:
                n = len(words)
                stats = self.stats
                stats.stores += n
                stats.stored_bytes += 8 * n
                stats.flushed_lines += n
                stats.flush_calls += n
                self.event_index += 2 * n
                tracer = self.tracer
                if tracer is not None:
                    io_cached = tracer.io_cached
                    io_flush = tracer.io_flush
                    for _ in range(n):
                        io_cached(8)
                        io_flush(1)
                return
        for offset, value in words:
            self.atomic_store_u64(offset, value)
            self.flush(offset, 8)

    def atomic_store_u64(self, offset: int, value: int) -> None:
        if self.crash_plan is not None:
            self.crash_plan.on_event("store")
        self.buffer.atomic_store_u64(offset, value)
        self.stats.stores += 1
        self.stats.stored_bytes += 8
        self.event_index += 1
        if self.tracer is not None:
            self.tracer.io_cached(8)
        if self.observers:
            self._publish("store", offset, 8, "atomic")

    def load(self, offset: int, length: int) -> bytes:
        data = self.buffer.load(offset, length)
        self.stats.loads += 1
        self.stats.loaded_bytes += length
        if self.tracer is not None:
            self.tracer.io_read(length)
        return data

    def load_u64(self, offset: int) -> int:
        return int.from_bytes(self.load(offset, 8), "little")

    def flush(self, offset: int, length: int) -> None:
        if self.crash_plan is not None:
            self.crash_plan.on_event("flush")
        self.stats.flush_calls += 1
        nlines = self.buffer.flush(offset, length)
        self.stats.flushed_lines += nlines
        if nlines == 0:
            self.stats.redundant_flushes += 1
        self.event_index += 1
        if self.tracer is not None:
            self.tracer.io_flush(nlines)
        if self.observers:
            self._publish("flush", offset, length, nlines)

    def fence(self) -> None:
        if self.crash_plan is not None:
            self.crash_plan.on_event("fence")
        if not self.buffer.has_pending():
            self.stats.redundant_fences += 1
        self.buffer.fence()
        self.stats.fences += 1
        self.event_index += 1
        if self.tracer is not None:
            self.tracer.io_fence()
        if self.observers:
            self._publish("fence", 0, 0, None)

    def persist(self, offset: int, length: int) -> None:
        """flush + fence of one range (pmem_persist)."""
        self.flush(offset, length)
        self.fence()

    # -- crash / recovery ---------------------------------------------------

    def crash_image(
        self,
        persist_words: Optional[Iterable[int]] = None,
        rng: Optional[random.Random] = None,
        persist_probability: float = 0.5,
    ) -> bytes:
        """A possible post-crash content of the medium (see StoreBuffer)."""
        return self.buffer.crash_image(persist_words, rng, persist_probability)

    def unfenced_words(self):
        return self.buffer.unfenced_words()

    def drain(self) -> None:
        """Orderly shutdown: everything written becomes durable."""
        self.buffer.drain()
        self.event_index = 0
        for observer in self.observers:
            observer.on_drain()

    @classmethod
    def from_image(
        cls, image: bytes, timing: Optional[TimingModel] = None, name: str = "pmem0"
    ) -> "NvmDevice":
        """Boot a device from a crash image (the recovered machine).

        The image is shared as the durable base, not copied (see
        :meth:`StoreBuffer.from_image`).
        """
        buffer = StoreBuffer.from_image(image)
        return cls(buffer.size, timing=timing, name=name, buffer=buffer)

    # -- derived accounting --------------------------------------------------

    def write_amplification(self, api_bytes: int, since: Optional[DeviceStats] = None) -> float:
        """Device bytes written / API bytes, optionally since a snapshot."""
        stats = self.stats if since is None else self.stats.delta(since)
        if api_bytes <= 0:
            return 0.0
        return stats.stored_bytes / api_bytes
