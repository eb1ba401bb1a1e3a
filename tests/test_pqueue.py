"""Functional tests for the durable lock-free MPSC queue (ISSUE 6).

Crash behavior lives in test_pqueue_crash.py; this file pins the
fair-weather API contract: format/reopen, FIFO order under out-of-order
producer commits, skip-marker handling, wrap-around slot reuse, and
recovery as an idempotent fixpoint on *clean* images.
"""

from __future__ import annotations

import pytest

from repro.db.pqueue import (
    HEADER_SIZE,
    PersistentQueue,
    QueueFormatError,
    QueueFullError,
)
from repro.nvm.device import NvmDevice

BASE = 4096
SIZE = 256 << 10


def fresh(nslots=8, payload_cap=48, sync=True):
    device = NvmDevice(SIZE)
    queue = PersistentQueue.format(device, BASE, nslots, payload_cap, sync=sync)
    return device, queue


class TestFormat:
    def test_format_then_reopen(self):
        device, _ = fresh()
        queue = PersistentQueue(device, BASE)
        assert queue.nslots == 8
        assert queue.payload_cap == 48
        assert queue.live_items() == []

    def test_open_unformatted_raises(self):
        device = NvmDevice(SIZE)
        with pytest.raises(QueueFormatError):
            PersistentQueue(device, BASE)

    def test_payload_cap_must_be_word_multiple(self):
        device = NvmDevice(SIZE)
        with pytest.raises(QueueFormatError):
            PersistentQueue.format(device, BASE, 8, 20)

    def test_oversized_payload_rejected(self):
        _, queue = fresh(payload_cap=16)
        with pytest.raises(QueueFormatError):
            queue.enqueue(b"x" * 17)


class TestFifo:
    def test_enqueue_dequeue_order(self):
        _, queue = fresh()
        for i in range(5):
            queue.enqueue(bytes([i]) * 8)
        assert [queue.dequeue() for _ in range(5)] == [bytes([i]) * 8 for i in range(5)]
        assert queue.dequeue() is None

    def test_out_of_order_commits_drain_in_seq_order(self):
        """MPSC: producer A reserves first but commits last; the consumer
        still sees A's item first (slot order is reservation order)."""
        _, queue = fresh()
        a = queue.enqueue_begin(b"a" * 8)
        b = queue.enqueue_begin(b"b" * 8)
        queue.enqueue_commit(b)
        # the head is reserved-but-uncommitted: the consumer must wait
        assert queue.dequeue() is None
        assert queue.live_items() == [b"b" * 8]
        queue.enqueue_commit(a)
        assert queue.dequeue() == b"a" * 8
        assert queue.dequeue() == b"b" * 8

    def test_full_queue_raises(self):
        _, queue = fresh(nslots=4)
        for i in range(4):
            queue.enqueue(bytes([i]) * 8)
        with pytest.raises(QueueFullError):
            queue.enqueue_begin(b"x" * 8)

    def test_wraparound_reuses_slots(self):
        _, queue = fresh(nslots=4)
        for round_ in range(5):  # 20 items through 4 slots
            for i in range(4):
                queue.enqueue(bytes([round_ * 4 + i]) * 8)
            for i in range(4):
                assert queue.dequeue() == bytes([round_ * 4 + i]) * 8

    def test_variable_payload_lengths(self):
        _, queue = fresh(payload_cap=48)
        payloads = [b"", b"x" * 7, b"y" * 48, b"z" * 13]
        for p in payloads:
            queue.enqueue(p)
        assert [queue.dequeue() for _ in payloads] == payloads


class TestRecoveryCleanImages:
    def test_recover_empty(self):
        device, _ = fresh()
        queue = PersistentQueue.recover(device, BASE)
        assert queue.live_items() == []
        assert queue.dequeue() is None

    def test_recover_preserves_live_items(self):
        device, queue = fresh()
        for i in range(6):
            queue.enqueue(bytes([i]) * 8)
        queue.dequeue()
        queue.dequeue()
        recovered = PersistentQueue.recover(device, BASE)
        assert recovered.live_items() == [bytes([i]) * 8 for i in range(2, 6)]

    def test_recover_skips_abandoned_reservation(self):
        """A begin with no commit is repaired with a skip marker and the
        later committed item still drains."""
        device, queue = fresh()
        queue.enqueue_begin(b"dead" * 2)  # never committed
        pending = queue.enqueue_begin(b"live" * 2)
        queue.enqueue_commit(pending)
        recovered = PersistentQueue.recover(device, BASE)
        assert recovered.live_items() == [b"live" * 2]
        assert recovered.dequeue() == b"live" * 2
        assert recovered.dequeue() is None

    def test_recover_is_idempotent_fixpoint(self):
        device, queue = fresh()
        queue.enqueue_begin(b"dead" * 2)
        queue.enqueue(b"live" * 2)
        PersistentQueue.recover(device, BASE)
        device.drain()
        first = device.buffer.snapshot_durable()
        PersistentQueue.recover(device, BASE)
        device.drain()
        assert device.buffer.snapshot_durable() == first

    def test_recovered_queue_keeps_working(self):
        """Sequence numbers continue past the recovered high-water mark
        (no stale-commit aliasing after reuse)."""
        device, queue = fresh(nslots=4)
        for i in range(3):
            queue.enqueue(bytes([i]) * 8)
        queue.dequeue()
        recovered = PersistentQueue.recover(device, BASE)
        recovered.enqueue(b"after" + b"\0" * 3)
        assert recovered.dequeue() == bytes([1]) * 8
        assert recovered.dequeue() == bytes([2]) * 8
        assert recovered.dequeue() == b"after" + b"\0" * 3

    def test_async_mode_ignores_stale_hints(self):
        """async mode never persists hints mid-run; recovery must rebuild
        cursors from the slots alone."""
        device, queue = fresh(sync=False)
        for i in range(5):
            queue.enqueue(bytes([i]) * 8)
        queue.dequeue()
        head_hint = device.buffer.load_u64(BASE + 24)
        assert head_hint == 1  # untouched since format
        recovered = PersistentQueue.recover(device, BASE, sync=False)
        assert recovered.live_items() == [bytes([i]) * 8 for i in range(1, 5)]

    def test_header_size_is_one_line(self):
        assert HEADER_SIZE == 64
