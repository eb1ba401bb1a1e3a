"""Bulk fast-path gate audit (ISSUE 8): observers attached mid-run.

The two batched entry points, ``nt_store_v`` and ``store_word_v``, take a
bulk buffer path only when no crash plan is armed and no device observer
is attached (a tracer is fed per element after the bulk call); otherwise
they loop over their single-op primitives.  The gating contract is that the bulk path leaves
*identical device state* behind, so an observer attached between batched
ops — mid-run — sees an event/trace stream that could not distinguish
which path the earlier ops took.

Two suites:

- mid-run attach parity: run a randomized batched op sequence, attach a
  recording observer (and tracer) at an arbitrary point, and assert the
  post-attach indexed event stream, DeviceStats, unfenced-word candidates, and
  seeded crash image all match a device that ran the exact per-element
  loop throughout (forced by a no-op ``DeviceObserver``; a tracer alone
  keeps the bulk path).
- error-path parity (the bug this issue fixed): a ``store_word_v``
  batch failing mid-way used to leave the applied prefix *uncounted* in
  ``DeviceStats`` on the fused path — the per-element loop counts it —
  so anything reading stats deltas afterwards (obs attribution, write
  amplification, bench exports) diverged based on whether an observer
  happened to be attached. The same check for ``nt_store_v`` lives in
  ``test_devicecore_parity.TestRecorderBulkParity``.

The bulk path advances the device's event index by the batch's event
count, so the indices an observer sees after a mid-run attach are the
same on both paths.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import OutOfRangeError, TornWriteError
from repro.nvm.device import DeviceObserver, NvmDevice
from tests.conftest import RecordingObserver

SIZE = 1 << 16


def _gen_ops(rng, n):
    ops = []
    for _ in range(n):
        kind = rng.choice(["store", "nt_store_v", "store_word_v", "fence", "flush"])
        if kind == "nt_store_v":
            writes = [
                (
                    rng.randrange(0, SIZE - 256),
                    bytes([rng.randrange(256)]) * rng.choice([0, 1, 8, 13, 64, 200]),
                )
                for _ in range(rng.randint(1, 5))
            ]
            ops.append((kind, writes))
        elif kind == "store":
            data = bytes([rng.randrange(256)]) * rng.choice([1, 8, 13, 64, 200])
            ops.append((kind, (rng.randrange(0, SIZE - 256), data)))
        elif kind == "store_word_v":
            ops.append(
                (
                    kind,
                    [
                        (rng.randrange(0, SIZE // 8 - 1) * 8, rng.randrange(1 << 32))
                        for _ in range(rng.randint(1, 4))
                    ],
                )
            )
        elif kind == "fence":
            ops.append((kind, None))
        else:
            ops.append((kind, (rng.randrange(0, SIZE - 256), rng.choice([8, 64, 256]))))
    return ops


def _apply(device, op):
    kind, arg = op
    if kind == "fence":
        device.fence()
    elif kind in ("store", "flush"):
        getattr(device, kind)(*arg)
    else:
        getattr(device, kind)(arg)


@pytest.mark.parametrize("seed", range(30))
def test_midrun_tap_attach_event_parity(seed):
    """An observer attached between batched ops sees the same indexed
    events, stats, and crash-image candidates whether the earlier ops
    took the bulk path or the per-element loop."""
    rng = random.Random(seed)
    ops = _gen_ops(rng, 40)
    attach_at = rng.randrange(0, len(ops))

    bulk = NvmDevice(SIZE)  # bulk fast path until attach
    slow = NvmDevice(SIZE)
    slow.observers.append(DeviceObserver())  # per-element loop throughout
    observers = (RecordingObserver(), RecordingObserver())

    for i, op in enumerate(ops):
        if i == attach_at:
            bulk.observers.append(observers[0])
            slow.observers.append(observers[1])
        _apply(bulk, op)
        _apply(slow, op)

    assert observers[0].events == observers[1].events
    assert bulk.event_index == slow.event_index
    assert vars(bulk.stats) == vars(slow.stats)
    assert bulk.unfenced_words() == slow.unfenced_words()
    assert bulk.crash_image(rng=random.Random(7)) == slow.crash_image(rng=random.Random(7))


@pytest.mark.parametrize("seed", range(10))
def test_midrun_tracer_attach_segment_parity(seed):
    """Same as above for a tracer attached mid-run: identical post-attach
    cost segments regardless of which path the prefix took."""
    rng = random.Random(1000 + seed)
    ops = _gen_ops(rng, 30)
    attach_at = rng.randrange(0, len(ops))

    bulk = NvmDevice(SIZE)
    slow = NvmDevice(SIZE)
    slow.observers.append(RecordingObserver())  # any observer forces per-element
    tracers = (RecordingObserver(), RecordingObserver())

    for i, op in enumerate(ops):
        if i == attach_at:
            bulk.tracer, slow.tracer = tracers
        _apply(bulk, op)
        _apply(slow, op)

    assert tracers[0].segments == tracers[1].segments
    assert vars(bulk.stats) == vars(slow.stats)


@pytest.mark.parametrize(
    "words, exc",
    [
        ([(0, 1), (64, 2), (130, 3), (192, 4)], TornWriteError),  # unaligned mid-batch
        ([(0, 1), (SIZE - 8, 2), (SIZE, 3)], OutOfRangeError),  # out of range at end
        ([(3, 1)], TornWriteError),  # first word already bad
    ],
)
def test_store_word_v_error_path_parity(words, exc):
    """Regression (ISSUE 8): a store_word_v batch failing mid-way must
    leave identical DeviceStats and buffer state on both paths.  The
    fused path used to apply the prefix to the medium but commit *no*
    stats, so an observer or tracer attached after the failure read diverging
    counters depending on the pre-attach path."""
    bulk = NvmDevice(SIZE)
    slow = NvmDevice(SIZE)
    slow.observers.append(DeviceObserver())

    for device in (bulk, slow):
        with pytest.raises(exc):
            device.store_word_v(words)

    assert vars(bulk.stats) == vars(slow.stats)
    assert bulk.buffer.snapshot_working() == slow.buffer.snapshot_working()
    assert bulk.buffer._pending_log == slow.buffer._pending_log
    assert bulk.unfenced_words() == slow.unfenced_words()

    # an observer attached after the failed batch sees identical follow-on events
    observers = (RecordingObserver(), RecordingObserver())
    bulk.observers.append(observers[0])
    slow.observers.append(observers[1])
    for device in (bulk, slow):
        device.store_word_v([(256, 9)])
        device.fence()
    assert observers[0].events == observers[1].events
    assert vars(bulk.stats) == vars(slow.stats)
