"""Array-native device core: bulk ``_v`` paths vs the op-by-op loop.

The bulk buffer paths (ISSUE 7) must be *invisible*: identical
``DeviceStats``, identical tracer cost segments, identical indexed
observer event sequences, identical buffer state — including when a crash plan
fires mid-batch — and identical crash-image candidate order, so seeded
``choose_persist_words`` draws the same subset on either core.

A tracer does not force the per-element loop (only an observer or an
armed crash plan does), so ``TestRecorderBulkParity`` runs a real
:class:`TraceRecorder` on the bulk path against one whose device has a
no-op observer attached, including batches that fail mid-way.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CrashRequested, OutOfRangeError, TornWriteError
from repro.nvm.crash import CrashPlan
from repro.nvm.device import DeviceObserver, NvmDevice
from repro.nvm.timing import OptaneTiming
from repro.sim.trace import TraceRecorder
from tests.conftest import RecordingObserver

SIZE = 1 << 18


def full_stats(device):
    return tuple(sorted(vars(device.stats).items()))


def buffer_state(device):
    buf = device.buffer
    return (
        buf.snapshot_working(),
        buf.snapshot_durable(),
        buf.unfenced_words(),
        buf.has_pending(),
    )


# Op batches: each entry is (kind, payload list) applied via one _v call
# on the batched device and an op-by-op loop on the reference device.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("store_v"),
            st.lists(
                st.tuples(st.integers(0, SIZE - 256), st.integers(1, 200)),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(
            st.just("nt_store_v"),
            st.lists(
                st.tuples(st.integers(0, SIZE - 256), st.integers(1, 200)),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(
            st.just("flush_v"),
            st.lists(
                st.tuples(st.integers(0, SIZE - 256), st.integers(1, 200)),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(
            st.just("store_word_v"),
            st.lists(
                st.tuples(
                    st.integers(0, SIZE // 8 - 1).map(lambda word: word * 8),
                    st.integers(0, (1 << 64) - 1),
                ),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(st.just("fence"), st.just([])),
    ),
    min_size=1,
    max_size=12,
)


def payload_for(offset, length, salt):
    rng = random.Random(offset * 1_000_003 + length * 97 + salt)
    return rng.randbytes(length)


def apply_batched(device, ops):
    for i, (kind, items) in enumerate(ops):
        if kind == "store_v":
            device.store_v([(off, payload_for(off, ln, i)) for off, ln in items])
        elif kind == "nt_store_v":
            device.nt_store_v([(off, payload_for(off, ln, i)) for off, ln in items])
        elif kind == "flush_v":
            device.flush_v(items)
        elif kind == "store_word_v":
            device.store_word_v(items)
        else:
            device.fence()


def apply_op_by_op(device, ops):
    for i, (kind, items) in enumerate(ops):
        if kind == "store_v":
            for off, ln in items:
                device.store(off, payload_for(off, ln, i))
        elif kind == "nt_store_v":
            for off, ln in items:
                device.nt_store(off, payload_for(off, ln, i))
        elif kind == "flush_v":
            for off, ln in items:
                device.flush(off, ln)
        elif kind == "store_word_v":
            for off, value in items:
                device.atomic_store_u64(off, value)
                device.flush(off, 8)
        else:
            device.fence()


class TestBulkPathParity:
    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_stats_state_and_crash_candidates_match(self, ops):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        apply_batched(batched, ops)
        apply_op_by_op(reference, ops)
        assert full_stats(batched) == full_stats(reference)
        assert buffer_state(batched) == buffer_state(reference)
        # Same candidates in the same order -> same seeded crash image.
        image_b = batched.crash_image(rng=random.Random(7))
        image_r = reference.crash_image(rng=random.Random(7))
        assert bytes(image_b) == bytes(image_r)

    @given(ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_candidate_order_is_ascending_and_complete(self, ops):
        device = NvmDevice(SIZE)
        apply_batched(device, ops)
        words = device.unfenced_words()
        assert words == sorted(words)
        assert len(words) == len(set(words))
        assert words == device.buffer._unfenced_words_full_scan()

    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_tracer_segments_match(self, ops):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        batched.tracer = RecordingObserver()
        reference.tracer = RecordingObserver()
        apply_batched(batched, ops)
        apply_op_by_op(reference, ops)
        assert batched.tracer.segments == reference.tracer.segments
        assert full_stats(batched) == full_stats(reference)

    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_observer_events_match(self, ops):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        batched_obs, reference_obs = RecordingObserver(), RecordingObserver()
        batched.observers.append(batched_obs)
        reference.observers.append(reference_obs)
        apply_batched(batched, ops)
        apply_op_by_op(reference, ops)
        assert batched_obs.events == reference_obs.events
        assert [e[0] for e in batched_obs.events] == list(range(batched.event_index))
        assert full_stats(batched) == full_stats(reference)


class TestPartialBatchCrashParity:
    @given(ops_strategy, st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_mid_batch_crash_leaves_identical_state(self, ops, crash_after):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        batched.crash_plan = CrashPlan(crash_after)
        reference.crash_plan = CrashPlan(crash_after)
        fired_b = fired_r = False
        try:
            apply_batched(batched, ops)
        except CrashRequested:
            fired_b = True
        try:
            apply_op_by_op(reference, ops)
        except CrashRequested:
            fired_r = True
        assert fired_b == fired_r
        assert full_stats(batched) == full_stats(reference)
        assert buffer_state(batched) == buffer_state(reference)
        image_b = batched.crash_image(rng=random.Random(11))
        image_r = reference.crash_image(rng=random.Random(11))
        assert bytes(image_b) == bytes(image_r)


class TestBulkErrorParity:
    """A bad element mid-batch must leave the same partial state and the
    same exception as the op-by-op loop (the bulk path validates first
    and falls back)."""

    def test_store_v_partial_application(self):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        writes = [(0, b"a" * 64), (128, b"b" * 64), (SIZE - 8, b"c" * 64)]
        with pytest.raises(OutOfRangeError):
            batched.store_v(writes)
        for off, data in writes[:2]:
            reference.store(off, data)
        with pytest.raises(OutOfRangeError):
            reference.store(*writes[2])
        assert full_stats(batched) == full_stats(reference)
        assert buffer_state(batched) == buffer_state(reference)

    def test_nt_store_v_partial_application(self):
        batched = NvmDevice(SIZE)
        reference = NvmDevice(SIZE)
        writes = [(0, b"a" * 64), (SIZE - 8, b"c" * 64), (128, b"b" * 64)]
        with pytest.raises(OutOfRangeError):
            batched.nt_store_v(writes)
        reference.nt_store(*writes[0])
        with pytest.raises(OutOfRangeError):
            reference.nt_store(*writes[1])
        assert full_stats(batched) == full_stats(reference)
        assert buffer_state(batched) == buffer_state(reference)


def traced_pair(enabled):
    """A device whose recorder rides the bulk path, and a reference whose
    no-op observer forces the per-element loop under the same recorder."""
    devices = []
    for observed in (False, True):
        device = NvmDevice(SIZE)
        device.tracer = TraceRecorder(OptaneTiming())
        device.tracer.enabled = enabled
        if observed:
            device.observers.append(DeviceObserver())
        devices.append(device)
    return devices


def traced_state(device):
    recorder = device.tracer
    return (
        recorder.take_completed(),
        recorder.clock_ns,
        full_stats(device),
        device.event_index,
        buffer_state(device),
    )


def apply_batched_in_ops(device, ops):
    """:func:`apply_batched`, one recorder op per batch."""
    for i, op in enumerate(ops):
        device.tracer.begin_op(f"{op[0]}-{i}")
        apply_batched(device, [op])
        device.tracer.end_op()


#: (offset, data) pairs whose third element runs past the device end
BAD_THIRD_STORE = [(0, b"a" * 64), (128, b"b" * 70), (SIZE - 8, b"c" * 64), (512, b"d")]


class TestRecorderBulkParity:
    @pytest.mark.parametrize("enabled", [True, False])
    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_recorder_on_bulk_path_matches_per_element(self, enabled, ops):
        bulk, reference = traced_pair(enabled)
        apply_batched_in_ops(bulk, ops)
        apply_batched_in_ops(reference, ops)
        assert traced_state(bulk) == traced_state(reference)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "kind, items, exc, prefix_segments",
        [
            ("store_v", BAD_THIRD_STORE, OutOfRangeError, 2),
            ("nt_store_v", BAD_THIRD_STORE, OutOfRangeError, 2),
            ("store_word_v", [(0, 1), (64, 2), (130, 3), (192, 4)], TornWriteError, 4),
            ("store_word_v", [(0, 1), (SIZE - 8, 2), (SIZE, 3), (64, 4)], OutOfRangeError, 4),
        ],
    )
    def test_mid_batch_error_matches_per_element(self, enabled, kind, items, exc, prefix_segments):
        """A bad element mid-batch: same exception, same prefix segments
        and the same end state, with a recorder on the bulk path."""
        bulk, reference = traced_pair(enabled)
        errors = []
        for device in (bulk, reference):
            device.store(4096, b"p" * 64)  # an earlier segment and a dirty line
            device.tracer.begin_op("failing")
            with pytest.raises(exc) as raised:
                getattr(device, kind)(items)
            device.tracer.end_op()
            errors.append(str(raised.value))
            device.flush_v([(4096, 64), (0, 256)])
            device.fence()
        assert errors[0] == errors[1]
        state = traced_state(bulk)
        assert state == traced_state(reference)
        failing = next(trace for trace in state[0] if trace.name == "failing")
        assert len(failing.segments) == (prefix_segments if enabled else 0)
