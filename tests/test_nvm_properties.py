"""Property-based tests of the persistence semantics themselves.

These pin down the store-buffer model that every crash-consistency
argument in the repository rests on.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.cache import StoreBuffer
from repro.nvm.crash import CrashPolicy, compose_image
from repro.nvm.device import NvmDevice
from repro.util import CACHE_LINE

SIZE = 1 << 14

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("store"),
            st.integers(0, SIZE - 64),
            st.binary(min_size=1, max_size=64),
        ),
        st.tuples(st.just("flush"), st.integers(0, SIZE - 64), st.integers(1, 64)),
        st.tuples(st.just("fence")),
        st.tuples(st.just("persist"), st.integers(0, SIZE - 64), st.integers(1, 64)),
    ),
    max_size=40,
)


def apply_ops(buf: StoreBuffer, operations) -> None:
    for op in operations:
        if op[0] == "store":
            buf.store(op[1], op[2])
        elif op[0] == "flush":
            buf.flush(op[1], op[2])
        elif op[0] == "fence":
            buf.fence()
        elif op[0] == "persist":
            buf.persist(op[1], op[2])


@settings(max_examples=60, deadline=None)
@given(ops)
def test_loads_always_see_program_order(operations):
    """The working image equals a flat replay of all stores."""
    buf = StoreBuffer(SIZE)
    model = bytearray(SIZE)
    for op in operations:
        if op[0] == "store":
            buf.store(op[1], op[2])
            model[op[1] : op[1] + len(op[2])] = op[2]
        elif op[0] == "flush":
            buf.flush(op[1], op[2])
        elif op[0] == "fence":
            buf.fence()
        elif op[0] == "persist":
            buf.persist(op[1], op[2])
    assert buf.load(0, SIZE) == bytes(model)


@settings(max_examples=60, deadline=None)
@given(ops, st.integers(0, 2**31))
def test_crash_image_between_durable_and_working(operations, seed):
    """Every crash image I satisfies durable <= I <= working, word-wise:
    each 8-byte word of I equals either the durable or working copy."""
    buf = StoreBuffer(SIZE)
    apply_ops(buf, operations)
    image = buf.crash_image(rng=random.Random(seed))
    durable = buf.snapshot_durable()
    working = buf.snapshot_working()
    for off in range(0, SIZE, 8):
        word = bytes(image[off : off + 8])
        assert word in (durable[off : off + 8], working[off : off + 8]), off


@settings(max_examples=60, deadline=None)
@given(ops)
def test_fence_after_flush_all_makes_everything_durable(operations):
    buf = StoreBuffer(SIZE)
    apply_ops(buf, operations)
    buf.flush(0, SIZE)
    buf.fence()
    assert buf.snapshot_durable() == buf.snapshot_working()
    assert buf.unfenced_words() == []


@settings(max_examples=60, deadline=None)
@given(ops)
def test_drop_all_image_equals_durable(operations):
    buf = StoreBuffer(SIZE)
    apply_ops(buf, operations)
    assert bytes(buf.crash_image(persist_words=[])) == buf.snapshot_durable()


@settings(max_examples=60, deadline=None)
@given(ops)
def test_keep_all_image_equals_working_on_unfenced_words(operations):
    buf = StoreBuffer(SIZE)
    apply_ops(buf, operations)
    image = buf.crash_image(persist_words=buf.unfenced_words())
    for off in buf.unfenced_words():
        assert bytes(image[off : off + 8]) == buf.load(off, 8)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, SIZE - 256),
    st.binary(min_size=1, max_size=200),
    st.integers(0, 2**31),
)
def test_persisted_region_survives_any_crash(offset, data, seed):
    buf = StoreBuffer(SIZE)
    buf.store(offset, data)
    buf.persist(offset, len(data))
    # Scribble elsewhere without persisting.
    buf.store((offset + 4096) % (SIZE - 256), b"junk")
    image = buf.crash_image(rng=random.Random(seed))
    assert bytes(image[offset : offset + len(data)]) == data


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, SIZE // CACHE_LINE - 1), min_size=1, max_size=10))
def test_flush_is_idempotent_per_line(lines):
    buf = StoreBuffer(SIZE)
    for line in lines:
        buf.store(line * CACHE_LINE, b"\xaa" * CACHE_LINE)
    total = 0
    for line in lines:
        total += buf.flush(line * CACHE_LINE, CACHE_LINE)
    assert total == len(set(lines))  # second flush of a line is free
    assert buf.flush(0, SIZE) == 0 or set(lines) != set(range(SIZE // CACHE_LINE))


# -- copy-on-write round trips -----------------------------------------------
#
# The durable image is a base (zero page or booted image) under a page
# overlay, and drain copies only touched runs. Every composed image,
# every boot and every drain must agree with the flat semantics: the
# durable snapshot is the DROP_ALL image, the incremental unfenced-word
# tracker matches a full re-scan, and a booted device starts with
# working == durable == image and nothing unfenced.

device_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, SIZE - 64), st.binary(min_size=1, max_size=64)),
        # multi-page stores, straddling page borders
        st.tuples(st.just("fill"), st.integers(0, SIZE - 6000), st.integers(1, 6000), st.integers(0, 255)),
        st.tuples(st.just("nt"), st.integers(0, SIZE - 64), st.binary(min_size=1, max_size=64)),
        st.tuples(st.just("word"), st.integers(0, SIZE // 8 - 1), st.integers(0, 2**64 - 1)),
        st.tuples(st.just("flush"), st.integers(0, SIZE - 64), st.integers(1, 6000)),
        st.tuples(st.just("fence")),
    ),
    max_size=30,
)


def apply_device_ops(device: NvmDevice, operations) -> None:
    for op in operations:
        if op[0] == "store":
            device.store(op[1], op[2])
        elif op[0] == "fill":
            device.store(op[1], bytes([op[3]]) * op[2])
        elif op[0] == "nt":
            device.nt_store(op[1], op[2])
        elif op[0] == "word":
            device.atomic_store_u64(op[1] * 8, op[2])
        elif op[0] == "flush":
            device.flush(op[1], min(op[2], SIZE - op[1]))
        else:
            device.fence()


def check_consistent(device: NvmDevice) -> None:
    buf = device.buffer
    assert buf.snapshot_durable() == compose_image(device, CrashPolicy.DROP_ALL)
    assert buf.unfenced_words() == buf._unfenced_words_full_scan()


def check_booted(device: NvmDevice, image: bytes) -> None:
    assert device.buffer.snapshot_working() == image
    assert device.buffer.snapshot_durable() == image
    assert device.unfenced_words() == []


def check_drained(device: NvmDevice) -> None:
    check_consistent(device)
    working = device.buffer.snapshot_working()
    assert device.buffer.snapshot_durable() == working
    check_booted(NvmDevice.from_image(device.buffer.snapshot_durable()), working)


@settings(max_examples=60, deadline=None)
@given(device_ops, device_ops, st.integers(0, 2**31))
def test_compose_boot_drain_round_trip(first, second, seed):
    device = NvmDevice(SIZE)
    apply_device_ops(device, first)
    check_consistent(device)
    for policy in CrashPolicy:
        image = compose_image(device, policy, seed=seed)
        booted = NvmDevice.from_image(image)
        check_booted(booted, image)
        apply_device_ops(booted, second)
        check_consistent(booted)
        # The same ops drained before anything reads the buffer's
        # lazily kept state.
        drained = NvmDevice.from_image(image)
        apply_device_ops(drained, second)
        drained.drain()
        assert drained.buffer.snapshot_working() == booted.buffer.snapshot_working()
        check_drained(drained)
    fresh = NvmDevice(SIZE)
    apply_device_ops(fresh, first)
    fresh.drain()
    check_drained(fresh)
