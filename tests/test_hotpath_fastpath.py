"""Leaf fast path: invalidation edges, slow-vs-fast differential, and
the incremental unfenced-word tracker.

The fast path (``MgspConfig.leaf_fast_path``, on by default) replays a
cached root->leaf chain instead of descending for writes fully contained
in one leaf. These tests pin down the cases where the cache must NOT be
trusted — height growth, checkpoint/epoch bumps, open transactions — and
assert the planner is observably identical to the generic descent.
"""

from __future__ import annotations

import random

import pytest

from repro.core import MgspConfig, MgspFilesystem
from repro.errors import TransactionError
from repro.nvm.cache import StoreBuffer
from repro.sim.trace import NullRecorder

CAP = 4 << 20


def make_fs(**kwargs):
    fs = MgspFilesystem(device_size=32 << 20, config=MgspConfig(**kwargs))
    handle = fs.create("f", capacity=CAP)
    fs.device.drain()
    return fs, handle


# ---------------------------------------------------------------- invalidation


def test_fast_path_survives_height_growth_mid_stream():
    fs, f = make_fs()
    f.write(0, b"a" * 64)  # small tree, chain cached
    hits_before = f.fast_hits
    f.write(0, b"b" * 64)
    assert f.fast_hits > hits_before  # second write hits the cache
    old_height = f.tree.height
    # Force the tree to grow: write past the currently covered range.
    far = (CAP // 2) + 4096
    f.write(far, b"c" * 64)
    assert f.tree.height >= old_height
    # The cached chain for leaf 0 predates the growth; the next write
    # must rebuild it (a stale chain would miss the new root).
    f.write(0, b"d" * 64)
    assert f.read(0, 64) == b"d" * 64
    assert f.read(far, 64) == b"c" * 64


def test_fast_path_invalidated_by_checkpoint_between_writes():
    fs, f = make_fs()
    f.write(4096, b"x" * 4096)
    misses_before = f.fast_misses
    f.checkpoint()  # bumps tree.epoch (node set rebuilt / logs retired)
    f.write(4096, b"y" * 4096)
    assert f.fast_misses > misses_before  # epoch change forced a rebuild
    assert f.read(4096, 4096) == b"y" * 4096


def test_fast_path_refused_during_open_transaction():
    fs, f = make_fs()
    f.write(0, b"base" * 16)
    txn = fs.begin_transaction(f)
    txn.write(0, b"Z" * 64)
    # Plain writes (fast path included) must refuse while a txn is open.
    with pytest.raises(TransactionError):
        f.write(64, b"nope")
    txn.commit()
    assert f.read(0, 64) == b"Z" * 64
    # After commit the plain path works again.
    f.write(64, b"ok" * 32)
    assert f.read(64, 64) == b"ok" * 32


def test_fast_path_read_after_write_identical_bytes():
    fs, f = make_fs()
    rng = random.Random(11)
    shadow = bytearray(CAP)
    for i in range(300):
        size = rng.choice([8, 64, 128, 512, 4096])
        off = rng.randrange(0, CAP - size)
        payload = bytes([(i + j) % 251 for j in range(size)])
        f.write(off, payload)
        shadow[off : off + size] = payload
        if i % 50 == 17:
            f.checkpoint()
    assert f.read(0, CAP).ljust(CAP, b"\0") == bytes(shadow)


# ---------------------------------------------------------------- differential


def _run_sequence(fast_path: bool, detach_tracer: bool):
    fs, f = make_fs(leaf_fast_path=fast_path)
    if detach_tracer:
        fs.recorder = NullRecorder()
        fs.device.tracer = None
    rng = random.Random(99)
    for i in range(250):
        size = rng.choice([8, 64, 100, 128, 2048, 4096, 6000])
        off = rng.randrange(0, CAP - size)
        f.write(off, bytes([(i * 3 + j) % 251 for j in range(size)]))
        if i % 83 == 5:
            f.checkpoint()
    image = fs.device.buffer.snapshot_working()
    durable = fs.device.buffer.snapshot_durable()
    stats = vars(fs.device.stats).copy()
    return image, durable, stats


@pytest.mark.parametrize("detach_tracer", [False, True])
def test_fast_and_slow_planner_differential(detach_tracer):
    """Same randomized sequence through both planners: identical device
    images AND identical DeviceStats (write amplification unchanged) —
    with the recorder attached as the device tracer and detached. Both
    take the bulk device paths; the recorder is fed per element."""
    fast = _run_sequence(True, detach_tracer)
    slow = _run_sequence(False, detach_tracer)
    assert fast[0] == slow[0]  # working image
    assert fast[1] == slow[1]  # durable image
    assert fast[2] == slow[2]  # DeviceStats


# ------------------------------------------------- unfenced-word tracker


def test_unfenced_words_matches_full_scan():
    """The incremental (touched-range + memo) tracker must report the
    exact word set of the reference full dirty/pending re-walk."""
    buf = StoreBuffer(1 << 16)
    rng = random.Random(3)
    for step in range(400):
        op = rng.randrange(6)
        if op == 0:
            off = rng.randrange(0, (1 << 16) - 256)
            buf.store(off, bytes([rng.randrange(256)]) * rng.choice([1, 8, 96]))
        elif op == 1:
            off = rng.randrange(0, (1 << 16) - 256)
            buf.nt_store(off, bytes([rng.randrange(256)]) * rng.choice([8, 64, 200]))
        elif op == 2:
            buf.nt_store_words([(rng.randrange(0, (1 << 16) // 8) * 8, rng.getrandbits(64))])
        elif op == 3:
            off = rng.randrange(0, (1 << 16) - 512)
            buf.flush(off, rng.choice([8, 64, 512]))
        elif op == 4:
            buf.fence()
        else:
            words = [
                (rng.randrange(0, (1 << 16) // 8) * 8, rng.getrandbits(64))
                for _ in range(rng.randrange(1, 5))
            ]
            buf.nt_store_words(words)
        assert buf.unfenced_words() == buf._unfenced_words_full_scan(), f"step {step}"
    buf.drain()
    assert buf.unfenced_words() == [] == buf._unfenced_words_full_scan()


def test_unfenced_words_memo_invalidated_by_mutation():
    buf = StoreBuffer(4096)
    buf.nt_store(0, b"\xff" * 8)
    first = buf.unfenced_words()
    assert first == [0]
    assert buf.unfenced_words() == first  # memo hit, same answer
    buf.nt_store(64, b"\xee" * 8)
    assert buf.unfenced_words() == [0, 64]  # memo dropped on store
    buf.fence()
    assert buf.unfenced_words() == []
