"""SplitFS-specific behaviour (strict mode, relink, staging)."""

from __future__ import annotations

import random

import pytest

from repro.errors import FsError
from repro.fs import Splitfs

CAP = 512 * 1024


@pytest.fixture
def split():
    fs = Splitfs(device_size=64 << 20)
    return fs, fs.create("s", CAP)


class TestStaging:
    def test_writes_stage_until_relink(self, split):
        fs, f = split
        fs.device.drain()
        f.write(0, b"staged")
        # Target file untouched before fsync.
        assert fs.device.buffer.load(f.inode.base, 6) == bytes(6)
        assert f.read(0, 6) == b"staged"  # reads merge staging
        f.fsync()
        assert fs.device.buffer.load(f.inode.base, 6) == b"staged"

    def test_relink_moves_no_data_through_the_api(self, split):
        """Relink is metadata-only: device stored_bytes barely grow."""
        fs, f = split
        f.write(0, b"x" * 64 * 1024)  # aligned: no CoW
        base = fs.device.stats.snapshot()
        f.fsync()
        delta = fs.device.stats.delta(base).stored_bytes
        assert delta < 2048  # just journal entries, not 64K of data

    def test_strict_mode_cow_amplifies_small_writes(self, split):
        fs, f = split
        fs.device.buffer.store(f.inode.base, bytes(CAP))
        fs.device.buffer.drain()
        fs.volume.set_size(f.inode, CAP)
        base = fs.device.stats.snapshot()
        f.write(100, b"k" * 512)  # sub-block: strict CoW
        delta = fs.device.stats.delta(base).stored_bytes
        assert delta >= 4096  # whole block copied into staging

    def test_aligned_writes_do_not_cow(self, split):
        fs, f = split
        base = fs.device.stats.snapshot()
        f.write(0, b"k" * 4096)
        delta = fs.device.stats.delta(base).stored_bytes
        assert delta < 4096 + 256

    def test_staging_reused_within_epoch(self, split):
        fs, f = split
        f.write(0, b"a" * 4096)
        in_use_after_first = fs.staging.in_use
        f.write(0, b"b" * 4096)  # same block, same staging slot
        assert fs.staging.in_use == in_use_after_first
        assert f.read(0, 4) == b"bbbb"

    def test_staging_reclaimed_at_relink(self, split):
        fs, f = split
        for i in range(16):
            f.write(i * 4096, b"z" * 4096)
        assert fs.staging.in_use > 0
        f.fsync()
        assert fs.staging.in_use == 0

    def test_mmap_view_guarded_while_staged(self, split):
        fs, f = split
        f.write(0, b"dirty")
        with pytest.raises(FsError):
            f.mmap_view()
        f.fsync()
        device, base, cap = f.mmap_view()
        assert cap == CAP

    def test_fuzz_with_periodic_relink(self, split):
        fs, f = split
        rng = random.Random(9)
        ref = bytearray(CAP)
        size = 0
        for i in range(150):
            off = rng.randrange(0, CAP - 1)
            ln = min(rng.choice([1, 300, 4096, 20000]), CAP - off)
            payload = bytes([rng.randrange(1, 256)]) * ln
            f.write(off, payload)
            ref[off : off + ln] = payload
            size = max(size, off + ln)
            if i % 11 == 0:
                f.fsync()
            roff = rng.randrange(0, size)
            rlen = min(5000, size - roff)
            assert f.read(roff, rlen) == bytes(ref[roff : roff + rlen]), i

    def test_relink_cost_scales_with_staged_blocks(self, split):
        """The paper's critique: frequent sync + many staged blocks =
        expensive relinks (metadata churn + TLB shootdowns)."""
        fs, f = split
        fs.take_traces()
        f.write(0, b"1" * 4096)
        f.fsync()
        one = sum(t.duration_ns(32) for t in fs.take_traces())
        for i in range(16):
            f.write(i * 4096, b"2" * 4096)
        f.fsync()
        many = sum(t.duration_ns(32) for t in fs.take_traces())
        assert many > 2 * one
