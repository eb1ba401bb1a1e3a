"""What each baseline promises (and doesn't) across a crash.

The paper's comparison table in prose: Ext4/Ext4-DAX lose or tear
unsynced data, Libnvmmio is atomic only at fsync boundaries, NOVA and
MGSP are atomic per operation. These tests pin the semantics the
simulated baselines implement.
"""

from __future__ import annotations

import random

import pytest

from repro.fs import Ext4, Ext4Dax, Libnvmmio, Nova
from repro.nvm.device import NvmDevice

CAP = 256 * 1024


def crash_image(fs, seed=1, p=0.5):
    return NvmDevice.from_image(
        bytes(fs.device.crash_image(rng=random.Random(seed), persist_probability=p))
    )


class TestExt4PageCache:
    def test_unsynced_data_fully_lost(self):
        fs = Ext4(device_size=64 << 20, mode="ordered")
        f = fs.create("x", CAP)
        fs.device.drain()
        f.write(0, b"volatile page cache")
        dev = crash_image(fs, p=1.0)  # even the kindest crash
        base = f.inode.base
        assert dev.buffer.load(base, 8) == b"\0" * 8

    def test_synced_data_survives(self):
        fs = Ext4(device_size=64 << 20, mode="ordered")
        f = fs.create("x", CAP)
        f.write(0, b"synced")
        f.fsync()
        dev = crash_image(fs, p=0.0)  # the harshest crash
        assert dev.buffer.load(f.inode.base, 6) == b"synced"


class TestExt4DaxTearing:
    def test_unsynced_write_can_tear_mid_buffer(self):
        """DAX writes go straight to media but without ordering: a crash
        can persist an arbitrary word subset — data *corruption*, not
        just loss (the reason 'metadata consistency' isn't enough)."""
        fs = Ext4Dax(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"A" * 256)
        f.fsync()
        f.write(0, b"B" * 256)
        words = fs.device.unfenced_words()
        half = words[: len(words) // 2]
        dev = NvmDevice.from_image(bytes(fs.device.crash_image(persist_words=half)))
        region = dev.buffer.load(f.inode.base, 256)
        assert b"A" in region and b"B" in region  # torn!


class TestLibnvmmioFsyncGranularity:
    def test_unsynced_redo_writes_lost_cleanly(self):
        """Redo epoch: unsynced data sits in logs; a crash loses it but
        never corrupts the file (old data intact)."""
        fs = Libnvmmio(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"OLD" * 1000)
        f.fsync()
        fs.device.drain()
        f.write(0, b"NEW" * 1000)  # logged, unsynced
        dev = crash_image(fs, p=0.0)
        base = f.inode.base
        assert dev.buffer.load(base, 3) == b"OLD"

    def test_synced_epoch_durable(self):
        fs = Libnvmmio(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"EPOCH")
        f.fsync()
        dev = crash_image(fs, p=0.0)
        assert dev.buffer.load(f.inode.base, 5) == b"EPOCH"

    def test_undo_epoch_writes_hit_file_before_sync(self):
        """The undo policy's trade-off: in-place writes are visible in
        the file immediately (fast reads) but a crash between syncs
        leaves NEW data without the log-based rollback our model omits
        — matching the 'atomicity only with fsync' characterization."""
        fs = Libnvmmio(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"base" * 1024)
        for _ in range(5):
            f.read(0, 64)
        f.fsync()  # epoch flips to undo
        assert f.epoch_policy == "undo"
        fs.device.drain()
        f.write(0, b"inplace!")
        dev = crash_image(fs, p=1.0)
        assert dev.buffer.load(f.inode.base, 8) == b"inplace!"


class TestNovaPerOpAtomicity:
    @pytest.mark.parametrize("persist_probability", [0.0, 1.0])
    def test_completed_writes_survive_without_fsync(self, persist_probability):
        fs = Nova(device_size=64 << 20)
        f = fs.create("x", CAP)
        fs.device.drain()
        f.write(0, b"durable-at-return" * 100)
        dev = crash_image(fs, p=persist_probability)
        remounted = Nova.remount(dev)
        f2 = remounted.open("x")
        assert f2.read(0, 17) == b"durable-at-return"

    def test_page_pointer_swing_is_atomic(self):
        """Overwrite a page, crash with nothing unfenced persisted: the
        page table must point at either the old or the new page image."""
        fs = Nova(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"1" * 4096)
        fs.device.drain()
        f.write(0, b"2" * 4096)
        dev = crash_image(fs, p=0.0)
        remounted = Nova.remount(dev)
        data = remounted.open("x").read(0, 4096)
        assert data in (b"1" * 4096, b"2" * 4096)
