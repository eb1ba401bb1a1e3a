"""Behaviors specific to each baseline file system."""

from __future__ import annotations

import random

import pytest

from repro.errors import FsError
from repro.fs import Ext4, Ext4Dax, Libnvmmio, Nova
from repro.fs.nova import PAGE
from repro.nvm.device import NvmDevice

CAP = 128 * 1024


class TestExt4Dax:
    def test_unsynced_write_may_be_lost(self):
        fs = Ext4Dax(device_size=64 << 20)
        f = fs.create("x", CAP)
        fs.device.drain()
        f.write(0, b"volatile")
        # Drop everything unfenced: the data was nt_stored but not fenced.
        image = fs.device.crash_image(persist_words=[])
        assert bytes(image[f.inode.base : f.inode.base + 8]) == b"\0" * 8

    def test_fsync_makes_data_durable(self):
        fs = Ext4Dax(device_size=64 << 20)
        f = fs.create("x", CAP)
        fs.device.drain()
        f.write(0, b"durable!")
        f.fsync()
        image = fs.device.crash_image(persist_words=[])
        assert bytes(image[f.inode.base : f.inode.base + 8]) == b"durable!"

    def test_no_data_atomicity(self):
        """A crashed DAX write can be partially durable (the paper's
        'only supports metadata consistency')."""
        fs = Ext4Dax(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"A" * 256)
        f.fsync()
        f.write(0, b"B" * 256)
        image = fs.device.crash_image(persist_words=fs.device.unfenced_words()[:8])
        region = bytes(image[f.inode.base : f.inode.base + 256])
        assert region[:64] == b"B" * 64 and region[128:] == b"A" * 128

    def test_size_update_volatile_until_fsync(self):
        fs = Ext4Dax(device_size=64 << 20)
        f = fs.create("x", CAP)
        fs.device.drain()
        f.write(0, b"x" * 100)
        image = fs.device.crash_image(persist_words=[])
        from repro.fsapi.volume import Volume

        remounted = Volume.mount(NvmDevice.from_image(bytes(image)))
        assert remounted.lookup("x").size == 0

    def test_mmap_view(self):
        fs = Ext4Dax(device_size=64 << 20)
        f = fs.create("x", CAP)
        device, base, cap = f.mmap_view()
        assert cap == f.inode.capacity


class TestExt4PageCache:
    @pytest.mark.parametrize("mode", ["wb", "ordered", "journal"])
    def test_modes_functionally_equivalent(self, mode):
        fs = Ext4(device_size=64 << 20, mode=mode)
        f = fs.create("x", CAP)
        rng = random.Random(1)
        ref = bytearray(CAP)
        for _ in range(60):
            off = rng.randrange(CAP - 1)
            ln = min(rng.choice([10, 4096, 9000]), CAP - off)
            payload = bytes([rng.randrange(1, 256)]) * ln
            f.write(off, payload)
            ref[off : off + ln] = payload
        f.fsync()
        size = max(i for i in range(CAP) if ref[i]) + 1
        assert f.read(0, size) == bytes(ref[:size])

    def test_unknown_mode_rejected(self):
        with pytest.raises(FsError):
            Ext4(device_size=64 << 20, mode="lol")

    def test_unsynced_writes_stay_in_page_cache(self):
        fs = Ext4(device_size=64 << 20, mode="ordered")
        f = fs.create("x", CAP)
        fs.device.drain()
        base_stats = fs.device.stats.snapshot()
        f.write(0, b"x" * 4096)
        # No device traffic at all before fsync (page cache only).
        assert fs.device.stats.delta(base_stats).stored_bytes == 0
        f.fsync()
        assert fs.device.stats.delta(base_stats).stored_bytes >= 4096

    def test_journal_mode_writes_data_twice(self):
        results = {}
        for mode in ("ordered", "journal"):
            fs = Ext4(device_size=64 << 20, mode=mode)
            f = fs.create("x", CAP)
            base = fs.device.stats.snapshot()
            f.write(0, b"x" * 4096)
            f.fsync()
            results[mode] = fs.device.stats.delta(base).stored_bytes
        assert results["journal"] >= results["ordered"] + 4096


class TestNova:
    def test_cow_never_overwrites_in_place(self):
        fs = Nova(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"v1" * 2048)
        first_page = f.page_table[0]
        f.write(0, b"v2" * 2048)
        assert f.page_table[0] != first_page

    def test_sub_page_write_amplifies_to_page(self):
        fs = Nova(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"x" * PAGE)
        base = fs.device.stats.snapshot()
        f.write(100, b"y" * 512)
        delta = fs.device.stats.delta(base)
        assert delta.stored_bytes >= PAGE  # whole CoW page rewritten

    def test_durable_at_op_return(self):
        fs = Nova(device_size=64 << 20)
        f = fs.create("x", CAP)
        fs.device.drain()
        f.write(0, b"atomic!!" * 512)
        image = fs.device.crash_image(persist_words=[])
        remounted = Nova.remount(NvmDevice.from_image(bytes(image)))
        f2 = remounted.open("x")
        assert f2.read(0, 4096) == b"atomic!!" * 512

    def test_remount_preserves_page_table(self):
        fs = Nova(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"hello")
        f.write(8192, b"world")
        fs.device.drain()
        remounted = Nova.remount(NvmDevice.from_image(bytes(fs.device.buffer.snapshot_durable())))
        f2 = remounted.open("x")
        assert f2.read(0, 5) == b"hello"
        assert f2.read(8192, 5) == b"world"

    def test_old_pages_recycled(self):
        fs = Nova(device_size=64 << 20)
        f = fs.create("x", CAP)
        for _ in range(50):
            f.write(0, b"z" * PAGE)
        assert fs.pages.in_use <= CAP + PAGE  # no leak


class TestLibnvmmio:
    def test_redo_log_until_sync(self):
        fs = Libnvmmio(device_size=64 << 20)
        f = fs.create("x", CAP)
        fs.device.drain()
        f.write(0, b"logged")
        # Data sits in the log, not the file, until fsync.
        assert fs.device.buffer.load(f.inode.base, 6) == b"\0" * 6
        assert f.read(0, 6) == b"logged"
        f.fsync()
        assert fs.device.buffer.load(f.inode.base, 6) == b"logged"

    def test_sync_doubles_write_traffic(self):
        fs = Libnvmmio(device_size=64 << 20)
        f = fs.create("x", CAP)
        base = fs.device.stats.snapshot()
        f.write(0, b"x" * 4096)
        f.fsync()
        amp = fs.device.stats.delta(base).stored_bytes / 4096
        assert amp > 1.9

    def test_no_sync_traffic_near_one(self):
        fs = Libnvmmio(device_size=64 << 20)
        f = fs.create("x", CAP)
        base = fs.device.stats.snapshot()
        for i in range(16):
            f.write(i * 4096, b"x" * 4096)
        amp = fs.device.stats.delta(base).stored_bytes / (16 * 4096)
        assert amp < 1.1

    def test_hybrid_switches_to_undo_when_read_dominant(self):
        fs = Libnvmmio(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"seed" * 1024)
        for _ in range(10):
            f.read(0, 4096)
        f.fsync()  # epoch decision: read-dominant -> undo
        assert f.epoch_policy == "undo"
        f.write(0, b"undo" * 1024)
        assert f.read(0, 8) == b"undoundo"
        for _ in range(5):
            f.write(0, b"busy" * 1024)
        f.fsync()  # write-dominant -> back to redo
        assert f.epoch_policy == "redo"

    def test_undo_policy_reads_direct(self):
        fs = Libnvmmio(device_size=64 << 20)
        f = fs.create("x", CAP)
        f.write(0, b"A" * 4096)
        for _ in range(3):
            f.read(0, 64)
        f.fsync()
        assert f.epoch_policy == "undo"
        f.write(100, b"B" * 64)
        assert f.read(100, 64) == b"B" * 64
        assert f.read(0, 100) == b"A" * 100

    def test_background_checkpoint_under_pressure(self):
        fs = Libnvmmio(device_size=64 << 20)
        fs.bg_pressure = 0.0001  # force bg drain quickly
        f = fs.create("x", CAP)
        for i in range(8):
            f.write(i * 4096, b"x" * 4096)
        bg = fs.take_bg_traces()
        assert bg  # background checkpoint ops were recorded
        assert f.read(0, 4096) == b"x" * 4096
