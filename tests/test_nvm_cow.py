"""Copy-on-write store buffer: the durable image is a shared base under a
page overlay, and booting, fencing, draining and imaging cost in
proportion to the words touched, not to the device size."""

from __future__ import annotations

import os
import random
import sys

import pytest

from repro.nvm.cache import StoreBuffer
from repro.nvm.crash import CrashPolicy, compose_image
from repro.nvm.device import NvmDevice

PAGE = 4096


def pattern(size: int, seed: int = 1) -> bytes:
    return random.Random(seed).randbytes(size)


class TestBootFromImage:
    def test_untouched_boot_shares_the_image(self):
        image = pattern(8 * PAGE)
        device = NvmDevice.from_image(image)
        assert device.buffer.snapshot_durable() is image
        assert compose_image(device, CrashPolicy.DROP_ALL) is image

    def test_mutable_image_is_copied(self):
        image = bytearray(pattern(4 * PAGE))
        device = NvmDevice.from_image(image)
        image[0:8] = b"clobber!"
        assert device.load(0, 8) != b"clobber!"
        assert device.buffer.snapshot_durable()[0:8] != b"clobber!"

    def test_page_straddling_persist_keeps_untouched_pages(self):
        image = pattern(8 * PAGE)
        device = NvmDevice.from_image(image)
        device.store(3 * PAGE - 100, b"\xaa" * 300)  # pages 2 and 3
        device.persist(3 * PAGE - 100, 300)
        device.store(6 * PAGE + 8, b"\xbb" * 8)  # unfenced, page 6
        expected = bytearray(image)
        expected[3 * PAGE - 100 : 3 * PAGE + 200] = b"\xaa" * 300
        assert device.buffer.snapshot_durable() == bytes(expected)
        assert device.unfenced_words() == [6 * PAGE + 8]
        expected[6 * PAGE + 8 : 6 * PAGE + 16] = b"\xbb" * 8
        assert compose_image(device, CrashPolicy.KEEP_ALL) == bytes(expected)

    @pytest.mark.parametrize("size", [100, 2 * PAGE + 100, 3 * PAGE + 60])
    def test_ragged_device_sizes(self, size):
        """Sizes that are not page, line or word multiples: the tail page
        is short and the last word and line run past the end."""
        image = pattern(size)
        device = NvmDevice.from_image(image)
        tail = size - 5
        device.store(tail, b"12345")
        device.flush(tail, 5)
        device.fence()
        device.store(tail - 40, b"abc")
        expected = bytearray(image)
        expected[tail:] = b"12345"
        assert device.buffer.snapshot_durable() == bytes(expected)
        assert len(compose_image(device, CrashPolicy.KEEP_ALL)) == size
        device.drain()
        expected[tail - 40 : tail - 37] = b"abc"
        assert device.buffer.snapshot_durable() == bytes(expected)
        fresh = StoreBuffer(size)
        fresh.store(tail, b"12345")
        fresh.persist(tail, 5)
        assert fresh.snapshot_durable() == bytes(size - 5) + b"12345"


class TestDrain:
    def test_drain_after_bulk_and_scattered_stores(self):
        device = NvmDevice(64 * PAGE)
        device.store(PAGE + 7, pattern(5 * PAGE))
        device.nt_store(40 * PAGE, b"nt" * 100)
        device.atomic_store_u64(63 * PAGE, 7)
        device.fence()  # the nt store becomes durable; the rest stays dirty
        device.drain()
        assert device.buffer.snapshot_durable() == device.buffer.snapshot_working()
        assert device.unfenced_words() == []


def _rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_sparse_large_device_footprint():
    """A 256 MB device touched by 1000 small scattered stores commits
    memory for the pages it touched, not for the whole device."""
    size = 256 << 20
    rng = random.Random(11)
    before = _rss_bytes()
    device = NvmDevice(size)
    for _ in range(1000):
        offset = rng.randrange(0, size - 64) & ~7
        device.store(offset, b"\x5a" * 48)
        device.flush(offset, 48)
    device.fence()
    device.drain()
    grown = _rss_bytes() - before
    assert device.unfenced_words() == []
    assert grown < 32 << 20, f"resident memory grew by {grown >> 20} MB"
