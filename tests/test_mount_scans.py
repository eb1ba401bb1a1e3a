"""The one-read mount scans agree with a per-record reference scan.

``Volume.mount`` reads the whole inode slot table and ``Nova``'s journal
scan the whole journal region in one untimed load each. These tests
re-derive the namespace, the allocation cursors, the checksum-valid
journal entries and ``max_seq`` record by record, as the scans used to,
and require identical results, on clean images, crash images and images
whose metadata regions hold random bytes.
"""

from __future__ import annotations

import random
import struct
import zlib

import pytest

from repro.crashsweep.workloads import DEVICE_SIZE, WORKLOADS
from repro.fs.nova import JOURNAL_ENTRY, MAX_COMMIT_PAGES, Nova
from repro.fsapi.layout import VolumeLayout
from repro.fsapi.volume import _SLOT, HEADER_SIZE, INODE_MAGIC, SLOT_SIZE, Volume
from repro.nvm.crash import CrashPlan, CrashPolicy, compose_image
from repro.nvm.device import NvmDevice


def reference_mount(device, layout):
    """(inode fields per live slot, next id, data cursor, node-table cursor)."""
    volume = Volume(device, layout)
    base = volume.layout.superblock.start + HEADER_SIZE
    inodes = {}
    next_id = 1
    data_cursor = volume.layout.data_area.start
    ntable_cursor = volume.layout.node_tables.start
    for slot_idx in range(volume._max_slots):
        slot_off = base + slot_idx * SLOT_SIZE
        raw = device.buffer.load(slot_off, SLOT_SIZE)
        magic, fid, ext_base, cap, size, nt_off, nt_len, name = _SLOT.unpack(raw)
        if magic != INODE_MAGIC:
            continue
        name = name.rstrip(b"\0").decode("utf-8")
        inodes[name] = (name, fid, ext_base, cap, size, nt_off, nt_len, slot_off)
        next_id = max(next_id, fid + 1)
        if ext_base:
            data_cursor = max(data_cursor, ext_base + cap)
        if nt_len:
            ntable_cursor = max(ntable_cursor, nt_off + nt_len)
    return list(inodes.values()), next_id, data_cursor, ntable_cursor


def mounted(device, layout):
    volume = Volume.mount(device, layout)
    inodes = [
        (i.name, i.id, i.base, i.capacity, i.size, i.node_table_off, i.node_table_len, i.slot_offset)
        for i in volume.files()
    ]
    return inodes, volume._next_id, volume._data_cursor, volume._ntable_cursor


def reference_journal_scan(fs):
    journal = fs.volume.layout.journal
    entries = []
    max_seq = 0
    for off in range(journal.start, journal.end - JOURNAL_ENTRY + 1, JOURNAL_ENTRY):
        raw = fs.device.buffer.load(off, JOURNAL_ENTRY)
        crc, n = struct.unpack_from("<II", raw)
        seq = struct.unpack_from("<Q", raw, 8)[0]
        max_seq = max(max_seq, seq)
        if not 1 <= n <= MAX_COMMIT_PAGES:
            continue
        if crc != zlib.crc32(raw[4 : 40 + 16 * n]) & 0xFFFFFFFF:
            continue
        _n, seq, fid, new_size, size_slot = struct.unpack_from("<IQQQQ", raw, 4)
        pairs = [struct.unpack_from("<QQ", raw, 40 + 16 * i) for i in range(n)]
        entries.append((seq, off, fid, new_size, size_slot, pairs))
    return entries, max_seq


def nova_layout(device):
    return VolumeLayout.for_device(device.size, log_fraction=Nova.log_fraction)


def nova_crash_images():
    workload = WORKLOADS["nova-txn"]
    for point in (40, 150, 233, 300):
        outcome = workload.run("sync", CrashPlan(point))
        for policy in CrashPolicy:
            yield compose_image(outcome.fs.device, policy, seed=point)


def test_nova_crash_images_scan_identically():
    live = 0
    for image in nova_crash_images():
        device = NvmDevice.from_image(image)
        assert mounted(device, nova_layout(device)) == reference_mount(device, nova_layout(device))
        fs = Nova.remount(NvmDevice.from_image(image))
        assert fs._journal_scan() == reference_journal_scan(fs)
        live += len(fs._journal_scan()[0])
    assert live, "some crash point should leave a live journal entry"


def test_mgsp_volume_mounts_identically():
    outcome = WORKLOADS["txn-mixed"].run("sync")
    device = NvmDevice.from_image(outcome.fs.device.buffer.snapshot_durable())
    layout = outcome.fs.volume.layout
    assert mounted(device, layout) == reference_mount(device, layout)
    assert mounted(device, layout)[0], "the workload's file must be found"


@pytest.mark.parametrize("seed", range(6))
def test_random_metadata_scans_identically(seed):
    """Random bytes in the slot table and the journal: stray magics,
    out-of-range pair counts and checksums that happen not to match."""
    rng = random.Random(seed)
    fs = Nova(device_size=DEVICE_SIZE)
    fs.create("a", 16384).write(0, b"x" * 5000)
    layout = fs.volume.layout
    # Random journal entries: stray pair counts, checksums that fail.
    journal = layout.journal
    nentries = (journal.end - journal.start) // JOURNAL_ENTRY
    for idx in rng.sample(range(nentries), 20):
        raw = bytearray(rng.randbytes(JOURNAL_ENTRY))
        raw[4:8] = rng.randrange(0, MAX_COMMIT_PAGES + 2).to_bytes(4, "little")
        fs.device.buffer.store(journal.start + idx * JOURNAL_ENTRY, bytes(raw))
    fs.device.drain()
    remounted = Nova.remount(NvmDevice.from_image(fs.device.buffer.snapshot_durable()))
    assert remounted._journal_scan() == reference_journal_scan(remounted)
    assert remounted._journal_seq == reference_journal_scan(remounted)[1] + 1
    # Random live slots (duplicate names included) for the namespace scan.
    magic = INODE_MAGIC.to_bytes(4, "little")
    sb = layout.superblock.start + HEADER_SIZE
    nslots = (layout.superblock.size - HEADER_SIZE) // SLOT_SIZE
    for slot in rng.sample(range(1, nslots), 5):
        name = rng.choice([b"f", b"g", b"h"]).ljust(16, b"\0")
        fs.device.buffer.store(sb + slot * SLOT_SIZE, magic + rng.randbytes(SLOT_SIZE - 20) + name)
    fs.device.drain()
    booted = NvmDevice.from_image(fs.device.buffer.snapshot_durable())
    assert mounted(booted, layout) == reference_mount(booted, layout)
