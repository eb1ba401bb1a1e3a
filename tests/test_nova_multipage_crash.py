"""NOVA journaled multi-page commit: crash regression tests (ISSUE 6).

The original NOVA model swung page-table pointers with no journal: a
crash between the swings of a multi-page write left a half-new file
that no recovery could repair (inference found it as a true bug). The
journaled protocol pins the fix: a checksummed commit entry becomes
durable *before* any pointer swing, and :meth:`Nova.recover` replays
the whole entry — so every crash image recovers to all-old or all-new.

Covered here: journal chunking across MAX_COMMIT_PAGES, an exhaustive
all-points x all-policies sweep of a multi-page burst workload, torn /
stale entry handling in the scanner, the never-shrink size guard, and
recovery idempotence.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.fs.nova import JOURNAL_ENTRY, MAX_COMMIT_PAGES, Nova
from repro.nvm.crash import CrashPlan, compose_image
from repro.nvm.device import NvmDevice

from repro.crashsweep.census import take_census
from repro.crashsweep.sweep import POLICIES
from repro.crashsweep.workloads import NovaSweepWorkload

DEVICE = 8 << 20
PAGE = 4096


def mounted(capacity=40 * PAGE):
    fs = Nova(device_size=DEVICE)
    handle = fs.create("f", capacity=capacity)
    return fs, handle


class TestJournalChunking:
    def test_multipage_write_round_trips(self):
        fs, handle = mounted()
        payload = bytes(range(256)) * (7 * PAGE // 256)  # 7 pages: 2 chunks
        handle.write(0, payload)
        assert handle.read(0, len(payload)) == payload
        assert handle.size == len(payload)

    def test_chunks_cap_at_max_commit_pages(self):
        """A 7-page write must issue ceil(7/5) = 2 commit entries, each
        covering at most MAX_COMMIT_PAGES pointer pairs."""
        fs, handle = mounted()
        entries = []
        original = fs._journal_append

        def spy(inode, new_size, chunk):
            entries.append(len(chunk))
            return original(inode, new_size, chunk)

        fs._journal_append = spy
        handle.write(0, b"\xab" * (7 * PAGE))
        assert entries == [MAX_COMMIT_PAGES, 2]

    def test_retired_entries_do_not_replay(self):
        """After a clean write the entries are retired: recovery of the
        drained image must be a pure no-op remount."""
        fs, handle = mounted()
        handle.write(0, b"\xcd" * (6 * PAGE))
        fs.device.drain()
        image = fs.device.buffer.snapshot_durable()
        recovered = Nova.recover(NvmDevice.from_image(image))
        recovered.device.drain()
        assert recovered.device.buffer.snapshot_durable() == image


class TestExhaustiveBurstSweep:
    def test_every_point_every_policy_is_atomic(self):
        """All crash points of a small multi-page burst run, all three
        policies: the per-op atomic oracle (all-old or all-new file
        content) plus recovery idempotence must hold everywhere."""
        workload = NovaSweepWorkload("nova-burst-small", pattern="multipage", nops=3)
        census = take_census(workload, "sync")
        assert census.parity_ok
        failures = []
        for point in range(census.events):
            outcome = workload.run("sync", CrashPlan(point))
            assert outcome.crashed
            for policy in POLICIES:
                image = compose_image(outcome.fs.device, policy, seed=point)
                violations = workload.check(
                    image, "sync", outcome.oracles, idempotence=True
                )
                if violations:
                    failures.append((point, policy.value, violations[0]))
        assert not failures, failures[:5]


class TestScannerGuards:
    class _CrashHere(Exception):
        pass

    def _crash_mid_swing(self):
        """Crash right after the commit entry's fence: the entry (and the
        CoW data it points at) is durable, none of the pointer swings
        happened."""
        fs, handle = mounted()
        handle.write(0, b"\x11" * (3 * PAGE))  # committed baseline
        fs.device.drain()

        original = fs._journal_append
        holder = {}

        def crash_after_commit(inode, new_size, chunk):
            holder["off"] = original(inode, new_size, chunk)
            raise self._CrashHere

        fs._journal_append = crash_after_commit
        with pytest.raises(self._CrashHere):
            handle.write(0, b"\x22" * (3 * PAGE))
        return fs, holder["off"]

    def test_valid_entry_rolls_forward(self):
        fs, entry_off = self._crash_mid_swing()
        # keep the entry, drop the (unfenced) retire + stray state
        live = set(fs.device.unfenced_words())
        keep = [w for w in live if entry_off <= w < entry_off + JOURNAL_ENTRY]
        image = bytes(fs.device.crash_image(persist_words=keep))
        recovered = Nova.recover(NvmDevice.from_image(image))
        h = recovered.open("f")
        assert h.read(0, 3 * PAGE) == b"\x22" * (3 * PAGE)

    def test_torn_entry_is_discarded(self):
        fs, entry_off = self._crash_mid_swing()
        live = set(fs.device.unfenced_words())
        keep = [w for w in live if entry_off <= w < entry_off + JOURNAL_ENTRY]
        image = bytearray(fs.device.crash_image(persist_words=keep))
        image[entry_off + 16] ^= 0xFF  # flip a body byte: crc mismatch
        recovered = Nova.recover(NvmDevice.from_image(bytes(image)))
        h = recovered.open("f")
        assert h.read(0, 3 * PAGE) == b"\x11" * (3 * PAGE)  # rolled back

    def test_insane_pair_count_is_discarded(self):
        fs, entry_off = self._crash_mid_swing()
        image = bytearray(fs.device.crash_image(persist_words=fs.device.unfenced_words()))
        # forge n > MAX_COMMIT_PAGES with a recomputed (valid!) crc
        raw = bytearray(image[entry_off : entry_off + JOURNAL_ENTRY])
        struct.pack_into("<I", raw, 4, MAX_COMMIT_PAGES + 3)
        struct.pack_into(
            "<I", raw, 0, zlib.crc32(bytes(raw[4:])) & 0xFFFFFFFF
        )
        image[entry_off : entry_off + JOURNAL_ENTRY] = raw
        recovered = Nova.recover(NvmDevice.from_image(bytes(image)))
        assert recovered.open("f").size >= 0  # scanner skipped the entry

    def test_size_never_shrinks_on_stale_replay(self):
        """A stale entry (its retire word lost to the crash) replayed
        after a later op must not undo the newer, larger size."""
        fs, handle = mounted()
        handle.write(0, b"\x33" * (2 * PAGE))
        inode = handle.inode
        # fabricate an *unretired* old entry describing a 1-page file
        fs._journal_append(inode, PAGE, [(0, handle.page_table[0], 0)])
        fs.device.drain()
        recovered = Nova.recover(NvmDevice.from_image(fs.device.buffer.snapshot_durable()))
        assert recovered.open("f").size == 2 * PAGE

    def test_recover_is_idempotent_with_live_entry(self):
        fs, entry_off = self._crash_mid_swing()
        image = bytes(fs.device.crash_image(persist_words=fs.device.unfenced_words()))
        d1 = NvmDevice.from_image(image)
        Nova.recover(d1)
        d1.drain()
        first = d1.buffer.snapshot_durable()
        d2 = NvmDevice.from_image(first)
        Nova.recover(d2)
        d2.drain()
        assert d2.buffer.snapshot_durable() == first

    def test_seq_continues_after_remount(self):
        """Remount must resume the sequence past every seq in the
        journal, retired or not — reuse would let recovery replay an
        old entry over a newer one."""
        fs, handle = mounted()
        handle.write(0, b"\x44" * PAGE)
        fs.device.drain()
        before = fs._journal_seq
        remounted = Nova.remount(NvmDevice.from_image(fs.device.buffer.snapshot_durable()))
        assert remounted._journal_seq >= before
