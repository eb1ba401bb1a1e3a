"""DeviceStats redundant_flushes / redundant_fences counters, and the
before/after regression tests for the redundancy fixes the analyzer
surfaced (empty-rollback fence, empty-fsync fence, fresh-tree grow
fence)."""

from __future__ import annotations

from dataclasses import fields

from repro.core import MgspConfig, MgspFilesystem
from repro.fs import Libnvmmio
from repro.nvm.device import DeviceStats, NvmDevice


def make_fs(**cfg):
    return MgspFilesystem(device_size=8 << 20, config=MgspConfig(degree=16, **cfg))


# -- counter semantics at the device level ---------------------------------


def test_flush_of_clean_line_counts_redundant():
    d = NvmDevice(1 << 20)
    d.store(0, b"x" * 64)
    base = d.stats.snapshot()
    d.flush(0, 64)  # dirty -> effective
    d.flush(0, 64)  # clean -> redundant
    delta = d.stats.delta(base)
    assert delta.redundant_flushes == 1


def test_fence_with_nothing_pending_counts_redundant():
    d = NvmDevice(1 << 20)
    base = d.stats.snapshot()
    d.fence()  # nothing stored yet
    d.store(0, b"x" * 64)
    d.flush(0, 64)
    d.fence()  # orders one pending line: effective
    delta = d.stats.delta(base)
    assert delta.fences == 2
    assert delta.redundant_fences == 1


def test_delta_subtracts_redundant_counters():
    """delta subtracts every counter, the redundant ones included, so a
    counter added later cannot drop out of a stats delta."""
    d = NvmDevice(1 << 20)
    d.fence()
    base = d.stats.snapshot()
    assert d.stats.delta(base).redundant_fences == 0
    d.store(0, b"x" * 64)
    d.load(0, 8)
    d.flush(0, 64)
    d.flush(0, 64)  # clean: redundant
    d.fence()
    d.fence()  # nothing pending: redundant
    delta = d.stats.delta(base)
    for field in fields(DeviceStats):
        value = getattr(d.stats, field.name) - getattr(base, field.name)
        assert value > 0, field.name
        assert getattr(delta, field.name) == value, field.name


# -- fixed site 1: empty-transaction rollback no longer fences -------------


def test_rollback_with_nothing_freed_issues_no_fence():
    fs = make_fs()
    f = fs.create("a", capacity=1 << 16)
    txn = fs.begin_transaction(f)
    base = fs.device.stats.snapshot()
    txn.rollback()
    delta = fs.device.stats.delta(base)
    assert delta.fences == 0
    assert delta.redundant_fences == 0


def test_rollback_that_frees_logs_fences_effectively():
    fs = make_fs()
    f = fs.create("a", capacity=1 << 16)
    txn = fs.begin_transaction(f)
    txn.write(0, b"t" * 4096)
    base = fs.device.stats.snapshot()
    txn.rollback()
    delta = fs.device.stats.delta(base)
    assert delta.fences >= 1  # pointer-zeroing must still be ordered
    assert delta.redundant_fences == 0
    assert f.read(0, 10) == b""  # write really rolled back


# -- fixed site 2: libnvmmio fsync with no pending entries -----------------


def test_libnvmmio_second_fsync_is_free():
    fs = Libnvmmio(device_size=8 << 20)
    f = fs.create("a", capacity=1 << 16)
    f.write(0, b"d" * 4096)
    f.fsync()
    base = fs.device.stats.snapshot()
    f.fsync()  # nothing new to checkpoint
    delta = fs.device.stats.delta(base)
    assert delta.fences == 0
    assert delta.redundant_fences == 0
    assert f.read(0, 4) == b"dddd"


# -- fixed site 3: fresh-tree growth no longer fences ----------------------


def test_first_write_issues_no_redundant_fence():
    # _ensure_height used to fence after grow_to even when growing a
    # fresh tree stored nothing; the whole first-write flow must now be
    # free of redundant flushes and fences.
    fs = make_fs()
    f = fs.create("a", capacity=1 << 16)
    base = fs.device.stats.snapshot()
    f.write(0, b"a" * 4096)
    delta = fs.device.stats.delta(base)
    assert delta.redundant_fences == 0
    assert delta.redundant_flushes == 0


def test_mgsp_steady_state_write_has_zero_redundancy():
    fs = make_fs()
    f = fs.create("a", capacity=1 << 20)
    for i in range(16):
        f.write(i * 4096, bytes([i + 1]) * 4096)
    f.fsync()
    base = fs.device.stats.snapshot()
    for i in range(16):
        f.write(i * 4096, bytes([i + 65]) * 4096)
    delta = fs.device.stats.delta(base)
    assert delta.redundant_flushes == 0
    assert delta.redundant_fences == 0
